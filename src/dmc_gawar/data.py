"""Dataset containers, CSV ingestion, and deterministic stratified splitting.

A dataset is an n-by-m numeric feature matrix plus a binary label vector.
Labels are encoded by first appearance in the file: the first label string
seen becomes class 0, the second becomes class 1.  All containers are
immutable after construction and safe to share across threads.

``load_csv`` reads the header with the ``csv`` module and parses the rest
of the file in one ``np.loadtxt`` pass (numpy's C tokenizer, which splits
quoted fields as ``csv.reader`` does and rounds each number as ``float``
does).  ``loadtxt`` gets an upper bound on the row count (``_line_bound``),
so it allocates its table once instead of regrowing it row by row.  The
label column is then dropped in place, each row's feature cells moved
left within the parsed table's own buffer, so the returned matrix is the
one copy of the data that the load makes.  Any exception, and any result
that is not plainly valid, sends the file to the row-by-row reader
instead: it parses one whole row per call with ``float`` and, for a
row that fails, scans it again cell by cell.  So the row reader alone
produces every error, with the row, column and left-to-right,
top-to-bottom order of a cell-by-cell parse.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Base class for dataset ingestion and splitting failures."""


class ParseError(DataError):
    """A cell could not be parsed as a number (1-based row/col of the file)."""

    def __init__(self, row: int, col: int, token: str):
        super().__init__(f"row {row}, column {col}: cannot parse {token!r} as a number")
        self.row = row
        self.col = col
        self.token = token


class NonFiniteValueError(DataError):
    """A cell parsed as NaN or infinity (1-based row/col of the file)."""

    def __init__(self, row: int, col: int):
        super().__init__(f"row {row}, column {col}: non-finite value")
        self.row = row
        self.col = col


class NotBinaryLabelsError(DataError):
    """The label column does not hold exactly two distinct values."""

    def __init__(self, n_classes: int):
        super().__init__(f"label column holds {n_classes} distinct values, expected 2")
        self.n_classes = n_classes


class DegenerateSplitError(DataError):
    """A requested split would leave a class absent from train or test."""


def _binary(codes, name: str) -> np.ndarray:
    """``codes`` as a new int array, if every one is exactly 0 or 1."""
    codes = np.asarray(codes)
    if not ((codes == 0) | (codes == 1)).all():
        raise ValueError(f"{name} must be coded 0/1")
    return codes.astype(int)


def _finite(values, name: str) -> np.ndarray:
    """``values`` as float64, if every one is finite.  A NaN propagates to
    the minimum and an infinity is the minimum or the maximum, so the check
    makes no temporary the size of ``values``: in repeated ``cluster``
    calls on 100 x 20000 data, the 100 KB mask of ``minmax_normalize``'s
    input changed the heap so that a later CSV load's 11 MB row buffer
    stayed resident."""
    values = np.asarray(values, dtype=float)
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{name} must hold only finite values")
    return values


def _column_ids(ids, m: int | None, name: str, ndim: int = 1) -> np.ndarray:
    """``ids`` as an ``ndim``-D intp array, if every one is an integer, and
    a column id in 0..m-1 unless ``m`` is None: a float is not truncated to
    a column, nor a bool read as one."""
    ids = np.asarray(ids)
    integers = ids.dtype.kind in "iu" or not ids.size
    if ids.ndim != ndim or not integers or m is not None and ids.size and not 0 <= ids.min() <= ids.max() < m:
        bounds = "" if m is None else f" in 0..{m - 1}"
        raise ValueError(f"{name} must be 1-D integer column indices{bounds}")
    return ids.astype(np.intp, copy=False)


# The (least, most) value of each count that ``_count`` does not hold to
# 1.. with no cap, by the name it is gated under; seeds start at 0.  A
# run's time grows in proportion to each capped count, so each is capped,
# in the library as in ``PipelineConfig``, to keep a run to minutes: every
# fitness call fits n_splits trees (a 62 x 2000 run takes about 0.6 s at
# 10), every restart is a full k-means fit (0.040 s of CPU, median of 20,
# for 1000 points of 100 values on a 2-core Xeon), the first generation
# draws and scores n_pop subsets, a search that keeps improving stops only
# after max_iterations generations, each repeat of ``run_experiment`` is a
# full run and each draw of ``random_baseline`` a fitness call.
_BOUNDS = {
    "seed": (0, None), "base_seed": (0, None), "n_pop": (2, 1000), "max_iterations": (1, 100_000),
    "n_splits": (1, 1000), "n_restarts": (1, 100), "n_runs": (1, 1000),
}


def _count(value, name: str) -> int:
    """``value`` as an int, if it is an integer in the range ``_BOUNDS``
    gives ``name`` (1.. with no cap if it gives none): a float is not
    truncated to a count, nor a bool read as one."""
    least, most = _BOUNDS.get(name, (1, None))
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}")
    return int(value)


def _fraction(value, name: str, closed: bool = False) -> float:
    """``value`` as a float, if it is a number in (0, 1), or in (0, 1] if
    ``closed``: a bool is not read as 1, and the range is checked before
    the cast, so a huge integer is refused, not overflowed."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (0 < value <= 1 if closed else 0 < value < 1):
        raise ValueError(f"{name} must be in (0, 1{']' if closed else ')'}")
    return float(value)


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, marked read-only: a ``FeatureMatrix`` holds such an
    array without a copy."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class FeatureMatrix:
    """An n-by-m grid of finite reals; rows are samples, columns are features.

    The grid is read-only.  A read-only float64 array is held as it is;
    any other input is copied, so the caller's array stays writeable and a
    write to it does not reach the matrix."""

    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:  # someone may still write to it: hold a copy
            values = _read_only(values.copy())
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        n, m = values.shape
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        if m < 1:
            raise ValueError("need at least 1 feature")
        if len(self.feature_names) != m:
            raise ValueError("feature_names length does not match column count")
        if len(set(self.feature_names)) != m:
            raise ValueError("feature_names must be unique")
        _finite(values, "values")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Length-n vector of 0/1 class codes plus the two original label strings."""

    labels: np.ndarray
    class_names: tuple[str, str]

    def __post_init__(self):
        labels = _binary(self.labels, "labels")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        counts = np.bincount(labels, minlength=2)
        if (counts < 2).any():
            raise ValueError(f"each class needs at least 2 samples, got counts {tuple(counts)}")
        if len(self.class_names) != 2:
            raise ValueError("exactly two class names required")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def class_counts(self) -> tuple[int, int]:
        counts = np.bincount(self.labels, minlength=2)
        return int(counts[0]), int(counts[1])


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint train/test index sets jointly covering 0..n-1."""

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def _row_error(line_no: int, record: list[str], label_idx: int) -> DataError:
    """The error of the first bad cell of a row, scanning left to right."""
    for col_no, token in enumerate(record):
        if col_no == label_idx:
            continue
        try:
            value = float(token)
        except ValueError:
            return ParseError(line_no, col_no + 1, token)
        if not math.isfinite(value):
            return NonFiniteValueError(line_no, col_no + 1)
    raise AssertionError(f"row {line_no} holds no bad cell")


def _read_header(reader, label_column: str | None) -> tuple[list[str], int, list[str]]:
    """(header, label column index, feature names) of the file's first record."""
    header = next(reader, None)
    if not header:
        raise ParseError(1, 1, "<empty file>")
    if label_column is None:
        label_idx = len(header) - 1
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(f"label column {label_column!r} not found in header") from None
    feature_names = header[:label_idx] + header[label_idx + 1 :]
    if not feature_names:
        raise DataError("header holds no feature column")
    if len(set(feature_names)) < len(feature_names):
        repeated = next(name for name, count in Counter(feature_names).items() if count > 1)
        raise DataError(f"header repeats the feature column {repeated!r}")
    return header, label_idx, feature_names


def load_csv(path, label_column: str | None = None) -> tuple[FeatureMatrix, LabelVector]:
    """Load a UTF-8 comma-separated file with one header row.

    ``label_column`` selects the label column by header name; by default the
    last column is the label.  Every other cell must parse as a finite real.
    The two label strings are encoded 0/1 by first appearance.  A leading
    byte-order mark is dropped.  The header must name at least one feature
    column, each once.  An error names the first bad cell of the first bad
    row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        loaded = _load_table(path, label_column)
    except Exception:  # any fault: the row reader re-reads the file and names it
        loaded = None
    return _load_rows(path, label_column) if loaded is None else loaded


# ASCII separators that numpy's number parser strips as whitespace around a
# cell while ``float`` rejects them.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def _screened(lines):
    """``lines`` as they are, but ValueError at a line that holds one of
    ``_NOT_FLOAT_SPACE``, so that such a file goes to the row reader."""
    for line in lines:
        if any(char in line for char in _NOT_FLOAT_SPACE):
            raise ValueError("line holds an ASCII separator character")
        yield line


def _load_table(path: Path, label_column: str | None) -> tuple[FeatureMatrix, LabelVector] | None:
    """The dataset from one ``np.loadtxt`` pass, or None if it is not plainly valid.

    ``loadtxt`` reads the lines after the header from the same handle, so
    the header is the record ``csv.reader`` read, and lines end where
    ``csv.reader``'s do (``newline=""``: LF, CRLF and lone CR).  Without
    ``usecols`` it raises on ragged rows; with ``comments=None`` a ``#`` is
    data.  Not plainly valid, and left to the row reader: no rows, a column
    count other than the header's (every row with the same extra field), or
    a label column without exactly two values of two or more rows each, or
    as many rows as ``_line_bound`` (the header takes a line, so the file
    changed after it was counted).  A warning (such as "input contained no
    data") counts as a fault, and so does a non-finite cell, which
    ``FeatureMatrix`` rejects.
    """
    class_codes: dict[str, int] = {}

    def label_code(cell: str) -> float:
        return float(class_codes.setdefault(cell, len(class_codes)))

    max_rows = _line_bound(path)
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        header, label_idx, feature_names = _read_header(csv.reader(fh), label_column)
        table = np.loadtxt(
            _screened(fh),
            dtype=float,
            delimiter=",",
            quotechar='"',
            comments=None,
            converters={label_idx: label_code},
            ndmin=2,
            max_rows=max_rows,
        )
    if len(table) in (0, max_rows) or table.shape[1] != len(header) or len(class_codes) != 2:
        return None
    codes = table[:, label_idx].astype(int)
    if (np.bincount(codes) < 2).any():
        return None
    matrix = FeatureMatrix(_read_only(_drop_column(table, label_idx)), feature_names)
    return matrix, LabelVector(codes, tuple(class_codes))


def _line_bound(path: Path) -> int:
    """One more than the line ends of the file (LF, CRLF or lone CR), a
    CRLF split between two reads counted twice: at least its line count.

    Given this as ``max_rows``, ``np.loadtxt`` allocates its table once.
    A table regrown row by row leaves its old copies in the heap (once an
    earlier load's 16 MB table is freed, glibc no longer maps such sizes
    apart), and repeated 100 x 20000 loads peaked at 62 or 74 MB resident
    depending on where those copies fell."""
    lines = 1
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 18):
            codes = np.frombuffer(chunk, np.uint8)
            at = np.flatnonzero(codes <= 13)  # control bytes, few in a CSV
            lf, cr = codes[at] == 10, codes[at] == 13
            crlf = cr[:-1] & lf[1:] & (np.diff(at) == 1)
            lines += np.count_nonzero(lf) + np.count_nonzero(cr) - np.count_nonzero(crlf)
    return int(lines)


def _drop_column(table: np.ndarray, col: int) -> np.ndarray:
    """``table`` without column ``col``, moved left within its own buffer:
    the C-contiguous (n, m) view at the front.  Row r moves to offset r * m;
    in ascending row order a destination never passes its source."""
    n, width = table.shape
    m = width - 1
    flat = table.reshape(-1)
    for r in range(n):
        src, dst = r * width, r * m
        flat[dst : dst + col] = flat[src : src + col]
        flat[dst + col : dst + m] = flat[src + col + 1 : src + width]
    return flat[: n * m].reshape(n, m)


def _load_rows(path: Path, label_column: str | None) -> tuple[FeatureMatrix, LabelVector]:
    """``load_csv`` row by row: each row's cells through ``float`` at once,
    a failing row scanned again cell by cell for its first bad cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header, label_idx, feature_names = _read_header(reader, label_column)
        m = len(feature_names)
        rows: list[np.ndarray] = []
        codes: list[int] = []
        class_codes: dict[str, int] = {}  # label string -> code, by first appearance
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue  # blank line
            if len(record) != len(header):
                raise ParseError(line_no, 1, f"<{len(record)} fields, expected {len(header)}>")
            codes.append(class_codes.setdefault(record[label_idx], len(class_codes)))
            cells = record[:label_idx] + record[label_idx + 1 :]
            try:
                row = np.fromiter(map(float, cells), dtype=float, count=m)
            except ValueError:
                raise _row_error(line_no, record, label_idx) from None
            if not np.isfinite(row).all():
                raise _row_error(line_no, record, label_idx)
            rows.append(row)

    if len(class_codes) != 2:
        raise NotBinaryLabelsError(len(class_codes))
    if (np.bincount(codes) < 2).any():
        raise DataError("each class needs at least 2 samples")
    return FeatureMatrix(_read_only(np.stack(rows)), feature_names), LabelVector(codes, tuple(class_codes))


def _csv_cell(text: str) -> str:
    """``text`` as a csv writer writes it inside a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", text])
    return buffer.getvalue()[1 : -len("\r\n")]


def save_csv(matrix: FeatureMatrix, labels: LabelVector, path, label_name: str = "label") -> None:
    """Write the dataset back to CSV; values use shortest round-trip formatting.

    Header and class names are quoted as ``csv.writer`` quotes them; a
    value's ``repr`` never needs quoting, so value cells are joined as is.
    """
    cells = [_csv_cell(name) for name in labels.class_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(matrix.feature_names) + [label_name])
        for row, code in zip(matrix.values, labels.labels.tolist()):
            fh.write(f"{','.join(map(repr, row.tolist()))},{cells[code]}\r\n")


def stratified_split(labels: LabelVector, test_fraction: float, seed: int) -> SplitPlan:
    """Deterministic stratified holdout split.

    The total test size is round(n * test_fraction).  Per-class test counts
    start from floor(n_c * test_fraction); remaining seats go to classes with
    the largest fractional remainders (ties to the lower class index).
    Membership within a class is a seeded uniform shuffle, so the same
    (labels, fraction, seed) always produces the identical plan.
    """
    test_fraction = _fraction(test_fraction, "test_fraction")
    seed = _count(seed, "seed")
    y = labels.labels
    n = len(y)
    total_test = int(math.floor(n * test_fraction + 0.5))

    class_indices = [np.flatnonzero(y == c) for c in (0, 1)]
    ideals = [len(idx) * test_fraction for idx in class_indices]
    base = [int(math.floor(v)) for v in ideals]
    remainders = [v - b for v, b in zip(ideals, base)]
    seats = total_test - sum(base)
    take = list(base)
    if seats > 0:
        order = sorted(range(2), key=lambda c: (-remainders[c], c))
        for c in order[:seats]:
            take[c] += 1

    for c in (0, 1):
        if take[c] < 1 or take[c] >= len(class_indices[c]):
            raise DegenerateSplitError(
                f"class {c} would get {take[c]} of {len(class_indices[c])} samples in test"
            )

    rng = np.random.default_rng(seed)
    shuffled = [rng.permutation(idx) for idx in class_indices]
    test = np.concatenate([s[:t] for s, t in zip(shuffled, take)])
    train = np.concatenate([s[t:] for s, t in zip(shuffled, take)])
    return SplitPlan(
        train_indices=tuple(np.sort(train).tolist()),
        test_indices=tuple(np.sort(test).tolist()),
    )
