"""Dataset containers, CSV ingestion, and deterministic stratified splitting.

A dataset is an n-by-m numeric feature matrix plus a binary label vector.
Labels are encoded by first appearance in the file: the first label string
seen becomes class 0, the second becomes class 1.  All containers are
immutable after construction and safe to share across threads.

``load_csv`` parses one whole row per call with ``float`` into a float64
array and checks it with ``isfinite``; only a row that fails is scanned
again cell by cell to report the first bad cell.  Errors therefore come in
the same left-to-right, top-to-bottom order as a cell-by-cell parse, and
no list of Python floats for the whole file is built.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class FeatureMatrix:
    """An n-by-m grid of finite reals; rows are samples, columns are features."""

    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
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
        if not np.isfinite(values).all():
            raise ValueError("all cells must be finite")

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
        labels = np.asarray(self.labels, dtype=int)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        counts = np.bincount(labels, minlength=2)
        if labels.min(initial=0) < 0 or labels.max(initial=0) > 1 or counts.size > 2:
            raise ValueError("labels must be coded 0/1")
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
    test_fraction: float
    seed: int


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

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
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

        m = len(feature_names)
        rows: list[np.ndarray] = []
        label_strings: list[str] = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue  # blank line
            if len(record) != len(header):
                raise ParseError(line_no, 1, f"<{len(record)} fields, expected {len(header)}>")
            label_strings.append(record[label_idx])
            cells = record[:label_idx] + record[label_idx + 1 :]
            try:
                row = np.fromiter(map(float, cells), dtype=float, count=m)
            except ValueError:
                raise _row_error(line_no, record, label_idx) from None
            if not np.isfinite(row).all():
                raise _row_error(line_no, record, label_idx)
            rows.append(row)

    class_names: list[str] = []
    for s in label_strings:
        if s not in class_names:
            class_names.append(s)
    if len(class_names) != 2:
        raise NotBinaryLabelsError(len(class_names))
    codes = np.array([class_names.index(s) for s in label_strings], dtype=int)
    if (np.bincount(codes) < 2).any():
        raise DataError("each class needs at least 2 samples")

    matrix = FeatureMatrix(np.stack(rows), feature_names)
    labels = LabelVector(codes, (class_names[0], class_names[1]))
    return matrix, labels


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
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
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
    test: list[int] = []
    train: list[int] = []
    for c in (0, 1):
        shuffled = rng.permutation(class_indices[c])
        test.extend(int(i) for i in shuffled[: take[c]])
        train.extend(int(i) for i in shuffled[take[c] :])
    return SplitPlan(
        train_indices=tuple(sorted(train)),
        test_indices=tuple(sorted(test)),
        test_fraction=test_fraction,
        seed=seed,
    )
