import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmc_gawar import data
from dmc_gawar.data import (
    DataError,
    DegenerateSplitError,
    FeatureMatrix,
    LabelVector,
    NonFiniteValueError,
    NotBinaryLabelsError,
    ParseError,
    load_csv,
    save_csv,
    stratified_split,
)
from dmc_gawar.synthetic import make_planted, make_xor
from oracles import oracle_load_csv, oracle_save_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


_NAME = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Cf")), max_size=6)


# Names the csv writer must quote: separators, quotes, line breaks, or empty.
_CSV_NAME = st.text(st.sampled_from(list('a ,"\n\r;\'é')), max_size=6)


@st.composite
def datasets(draw, name=_NAME):
    """(matrix, labels): any finite float64 cells; feature and class names
    drawn from ``name``; labels coded in any order, two per class."""
    n = draw(st.integers(4, 12))
    m = draw(st.integers(1, 5))
    values = draw(arrays(float, (n, m), elements=st.floats(allow_nan=False, allow_infinity=False)))
    names = draw(st.lists(name, min_size=m, max_size=m, unique=True))
    class_names = draw(st.lists(name, min_size=2, max_size=2, unique=True))
    codes = draw(arrays(int, n, elements=st.integers(0, 1)))
    codes[:4] = draw(st.permutations([0, 0, 1, 1]))
    return FeatureMatrix(values, names), LabelVector(codes, tuple(class_names))


# Cells that parse as finite reals, padded, quoted or signed; cells that
# do not (or that only ``float`` or only numpy accepts); label strings
# that need quoting, hold line breaks, or differ only by a space.
_GOOD_CELLS = ["0", "-0", "7", "-2.5", "1e5", ".5", "5.", "+1", "1E-400", " 1.5 ", "\t2", '"3.25"', "\x0c4"]
_BAD_CELLS = ["1_0", "\uff11", "nan", "inf", "-Infinity", "1e400", "", "#4", "4#", "abc", "\x1c5", "0x10", ' "1"']
_LABELS = ["a", "b", "c", " a", "", "#", "x,y", 'p"q', "m\nn", "r\r\ns", "e\rf"]
_HEADER_NAME = st.text(st.sampled_from(list('ab ,"\n\r#\u00e9')), max_size=4)


def _field(text, quote):
    """``text`` as one CSV field, quoted when it must be or when asked."""
    if quote or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    """(file text, label_column): a header with the label column anywhere,
    0-8 rows, LF, CRLF, lone-CR or mixed line ends, blank lines and a BOM;
    at most one fault: a whitespace-only line, a cell that ``float`` and
    numpy parse apart or that is not a finite real, one ragged row, or
    every row with the same extra or missing field."""
    m = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, m))
    names = draw(st.lists(_HEADER_NAME, min_size=m + 1, max_size=m + 1, unique=True))
    classes = draw(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=2, unique=True))
    if draw(st.integers(0, 5)) == 0:
        classes.append(draw(st.sampled_from(_LABELS)))
    n = draw(st.integers(0, 8) | st.integers(4, 8))
    codes = draw(st.lists(st.integers(0, len(classes) - 1), min_size=n, max_size=n))
    codes[:4] = draw(st.permutations([0, 0, 1, 1]))[:n]
    good = st.sampled_from(_GOOD_CELLS) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cells = [[draw(good) for _ in range(m)] for _ in range(n)]
    fault = draw(st.sampled_from([None] * 4 + ["cell"] * 2 + ["space line", "ragged", "extra", "short"]))
    if fault == "cell" and n:
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(st.sampled_from(_BAD_CELLS))
    lines = [",".join(_field(name, draw(st.booleans())) for name in names)]
    for row, code in zip(cells, codes):
        row.insert(label_idx, _field(classes[code], draw(st.booleans())))
        lines.append(",".join(row))
    if fault == "ragged" and n:
        at = draw(st.integers(1, n))
        lines[at] = lines[at] + ",1" if draw(st.booleans()) else lines[at].rpartition(",")[0]
    elif fault == "extra":
        lines[1:] = [line + ",1" for line in lines[1:]]
    elif fault == "short":
        lines[1:] = [line.rpartition(",")[0] for line in lines[1:]]
    for blank in [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from([" ", "\t "]))] * (fault == "space line"):
        lines.insert(draw(st.integers(1, len(lines))), blank)
    ends = ["\n", "\r\n", "\r"]
    style = draw(st.sampled_from(ends + ["mixed"]))
    text = "".join(line + (draw(st.sampled_from(ends)) if style == "mixed" else style) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    label_column = None if label_idx == m and draw(st.booleans()) else names[label_idx]
    return text, label_column


def _summary(matrix, labels):
    """(values bytes, feature names, labels, class names) of a dataset."""
    return matrix.values.tobytes(), matrix.feature_names, labels.labels.tolist(), labels.class_names


def _outcome(load, path, label_column):
    """``_summary`` of what ``load`` returns, or (error class, message)."""
    try:
        return _summary(*load(path, label_column))
    except Exception as exc:
        return type(exc), str(exc)


class TestLoadCsv:
    @settings(max_examples=400)
    @given(csv_files())
    def test_load_equals_row_reader(self, tmp_path_factory, case):
        """``load_csv`` returns what the row-by-row reader returns, bit for
        bit, or raises the same error with the same message; the one-pass
        parse, when it returns at all, returns the reader's dataset."""
        text, label_column = case
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(oracle_load_csv, path, label_column)
        assert _outcome(load_csv, path, label_column) == want
        assert data._line_bound(path) >= len(io.StringIO(text, newline="").readlines())
        try:
            table = data._load_table(path, label_column)
        except Exception:
            return
        if table is not None:
            assert _summary(*table) == want

    def test_one_pass_reads_quotes_line_ends_and_hashes(self, tmp_path, monkeypatch):
        """A quoted name, a label column in the middle holding a CRLF, lone-CR
        rows and a cell after a ``#`` take the one-pass parse; a cell that
        only ``float`` reads (``1_0``, a full-width digit) or only numpy
        reads (an ASCII separator as padding) goes to the row reader."""

        def row_reader(path, label_column):
            raise AssertionError("row reader used")

        monkeypatch.setattr(data, "_load_rows", row_reader)
        text = '"x,1",l,y\r1,"a\r\nb",2\r3,c#,4\r5,"a\r\nb",6\r7,c#,8\r'
        matrix, labels = load_csv(write(tmp_path / "d.csv", text), label_column="l")
        assert matrix.feature_names == ("x,1", "y")
        assert matrix.values.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert labels.class_names == ("a\r\nb", "c#")
        for cell in ("1_0", "\x1c7", "\uff17"):
            with pytest.raises(AssertionError, match="row reader used"):
                load_csv(write(tmp_path / "e.csv", text.replace("7,", cell + ",")), label_column="l")

    def test_rows_past_the_line_bound_go_to_the_row_reader(self, tmp_path, monkeypatch):
        """A file that holds as many rows as its counted bound changed after
        it was counted: the row reader reads it whole, no row is dropped."""
        monkeypatch.setattr(data, "_line_bound", lambda path: 5)
        path = write(tmp_path / "d.csv", "x,l\n" + "".join(f"{i},{'aabb'[i % 4]}\n" for i in range(8)))
        assert data._load_table(path, None) is None
        matrix, labels = load_csv(path)
        assert matrix.values[:, 0].tolist() == list(range(8))

    def test_round_trip(self, tmp_path):
        values = np.array([[1.5, -2.25], [0.1, 3.0], [7.0, 0.0], [2.0, 1.0]])
        matrix = FeatureMatrix(values, ("a", "b"))
        labels = LabelVector(np.array([0, 1, 0, 1]), ("healthy", "tumor"))
        save_csv(matrix, labels, tmp_path / "d.csv")
        loaded_matrix, loaded_labels = load_csv(tmp_path / "d.csv")
        assert np.array_equal(loaded_matrix.values, values)
        assert loaded_matrix.feature_names == ("a", "b")
        assert np.array_equal(loaded_labels.labels, labels.labels)
        assert loaded_labels.class_names == ("healthy", "tumor")

    def test_first_appearance_defines_class_zero(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y\n1,tumor\n2,healthy\n3,tumor\n4,healthy\n")
        _, labels = load_csv(path)
        assert labels.class_names == ("tumor", "healthy")
        assert labels.labels.tolist() == [0, 1, 0, 1]

    def test_label_column_by_name(self, tmp_path):
        path = write(tmp_path / "d.csv", "y,x\na,1\nb,2\na,3\nb,4\n")
        matrix, labels = load_csv(path, label_column="y")
        assert matrix.feature_names == ("x",)
        assert matrix.values[:, 0].tolist() == [1, 2, 3, 4]
        assert labels.labels.tolist() == [0, 1, 0, 1]

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y\n1,a\n2,b\n3,a\n4,b\n")
        with pytest.raises(DataError):
            load_csv(path, label_column="nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_parse_error_reports_position(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,l\n1,2,a\n3,oops,b\n5,6,a\n7,8,b\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 3
        assert info.value.col == 2

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,l\nnan,a\n2,b\n3,a\n4,b\n")
        with pytest.raises(NonFiniteValueError) as info:
            load_csv(path)
        assert (info.value.row, info.value.col) == (2, 1)
        path = write(tmp_path / "e.csv", "x,l\n1,a\ninf,b\n3,a\n4,b\n")
        with pytest.raises(NonFiniteValueError):
            load_csv(path)

    def test_three_classes_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,l\n1,a\n2,b\n3,c\n4,a\n")
        with pytest.raises(NotBinaryLabelsError) as info:
            load_csv(path)
        assert info.value.n_classes == 3

    def test_one_class_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,l\n1,a\n2,a\n3,a\n")
        with pytest.raises(NotBinaryLabelsError):
            load_csv(path)

    def test_first_bad_cell_of_a_row_wins(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,z,l\n1,2,3,a\n4,inf,abc,b\n5,6,7,a\n8,9,0,b\n")
        with pytest.raises(NonFiniteValueError) as info:
            load_csv(path)
        assert (info.value.row, info.value.col) == (3, 2)
        path = write(tmp_path / "e.csv", "x,y,z,l\n1,2,3,a\n4,abc,inf,b\n5,6,7,a\n8,9,0,b\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert (info.value.row, info.value.col, info.value.token) == (3, 2, "abc")

    def test_first_bad_row_wins(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,l\n1,nan,a\n3,oops,b\n5,6,a\n7,8,b\n")
        with pytest.raises(NonFiniteValueError) as info:
            load_csv(path)
        assert (info.value.row, info.value.col) == (2, 2)

    def test_errors_count_the_label_column_in_the_middle(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,l,y\n1,a,2\n3,b,-inf\n5,a,6\n7,b,8\n")
        with pytest.raises(NonFiniteValueError) as info:
            load_csv(path, label_column="l")
        assert (info.value.row, info.value.col) == (3, 3)
        path = write(tmp_path / "e.csv", "x,l,y\n1,a,2\n3,b,4\n5,a,six\n7,b,8\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, label_column="l")
        assert (info.value.row, info.value.col, info.value.token) == (4, 3, "six")
        path = write(tmp_path / "f.csv", "x,l,y\n1,a,2\n3,b,4\n5,a,6\n7,b,8\n")
        matrix, labels = load_csv(path, label_column="l")
        assert matrix.values.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        assert matrix.feature_names == ("x", "y")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("\ufefff0,f1,l\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n".encode("utf-8"))
        matrix, _ = load_csv(path)
        assert matrix.feature_names == ("f0", "f1")

    @given(datasets())
    def test_save_load_round_trip(self, tmp_path_factory, dataset):
        matrix, labels = dataset
        path = tmp_path_factory.mktemp("round") / "d.csv"
        save_csv(matrix, labels, path)
        loaded_matrix, loaded_labels = load_csv(path)
        assert np.array_equal(loaded_matrix.values, matrix.values)
        assert loaded_matrix.feature_names == matrix.feature_names
        decoded = [loaded_labels.class_names[c] for c in loaded_labels.labels]
        assert decoded == [labels.class_names[c] for c in labels.labels]

    @given(datasets(_CSV_NAME))
    def test_save_writes_the_bytes_of_the_csv_writer(self, tmp_path_factory, dataset):
        matrix, labels = dataset
        folder = tmp_path_factory.mktemp("bytes")
        save_csv(matrix, labels, folder / "fast.csv", label_name='the "label", as\nwritten')
        oracle_save_csv(matrix, labels, folder / "slow.csv", label_name='the "label", as\nwritten')
        assert (folder / "fast.csv").read_bytes() == (folder / "slow.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(30, 3000), (3000, 5)])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_pass_drops_the_label_column_in_place(self, tmp_path, shape, where):
        """On a wide and a tall table, with the quoted label column first,
        in the middle or last, the one-pass parse returns the row reader's
        dataset bit for bit as a C-contiguous view of its own table; a
        non-finite cell still goes to the row reader, which names it."""
        n, m = shape
        values = np.random.default_rng(n).standard_normal((n, m))
        col = {"first": 0, "middle": m // 2, "last": m}[where]
        rows = [[f"f{j}" for j in range(m)]] + [list(map(repr, row)) for row in values.tolist()]
        for i, row in enumerate(rows):
            row.insert(col, "label" if i == 0 else f'"class, {i % 2}"')
        path = write(tmp_path / "d.csv", "".join(",".join(row) + "\n" for row in rows))
        matrix, labels = data._load_table(path, "label")
        assert matrix.values.flags.c_contiguous and matrix.values.base is not None
        assert matrix.values.tobytes() == values.tobytes()
        assert _summary(matrix, labels) == _summary(*data._load_rows(path, "label"))
        assert labels.class_names == ("class, 1", "class, 0")
        bad = m if col < m else m - 1  # a feature cell after the label where there is one
        rows[5][bad] = "-inf"
        path = write(tmp_path / "e.csv", "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(NonFiniteValueError) as info:
            load_csv(path, "label")
        assert (info.value.row, info.value.col) == (6, bad + 1)

    def test_load_holds_one_copy_of_the_data(self, tmp_path):
        """``load_csv``'s traced peak stays under twice the matrix it
        returns.  On 40 x 5000 it is 1.66 times the matrix; a second copy
        without the label column (``np.delete``) made it 2.66 times."""
        values = np.round(np.random.default_rng(0).standard_normal((40, 5000)), 6)
        matrix = FeatureMatrix(values, [f"f{j}" for j in range(5000)])
        save_csv(matrix, LabelVector(np.arange(40) % 2, ("a", "b")), tmp_path / "d.csv")
        load_csv(tmp_path / "d.csv")  # any first-call imports
        tracemalloc.start()
        try:
            loaded, _ = load_csv(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.values.tobytes() == values.tobytes()
        assert peak < 2.0 * loaded.values.nbytes

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,l\n1,2,a\n3,b\n5,6,a\n7,8,b\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert info.value.row == 3


class TestContainers:
    def test_matrix_is_read_only(self):
        matrix = FeatureMatrix(np.zeros((3, 2)), ("a", "b"))
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 1.0

    def test_matrix_leaves_the_callers_array_writeable(self):
        x = np.zeros((3, 2))
        matrix = FeatureMatrix(x, ("a", "b"))
        x[0, 0] = 1.0
        assert matrix.values[0, 0] == 0.0

    def test_matrix_holds_a_read_only_array_as_it_is(self):
        x = np.zeros((3, 2))
        x.flags.writeable = False
        assert FeatureMatrix(x, ("a", "b")).values is x

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^values must hold only finite values$"):
            FeatureMatrix(np.array([[1.0], [bad], [0.0]]), ("a",))

    def test_matrix_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), ("a", "a"))

    def test_labels_need_two_per_class(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([0, 1, 1, 1]), ("a", "b"))

    def test_class_counts(self):
        labels = LabelVector(np.array([0, 1, 0, 1, 1]), ("a", "b"))
        assert labels.class_counts == (2, 3)

    @pytest.mark.parametrize(
        "codes", [[0.5, 1, 0, 1, 0, 1, 0.9, 1], [0, 1, 0, 1, 2], [0, 1, 0, 1, -1], ["0", "1", "0", "1"]]
    )
    def test_labels_other_than_zero_or_one_are_rejected(self, codes):
        with pytest.raises(ValueError, match="labels must be coded 0/1"):
            LabelVector(np.array(codes), ("a", "b"))

    def test_whole_float_and_bool_codes_are_accepted(self):
        assert LabelVector(np.array([0.0, 1.0, 0.0, 1.0]), ("a", "b")).labels.tolist() == [0, 1, 0, 1]
        assert LabelVector([False, True, False, True], ("a", "b")).labels.tolist() == [0, 1, 0, 1]


@st.composite
def split_requests(draw):
    """(labels, test fraction, seed): two classes of 2-40 rows each, in
    any row order."""
    counts = draw(st.tuples(st.integers(2, 40), st.integers(2, 40)))
    codes = np.repeat([0, 1], counts)
    codes = codes[draw(st.permutations(range(len(codes))))]
    fraction = draw(st.floats(0.05, 0.95))
    seed = draw(st.integers(0, 2**32 - 1))
    return LabelVector(codes, ("a", "b")), fraction, seed


def documented_test_counts(labels, fraction):
    """Per-class test counts by the rule in ``stratified_split``'s
    docstring: floors of n_c * fraction, then the seats left of
    round(n * fraction) to the larger remainders, ties to class 0."""
    n_c = labels.class_counts
    ideals = [count * fraction for count in n_c]
    take = [math.floor(ideal) for ideal in ideals]
    seats = math.floor(len(labels) * fraction + 0.5) - sum(take)
    for c in sorted((0, 1), key=lambda c: (take[c] - ideals[c], c))[: max(seats, 0)]:
        take[c] += 1
    return take


class TestStratifiedSplit:
    @given(split_requests())
    def test_plan_invariants(self, split):
        labels, fraction, seed = split
        take = documented_test_counts(labels, fraction)
        if any(t < 1 or t >= count for t, count in zip(take, labels.class_counts)):
            with pytest.raises(DegenerateSplitError):
                stratified_split(labels, fraction, seed)
            return
        plan = stratified_split(labels, fraction, seed)
        train, test = set(plan.train_indices), set(plan.test_indices)
        assert train.isdisjoint(test)
        assert train | test == set(range(len(labels)))
        test_counts = np.bincount(labels.labels[list(plan.test_indices)], minlength=2)
        assert test_counts.tolist() == take
        assert stratified_split(labels, fraction, seed) == plan

    def test_imbalanced_sizes(self):
        labels = LabelVector(np.concatenate([np.zeros(22, int), np.ones(40, int)]), ("a", "b"))
        plan = stratified_split(labels, 0.2, seed=5)
        test = np.array(plan.test_indices)
        assert len(test) == 12
        counts = np.bincount(labels.labels[test], minlength=2)
        assert counts.tolist() == [4, 8]

    def test_partition(self):
        labels = LabelVector(np.array([0, 1] * 10), ("a", "b"))
        plan = stratified_split(labels, 0.25, seed=3)
        train, test = set(plan.train_indices), set(plan.test_indices)
        assert train.isdisjoint(test)
        assert train | test == set(range(20))
        assert plan.train_indices == tuple(sorted(plan.train_indices))
        assert plan.test_indices == tuple(sorted(plan.test_indices))

    def test_largest_remainder_prefers_bigger_fraction(self):
        # n0=7, n1=5, fraction 0.25: total 3, ideals 1.75/1.25, spare seat
        # goes to class 0
        labels = LabelVector(np.concatenate([np.zeros(7, int), np.ones(5, int)]), ("a", "b"))
        plan = stratified_split(labels, 0.25, seed=0)
        counts = np.bincount(labels.labels[np.array(plan.test_indices)], minlength=2)
        assert counts.tolist() == [2, 1]

    def test_remainder_tie_goes_to_class_zero(self):
        # n0=n1=6, fraction 0.25: total 3, ideals 1.5/1.5, class 0 wins the tie
        labels = LabelVector(np.concatenate([np.zeros(6, int), np.ones(6, int)]), ("a", "b"))
        plan = stratified_split(labels, 0.25, seed=0)
        counts = np.bincount(labels.labels[np.array(plan.test_indices)], minlength=2)
        assert counts.tolist() == [2, 1]

    def test_deterministic(self):
        labels = LabelVector(np.concatenate([np.zeros(9, int), np.ones(13, int)]), ("a", "b"))
        assert stratified_split(labels, 0.3, seed=11) == stratified_split(labels, 0.3, seed=11)

    def test_seed_changes_membership(self):
        labels = LabelVector(np.concatenate([np.zeros(30, int), np.ones(30, int)]), ("a", "b"))
        plans = {stratified_split(labels, 0.2, seed=s).test_indices for s in range(5)}
        assert len(plans) > 1

    def test_degenerate_split_rejected(self):
        labels = LabelVector(np.array([0, 0, 1, 1]), ("a", "b"))
        with pytest.raises(DegenerateSplitError):
            stratified_split(labels, 0.05, seed=0)  # a class would get 0 test rows
        with pytest.raises(DegenerateSplitError):
            stratified_split(labels, 0.95, seed=0)  # a class would get 0 train rows

    def test_fraction_bounds(self):
        labels = LabelVector(np.array([0, 0, 1, 1]), ("a", "b"))
        for bad in (0.0, 1.0, -0.1, 1.5, 10**400):
            with pytest.raises(ValueError, match=r"^test_fraction must be in \(0, 1\)$"):
                stratified_split(labels, bad, seed=0)
        for bad in (True, "0.2"):  # not read as 1.0, nor parsed
            with pytest.raises(ValueError, match=f"^test_fraction must be a number, got {bad!r}$"):
                stratified_split(labels, bad, seed=0)
        for seed, message in ((True, "an integer, got True"), (2.5, "an integer, got 2.5"), (-1, "at least 0")):
            with pytest.raises(ValueError, match=f"^seed must be {message}$"):
                stratified_split(labels, 0.5, seed)


class TestSyntheticBuilders:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_planted(5, 5, 6, 2, 1.0, seed=True), "seed must be an integer, got True"),
            (lambda: make_planted(5, 5, 6, 2, 1.0, seed=2.5), "seed must be an integer, got 2.5"),
            (lambda: make_planted(5, 5, 6, 2, 1.0, seed=-1), "seed must be at least 0"),
            (lambda: make_planted(5.0, 5, 6, 2, 1.0, seed=1), "n_class0 must be an integer, got 5.0"),
            (lambda: make_planted(5, True, 6, 2, 1.0, seed=1), "n_class1 must be an integer, got True"),
            (lambda: make_planted(5, 5, 6.0, 2, 1.0, seed=1), "m must be an integer, got 6.0"),
            (lambda: make_planted(5, 5, 6, 2.0, 1.0, seed=1), "n_informative must be an integer, got 2.0"),
            (lambda: make_planted(5, 5, 6, True, 1.0, seed=1), "n_informative must be an integer, got True"),
            (lambda: make_planted(5, 5, 6, 2.5, 1.0, seed=1), "n_informative must be in 1..m"),
            (lambda: make_xor(reps=True), "reps must be an integer, got True"),
            (lambda: make_xor(reps=2.0), "reps must be an integer, got 2.0"),
        ],
    )
    def test_counts_and_seeds_are_checked_not_coerced(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_range_messages(self):
        for n_informative in (0, 7):
            with pytest.raises(ValueError, match=r"^n_informative must be in 1\.\.m$"):
                make_planted(5, 5, 6, n_informative, 1.0, seed=1)
        with pytest.raises(ValueError, match="^reps must be at least 1$"):
            make_xor(0)
