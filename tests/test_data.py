import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from oracles import oracle_save_csv


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


class TestLoadCsv:
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

    def test_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[1.0], [np.inf], [0.0]]), ("a",))

    def test_matrix_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), ("a", "a"))

    def test_labels_need_two_per_class(self):
        with pytest.raises(ValueError):
            LabelVector(np.array([0, 1, 1, 1]), ("a", "b"))

    def test_class_counts(self):
        labels = LabelVector(np.array([0, 1, 0, 1, 1]), ("a", "b"))
        assert labels.class_counts == (2, 3)


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
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                stratified_split(labels, bad, seed=0)
