import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmc_gawar import classifier
from dmc_gawar.classifier import (
    _BLOCK,
    ClassificationMetrics,
    confusion_counts,
    evaluate_subset,
    fit_tree,
    mean_metrics,
    predict,
)
from dmc_gawar.data import FeatureMatrix, LabelVector, stratified_split
from dmc_gawar.synthetic import make_planted, make_xor
from conftest import random_dataset
from oracles import oracle_fit_tree, oracle_metrics, oracle_predict, oracle_weighted_gini


def tie_heavy_arrays(rng, n, m, top):
    """(x, y): small-integer columns (0..top) with duplicate rows, some
    columns without ties and some constant columns."""
    x = rng.integers(0, top + 1, size=(n, m)).astype(float)
    for source, target in rng.integers(0, n, size=(rng.integers(0, n + 1), 2)):
        x[target] = x[source]
    for column in np.flatnonzero(rng.random(m) < 0.3):
        x[:, column] = rng.permutation(n)  # no ties in this column
    for column in np.flatnonzero(rng.random(m) < 0.2):
        x[:, column] = x[0, column]
    y = (rng.random(n) < rng.random()).astype(int)
    return x, y


@st.composite
def tie_heavy_problems(draw):
    """(x, y, queries) of ``tie_heavy_arrays``; queries add the
    half-integers thresholds land on.  Hypothesis draws the shape, the
    value range and a seed, numpy fills the arrays."""
    n = draw(st.integers(2, 120))
    m = draw(st.integers(1, 12))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = tie_heavy_arrays(rng, n, m, top)
    queries = rng.integers(-1, 2 * top + 2, size=(rng.integers(0, 21), m)) / 2
    return x, y, queries


@st.composite
def evaluation_problems(draw):
    """(matrix, labels, features, n_splits, test fraction, base seed,
    block) on ``tie_heavy_arrays`` data.  With at least 5 rows per class,
    every fraction puts 1 to n_c - 1 rows of each class in test."""
    n = draw(st.integers(10, 120))
    m = draw(st.integers(1, 12))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = tie_heavy_arrays(rng, n, m, top)
    y[:10] = [0, 1] * 5
    features = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    n_splits = draw(st.integers(1, 6))
    test_fraction = draw(st.sampled_from([0.2, 0.25, 1 / 3, 0.5]))
    base_seed = draw(st.integers(0, 1000))
    block = draw(st.sampled_from([1, 2, 3, 5]))
    matrix = FeatureMatrix(x, tuple(f"f{j}" for j in range(m)))
    labels = LabelVector(y, ("a", "b"))
    return matrix, labels, np.array(features), n_splits, test_fraction, base_seed, block


class TestTree:
    def test_simple_threshold(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(x, y)
        assert tree.feature == 0
        assert tree.threshold == 2.5
        assert tree.left.prediction == 0
        assert tree.right.prediction == 1

    def test_predict_sends_threshold_value_left(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree = fit_tree(x, np.array([0, 0, 1, 1]))
        assert predict(tree, np.array([[2.5]]))[0] == 0
        assert predict(tree, np.array([[2.5000001]]))[0] == 1

    def test_pure_node_is_leaf(self):
        tree = fit_tree(np.array([[1.0], [2.0]]), np.array([1, 1]))
        assert tree.is_leaf
        assert tree.prediction == 1

    def test_constant_features_majority_leaf(self):
        tree = fit_tree(np.ones((5, 2)), np.array([0, 1, 1, 1, 0]))
        assert tree.is_leaf
        assert tree.prediction == 1

    def test_majority_tie_predicts_class_zero(self):
        tree = fit_tree(np.ones((4, 1)), np.array([0, 1, 0, 1]))
        assert tree.is_leaf
        assert tree.prediction == 0

    def test_parity_needs_zero_gain_root_split(self):
        # no single split of the corner set has positive gain, yet the tree
        # must still open the root and classify all corners at depth two
        ds = make_xor(2)
        tree = fit_tree(ds.matrix.values, ds.labels.labels)
        assert not tree.is_leaf
        assert np.array_equal(predict(tree, ds.matrix.values), ds.labels.labels)

    def test_equal_gain_prefers_earlier_column(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        tree = fit_tree(x, np.array([0, 0, 1, 1]))
        assert tree.feature == 0

    def test_equal_gain_prefers_lower_threshold(self):
        # both gaps around the lone positive give the same weighted Gini
        x = np.array([[1.0], [2.0], [3.0]])
        tree = fit_tree(x, np.array([0, 1, 0]))
        assert tree.threshold == 1.5

    def test_perfect_fit_on_distinct_rows(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 5))
            y = (rng.random(40) < 0.5).astype(int)
            tree = fit_tree(x, y)
            assert np.array_equal(predict(tree, x), y)

    @pytest.mark.parametrize(
        "below, above",
        [(1 + 2**-52, 1 + 2**-51), (1e308, 1.5e308), (-1.5e308, -1e308)],
        ids=["midpoint-rounds-up", "overflow", "negative-overflow"],
    )
    def test_unrepresentable_midpoint_splits_at_lower_value(self, below, above):
        # (below + above) / 2 is not strictly below `above`; the tree must
        # still split the two rows instead of recursing on the same node
        x = np.array([[below], [above]])
        y = np.array([0, 1])
        tree = fit_tree(x, y)
        assert tree.threshold == below
        assert tree == oracle_fit_tree(x, y)
        assert np.array_equal(predict(tree, x), y)

    @given(tie_heavy_problems())
    def test_matches_oracle_on_tie_heavy_inputs(self, problem):
        x, y, queries = problem
        # fits of up to 40 rows read the Gini table, larger ones the formula;
        # blocks of 3 columns put most fits over more than one block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", 40)
            patch.setattr(classifier, "_BLOCK", 3)
            tree = fit_tree(x, y)
        assert tree == oracle_fit_tree(x, y)
        for rows in (x, queries):
            assert np.array_equal(predict(tree, rows), oracle_predict(tree, rows))

    @staticmethod
    def assert_table_is_bit_identical(root, n, ones, left_n, left_ones):
        """Weighted Ginis read from the table of a `root`-row fit, indexed as
        ``_node_split`` does, equal the integer-count formula bit for bit."""
        terms = classifier._table_for(root)
        stride = root + 1
        left = left_n * stride + left_ones
        from_table = (terms[left] + terms[n * stride + ones - left]) / n
        want = oracle_weighted_gini(left_n, left_ones, n, ones)
        assert np.array_equal(from_table.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("root", [2, 3, 17, 64])
    def test_gini_table_matches_formula_on_every_cut(self, root):
        # every (node size, node ones, left size, left ones) the fit can meet
        cases = np.array([
            (n, ones, left_n, left_ones)
            for n in range(2, root + 1)
            for ones in range(n + 1)
            for left_n in range(1, n)
            for left_ones in range(max(0, ones - (n - left_n)), min(left_n, ones) + 1)
        ]).T
        self.assert_table_is_bit_identical(root, *cases)

    def test_gini_table_matches_formula_at_the_row_bound(self):
        root = classifier.GINI_TABLE_MAX_ROWS
        rng = np.random.default_rng(5)
        n = rng.integers(2, root + 1, size=200_000)
        ones = rng.integers(0, n + 1)
        left_n = rng.integers(1, n)
        left_ones = rng.integers(np.maximum(0, ones - (n - left_n)), np.minimum(left_n, ones) + 1)
        self.assert_table_is_bit_identical(root, n, ones, left_n, left_ones)

    def test_only_fits_within_the_row_bound_build_a_table(self):
        classifier._table_for.cache_clear()
        rng = np.random.default_rng(3)
        tall = classifier.GINI_TABLE_MAX_ROWS + 1
        fit_tree(rng.standard_normal((tall, 2)), np.arange(tall) % 2)
        assert classifier._table_for.cache_info().currsize == 0
        fit_tree(rng.standard_normal((30, 2)), np.arange(30) % 2)
        built = classifier._table_for.cache_info()
        assert built.currsize == 1
        assert classifier._table_for(30).shape == (31 * 31,)
        assert classifier._table_for.cache_info().hits == built.hits + 1  # the 30-row table

    def test_ranks_wider_than_a_byte_keep_their_gaps(self):
        # Column 1 holds 600 distinct values; only those 265-274 are class
        # 1.  The root splits on column 0, isolating the rows valued 0-9 or
        # 265-274; their pure cut lies between values 9 and 265, whose
        # ranks differ by exactly 256.
        b = np.arange(600.0)
        in_group = (b <= 9) | ((b >= 265) & (b <= 274))
        x = np.column_stack([(~in_group).astype(float), b])
        y = (in_group & (b >= 265)).astype(int)
        tree = fit_tree(x, y)
        assert tree == oracle_fit_tree(x, y)
        assert tree.left.threshold == 137.0

    def test_deep_tree_grows_without_recursion(self):
        # alternating labels on distinct values need a cut between every
        # pair of rows; one Python frame per level would exceed the limit
        n = 2400
        x = np.arange(n, dtype=float)[:, None]
        y = np.arange(n) % 2
        tree = fit_tree(x, y)
        assert np.array_equal(predict(tree, x), y)
        assert np.array_equal(predict(tree, x + 0.25), y)

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            fit_tree(np.zeros((3, 1)), np.array([0, 2, 1]))

    def test_equal_columns_across_blocks_prefer_earlier_block(self):
        rng = np.random.default_rng(11)
        y = np.tile([0, 1], 20)
        x = rng.integers(0, 3, size=(40, _BLOCK + 60)).astype(float)
        separator = y * 2.0 + rng.integers(0, 2, size=40)  # 0/1 vs 2/3
        x[:, 0] = separator
        x[:, _BLOCK + 44] = separator
        tree = fit_tree(x, y)
        assert tree.feature == 0
        assert tree.threshold == 1.5
        assert tree == oracle_fit_tree(x, y)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            fit_tree(np.zeros((4, 2)), np.zeros(3, dtype=int))


class TestMetrics:
    def test_worked_counts(self):
        metrics = ClassificationMetrics.from_counts(3, 5, 1, 1)
        assert metrics.overall == pytest.approx(0.8)
        assert metrics.recall == pytest.approx(0.75)
        assert metrics.specificity == pytest.approx(5 / 6)
        assert metrics.balanced == pytest.approx((0.75 + 5 / 6) / 2)
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.f_measure == pytest.approx(0.75)
        assert metrics.mcc == pytest.approx(14 / 24)

    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
            got = ClassificationMetrics.from_counts(tp, tn, fp, fn).as_dict()
            want = oracle_metrics(tp, tn, fp, fn)
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-12), key

    def test_counts_and_scores_match_oracle_exhaustively(self):
        # every (TP, TN, FP, FN) with at most 13 cases, as label vectors
        for total in range(1, 14):
            for tp in range(total + 1):
                for tn in range(total - tp + 1):
                    for fp in range(total - tp - tn + 1):
                        fn = total - tp - tn - fp
                        y_true = np.array([1] * tp + [0] * tn + [0] * fp + [1] * fn)
                        y_pred = np.array([1] * tp + [0] * tn + [1] * fp + [0] * fn)
                        counts = confusion_counts(y_true, y_pred)
                        assert counts == (tp, tn, fp, fn)
                        got = ClassificationMetrics.from_counts(*counts).as_dict()
                        assert got == oracle_metrics(tp, tn, fp, fn), counts

    def test_zero_denominators_collapse_to_zero(self):
        metrics = ClassificationMetrics.from_counts(0, 5, 0, 0)
        assert metrics.recall == 0.0
        assert metrics.precision == 0.0
        assert metrics.f_measure == 0.0
        assert metrics.mcc == 0.0
        assert metrics.overall == 1.0

    def test_confusion_counts(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1])
        assert confusion_counts(y_true, y_pred) == (3, 5, 1, 1)

    @pytest.mark.parametrize(
        "y_true, y_pred",
        [([0, 1], [2, 1]), ([1, 0], [-1, 0]), ([3, 0], [1, 0]), ([0, -2], [0, 0])],
    )
    def test_confusion_counts_reject_values_other_than_zero_and_one(self, y_true, y_pred):
        with pytest.raises(ValueError, match="0/1"):
            confusion_counts(np.array(y_true), np.array(y_pred))

    def test_mean_metrics(self):
        splits = [
            ClassificationMetrics.from_counts(3, 5, 1, 1),
            ClassificationMetrics.from_counts(4, 4, 2, 0),
        ]
        averaged = mean_metrics(splits)
        assert averaged["overall"] == pytest.approx((0.8 + 0.8) / 2)
        assert averaged["recall"] == pytest.approx((0.75 + 1.0) / 2)


class TestEvaluate:
    @given(evaluation_problems())
    def test_matches_per_split_oracle_trees(self, problem):
        matrix, labels, features, n_splits, test_fraction, base_seed, block = problem
        x, y = matrix.values[:, features], labels.labels
        want = []
        for k in range(n_splits):
            plan = stratified_split(labels, test_fraction, base_seed + k)
            train, test = list(plan.train_indices), list(plan.test_indices)
            predicted = oracle_predict(oracle_fit_tree(x[train], y[train]), x[test])
            want.append(ClassificationMetrics.from_counts(*confusion_counts(y[test], predicted)))
        # blocks of 1-5 (column, split) pairs: groups hold fewer splits than
        # n_splits, and wide subsets score their columns over several blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", 40)
            patch.setattr(classifier, "_BLOCK", block)
            mean_overall, per_split = evaluate_subset(
                matrix, labels, features, n_splits, test_fraction, base_seed
            )
        assert per_split == want
        assert mean_overall == float(np.mean([m.overall for m in want]))

    def test_deterministic(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=2)
        features = np.arange(20)
        first = evaluate_subset(ds.matrix, ds.labels, features, n_splits=4, base_seed=7)
        second = evaluate_subset(ds.matrix, ds.labels, features, n_splits=4, base_seed=7)
        assert first[0] == second[0]
        assert [m.as_dict() for m in first[1]] == [m.as_dict() for m in second[1]]

    def test_mean_is_mean_of_splits(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=3)
        mean_overall, per_split = evaluate_subset(
            ds.matrix, ds.labels, np.arange(20), n_splits=5, base_seed=1
        )
        assert mean_overall == pytest.approx(np.mean([m.overall for m in per_split]))
        assert len(per_split) == 5

    def test_split_seeds_are_offsets(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=4)
        features = np.arange(20)
        _, per_split = evaluate_subset(ds.matrix, ds.labels, features, n_splits=3, base_seed=10)
        solo = evaluate_subset(ds.matrix, ds.labels, features, n_splits=1, base_seed=12)[1][0]
        assert per_split[2].as_dict() == solo.as_dict()

    def test_informative_subset_beats_noise_subset(self):
        ds = make_planted(20, 25, 30, 4, 2.5, seed=5)
        informative = np.array(ds.informative)
        noise = np.array(sorted(set(range(30)) - set(ds.informative))[: len(informative)])
        good, _ = evaluate_subset(ds.matrix, ds.labels, informative, n_splits=6, base_seed=0)
        bad, _ = evaluate_subset(ds.matrix, ds.labels, noise, n_splits=6, base_seed=0)
        assert good > bad

    def test_split_plans_are_built_once_per_setting(self, monkeypatch):
        ds = make_planted(13, 16, 12, 3, 1.5, seed=8)
        built = []

        def counting_split(labels, test_fraction, seed):
            built.append(seed)
            return stratified_split(labels, test_fraction, seed)

        monkeypatch.setattr(classifier, "stratified_split", counting_split)
        monkeypatch.setattr(classifier, "_plan_memo", {})
        evaluate_subset(ds.matrix, ds.labels, np.arange(12), n_splits=4, base_seed=3)
        _, again = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=4, base_seed=3)
        _, shifted = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=4, base_seed=4)
        solo = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=1, base_seed=5)[1][0]
        assert built == [3, 4, 5, 6, 7]
        assert again[2].as_dict() == shifted[1].as_dict() == solo.as_dict()

    def test_split_plan_memo_is_bounded(self):
        matrix, labels = random_dataset(6, 6, 2, seed=1)
        for seed in range(classifier._PLAN_MEMO_SIZE + 20):
            evaluate_subset(
                matrix, labels, np.arange(2), n_splits=1, test_fraction=0.25, base_seed=seed
            )
        assert len(classifier._plan_memo) <= classifier._PLAN_MEMO_SIZE

    def test_test_value_on_a_threshold_goes_left(self):
        # train rows sit at 0 (class 0) and 2 (class 1), so the root splits
        # at 1.0; every test row sits exactly on it and is predicted 0
        labels = LabelVector(np.array([0, 1] * 10), ("a", "b"))
        plan = stratified_split(labels, 0.25, seed=3)
        x = 2.0 * labels.labels[:, None]
        x[list(plan.test_indices)] = 1.0
        matrix = FeatureMatrix(x, ("f0",))
        metrics = evaluate_subset(
            matrix, labels, np.array([0]), n_splits=1, test_fraction=0.25, base_seed=3
        )[1][0]
        assert (metrics.tp, metrics.tn, metrics.fp, metrics.fn) == (0, 3, 0, 2)

    @pytest.mark.parametrize("features", [[0, 4], [-1, 2], [1, 9]])
    def test_features_must_be_columns(self, features):
        matrix, labels = random_dataset(6, 6, 4, seed=0)
        with pytest.raises(ValueError, match=r"column indices in 0\.\.3"):
            evaluate_subset(matrix, labels, np.array(features))

    def test_n_splits_validated(self):
        matrix, labels = random_dataset(6, 6, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate_subset(matrix, labels, np.arange(4), n_splits=0)
