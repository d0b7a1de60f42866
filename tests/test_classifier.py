import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dmc_gawar import classifier
from dmc_gawar.classifier import (
    _BLOCK,
    ClassificationMetrics,
    Evaluator,
    confusion_counts,
    evaluate_subset,
    fit_tree,
    mean_metrics,
    predict,
)
from dmc_gawar.data import FeatureMatrix, LabelVector, stratified_split
from dmc_gawar.pipeline import PipelineConfig, build_evaluator, build_stages, run_pipeline, search
from dmc_gawar.synthetic import make_planted, make_xor
from conftest import random_dataset
from oracles import (
    oracle_fit_tree, oracle_lowest_gini, oracle_metrics, oracle_predict, oracle_weighted_gini,
)


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


@st.composite
def batch_problems(draw):
    """(matrix, labels, batches, warm columns, n_splits, test fraction,
    base seed, block, Gini table bound) on ``tie_heavy_arrays`` data: one
    to three batches of equal-length subsets over at most 8 columns, so
    columns and whole subsets repeat within and across batches, each batch
    possibly listing a subset twice, and columns to sort before the first
    batch."""
    n = draw(st.integers(10, 60))
    m = draw(st.integers(1, 8))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = tie_heavy_arrays(rng, n, m, top)
    y[:10] = [0, 1] * 5
    k = draw(st.integers(1, 4))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        subsets = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=k, max_size=k), min_size=1, max_size=5))
        if draw(st.booleans()):
            subsets.append(subsets[draw(st.integers(0, len(subsets) - 1))])
        batches.append(subsets)
    warm = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    n_splits = draw(st.integers(1, 6))
    test_fraction = draw(st.sampled_from([0.2, 0.25, 1 / 3, 0.5]))
    base_seed = draw(st.integers(0, 1000))
    block = draw(st.integers(1, 7))
    table_max = draw(st.sampled_from([4, 40]))  # 4: every fit of 5 or more rows takes the formula
    matrix = FeatureMatrix(x, tuple(f"f{j}" for j in range(m)))
    labels = LabelVector(y, ("a", "b"))
    return matrix, labels, batches, warm, n_splits, test_fraction, base_seed, block, table_max


@st.composite
def level_layouts(draw):
    """(x, y, sizes, width, Gini table bound): one level of open nodes on
    ``tie_heavy_arrays`` data, node ``j`` the next ``sizes[j]`` rows, and
    a block of 1 to k columns.  A bound of 4 sends every layout of 5 or
    more rows to the formula, 200 every layout to the table.  A wide
    layout has more columns than its n rows have left codes (n + 1), so
    under the table each node sums its children's terms first."""
    sizes = draw(st.lists(st.integers(2, 30), min_size=1, max_size=6))
    k = sum(sizes) + draw(st.integers(2, 8)) if draw(st.booleans()) else draw(st.integers(1, 6))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = tie_heavy_arrays(rng, sum(sizes), k, top)
    return x, y, np.array(sizes), draw(st.integers(1, k)), draw(st.sampled_from([4, 200]))


@st.composite
def forest_layouts(draw):
    """(x, grid, train, presort width, filter width): ``tie_heavy_arrays``
    data of up to 300 rows, so that a row id may need more than a byte,
    1 to 4 trees of n distinct rows each, and a (k x trees) column grid
    whose trees take their columns from one of two subsets.  Blocks of 1
    to k columns mix tied and tie-free columns."""
    n_rows = draw(st.integers(2, 300))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, _ = tie_heavy_arrays(rng, n_rows, m, draw(st.integers(0, 4)))
    n = draw(st.integers(1, n_rows))
    train = np.array([rng.choice(n_rows, n, replace=False) for _ in range(draw(st.integers(1, 4)))])
    k = draw(st.integers(1, m))
    subsets = [rng.choice(m, k, replace=False) for _ in "ab"]
    grid = np.array([subsets[s] for s in rng.integers(0, 2, len(train))]).T
    return x, grid, train, draw(st.integers(1, k)), draw(st.integers(1, k))


def tall_forest():
    """A ``forest_layouts`` draw of 300 rows (16-bit row ids) in two
    trees of different subsets, tied and tie-free columns in each block."""
    rng = np.random.default_rng(23)
    x = rng.integers(0, 5, size=(300, 4)).astype(float)
    x[:, 1] = rng.permutation(300)
    x[:, 2] = rng.standard_normal(300)
    train = np.array([rng.choice(300, 280, replace=False) for _ in "ab"])
    return x, np.array([[0, 1], [2, 3]]), train, 2, 2


@st.composite
def short_wide_forests(draw):
    """(x, y, grid, train, block, Gini table bound): ``tie_heavy_arrays``
    data of 2 to 16 rows and up to 40 columns, where most nodes have a cut
    of Gini 0, 1 to 4 trees of n rows each (rows 0 and 1, one per class,
    and n - 2 others) on their own rows of a (trees x k) column grid, and
    blocks of 1 to 7 (column, tree) pairs.  A bound of 4 sends every fit
    of 5 or more rows to the formula, 200 every fit to the table."""
    n_rows = draw(st.integers(2, 16))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = tie_heavy_arrays(rng, n_rows, m, draw(st.integers(0, 4)))
    y[:2] = [0, 1]
    n = draw(st.integers(2, n_rows))
    trees = draw(st.integers(1, 4))
    train = np.array([[0, 1, *rng.choice(np.arange(2, n_rows), n - 2, replace=False)] for _ in range(trees)])
    k = draw(st.integers(1, m))
    grid = np.array([rng.choice(m, k, replace=False) for _ in range(trees)])
    return x, y, grid, train, draw(st.integers(1, 7)), draw(st.sampled_from([4, 200]))


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

    @pytest.mark.parametrize(
        "x, message",
        [([[1.0]], "x has 1 columns, but the tree tests column 1"), ([1.0, 2.0], "x must be 2-D"),
         ([[[1.0, 2.0]]], "x must be 2-D")],
        ids=["narrow", "1-D", "3-D"],
    )
    def test_predict_refuses_rows_the_tree_cannot_read(self, x, message):
        tree = fit_tree(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]]), np.array([0, 0, 1, 1]))
        assert tree.feature == 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            predict(tree, np.array(x))

    def test_pure_node_is_leaf(self):
        tree = fit_tree(np.array([[1.0], [2.0]]), np.array([1, 1]))
        assert tree.is_leaf
        assert tree.prediction == 1

    def test_constant_features_majority_leaf(self):
        tree = fit_tree(np.ones((5, 2)), np.array([0, 1, 1, 1, 0]))
        assert tree.is_leaf
        assert tree.prediction == 1
        assert fit_tree(np.ones((5, 0)), np.array([0, 1, 1, 1, 0])) == tree  # no column at all

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

    @given(level_layouts())
    def test_kernel_gives_each_nodes_lowest_gini_on_each_column(self, layout):
        # the level as _grow lays it out: each node's rows sorted by each
        # column in its own segment, ranks equal exactly where values are,
        # and ranks only if some column is tied, read only for blocks
        # that hold a tied column
        x, y, sizes, width, table_max = layout
        n, k = x.shape
        ones = np.add.reduceat(y, np.cumsum(sizes) - sizes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", table_max)
            starts, _, weighted = classifier._cut_gini(y, n, sizes, ones, k)
        order = np.concatenate([
            start + np.argsort(x[start : start + size], axis=0, kind="stable")
            for start, size in zip(starts, sizes)
        ]).T
        tied = np.array([len(np.unique(x[:, column])) < n for column in range(k)])
        ranks = np.unique(x, return_inverse=True)[1].reshape(x.shape).T
        ranks = np.take_along_axis(ranks, order, axis=1) if tied.any() else None
        got = classifier._best_cuts(weighted, (order, ranks, tied), starts, sizes, width)
        want = np.array([
            [oracle_lowest_gini(x[start : start + size, column], y[start : start + size])
             for start, size in zip(starts, sizes)]
            for column in range(k)
        ])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(forest_layouts())
    @example(tall_forest())
    def test_presort_filter_sorts_each_tree_and_ranks_it_exactly(self, layout):
        # every (grid column, tree) holds each of the tree's stacked rows
        # once, in an order that sorts the tree's values (ties in any
        # order), ranked 0, 1, ... by distinct value; a column tied over
        # all rows is flagged, and with none flagged there are no ranks
        x, grid, train, presort_width, width = layout
        n = train.shape[1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "_BLOCK", presort_width)
            presort = classifier._presort(x, np.unique(grid))
            patch.setattr(classifier, "_BLOCK", width * len(train))  # width grid columns per pass
            order, ranks, tied = classifier._filter(x, presort, grid, train)
        assert presort[1].dtype == np.min_scalar_type(len(x))
        column_tied = np.array([len(np.unique(column)) < len(x) for column in x.T])
        assert np.array_equal(tied, column_tied[grid].any(axis=1))
        assert (ranks is None) == (not tied.any())
        for j, tree in np.ndindex(grid.shape):
            stacked = order[j, tree * n : (tree + 1) * n]
            assert np.array_equal(np.sort(stacked), np.arange(tree * n, (tree + 1) * n))
            values = x[train.ravel()[stacked], grid[j, tree]]
            assert (values[:-1] <= values[1:]).all()
            want = np.unique(values, return_inverse=True)[1]
            got = np.arange(n) if ranks is None else ranks[j, tree * n : (tree + 1) * n]
            assert np.array_equal(got, want)

    @given(short_wide_forests())
    def test_early_exit_grows_the_forest_of_a_full_scan(self, problem):
        # _grow stops a level's scan once every node has a cut of Gini 0;
        # scanning (and so regrouping) every column instead must grow the
        # same forest, and each tree must be the oracle's.  A scan that
        # stopped early is the last of its forest: the blocks it left
        # unregrouped are never read
        x, y, grid, train, block, table_max = problem
        best_cuts, forests, stopped = classifier._best_cuts, [], []

        def early(weighted, sorts, starts, size, width, **kwargs):
            scanned = []

            def counted(order, ranks):
                scanned.append(len(order))
                return weighted(order, ranks)

            lowest = best_cuts(counted, sorts, starts, size, width, **kwargs)
            stopped.append(sum(scanned) < len(sorts[0]))
            return lowest

        def full(weighted, sorts, starts, size, width, stop_at_zero=False, regroup=None):
            return best_cuts(weighted, sorts, starts, size, width, regroup=regroup)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", table_max)
            patch.setattr(classifier, "_BLOCK", block)
            presort = classifier._presort(x, np.unique(grid))
            for scan in (early, full):
                patch.setattr(classifier, "_best_cuts", scan)
                sorts = classifier._filter(x, presort, grid.T, train)
                forests.append(classifier._grow(x, y, grid, train, sorts))
            patch.setattr(classifier, "_best_cuts", best_cuts)
            trees = [fit_tree(x[rows][:, columns], y[rows]) for rows, columns in zip(train, grid)]
        assert not any(stopped[:-1])
        early, every = forests
        assert early.depth == every.depth
        for name in ("feature", "threshold", "left", "prediction"):
            assert np.array_equal(getattr(early, name), getattr(every, name))
        for tree, rows, columns in zip(trees, train, grid):
            assert tree == oracle_fit_tree(x[rows][:, columns], y[rows])

    def test_early_exit_scans_only_the_first_block_when_every_node_is_perfect(self, monkeypatch):
        # column 0 splits every tree's rows perfectly, so _grow scores only
        # the first block of 2 of the 8 columns at the root level (and the
        # winner again for its cut), while _keep scores every column
        rng = np.random.default_rng(4)
        y = np.tile([0, 1], 10)
        x = rng.standard_normal((20, 8))
        x[:, 0] = y + rng.random(20) / 2
        train = np.array([[0, 1, *rng.choice(np.arange(2, 20), 10, replace=False)] for _ in range(3)])
        cut_gini, scored = classifier._cut_gini, []

        def counting(*args):
            starts, node_of, weighted = cut_gini(*args)

            def counted(order, ranks):
                scored.append(len(order))
                return weighted(order, ranks)

            return starts, node_of, counted

        monkeypatch.setattr(classifier, "_cut_gini", counting)
        monkeypatch.setattr(classifier, "_BLOCK", 6)  # 2 columns of 3 trees per pass
        columns = np.arange(8)
        grid = np.tile(columns, (3, 1))
        sorts = classifier._filter(x, classifier._presort(x, columns), grid.T, train)
        forest = classifier._grow(x, y, grid, train, sorts)
        assert scored == [2, 1]
        assert forest.depth == 1 and (forest.feature[:3] == 0).all()
        scored.clear()
        matrix, labels = FeatureMatrix(x, tuple(f"f{j}" for j in columns)), LabelVector(y, ("a", "b"))
        Evaluator(matrix, labels, n_splits=3, test_fraction=0.25, base_seed=0)._keep(columns)
        assert scored == [2, 2, 2, 2]

    def test_a_scan_regroups_only_the_blocks_it_reads(self, monkeypatch):
        # by column 0 the labels run 0 1 0 0 | 1 1 0 1: the halves are the
        # best root cut (Gini 0.375) but impure.  Column 1 puts the labels
        # in alternating order (best root cut 0.43) yet parts each half
        # perfectly, and columns 2 and 3 mirror 0 and 1.  Each level's
        # regroup waits for the next scan, which stops after its first
        # block of 2 columns, so the second block is never regrouped
        one = np.c_[np.arange(1.0, 9.0), [3.0, 8, 5, 7, 2, 4, 1, 6]]
        one = np.c_[one, -one]
        labels = np.array([0, 1, 0, 0, 1, 1, 0, 1])
        shuffle = np.random.default_rng(0).permutation(16)
        x, y = np.r_[one, 2 * one + 100][shuffle], np.r_[labels, labels][shuffle]
        train = np.argsort(shuffle).reshape(2, 8)  # tree 1 on the copy
        regroup, regrouped = classifier._regroup, []

        def spy(*args):
            regrouped.append(args[-2:])  # (first column, columns) of a block
            return regroup(*args)

        monkeypatch.setattr(classifier, "_regroup", spy)
        monkeypatch.setattr(classifier, "_BLOCK", 4)  # 2 columns of 2 trees per pass
        columns = np.arange(4)
        grid = np.tile(columns, (2, 1))
        sorts = classifier._filter(x, classifier._presort(x, columns), grid.T, train)
        forest = classifier._grow(x, y, grid, train, sorts)
        assert forest.depth == 2
        assert forest.feature[:6].tolist() == [0, 0, 1, 1, 1, 1]
        assert regrouped == [(0, 2)]
        monkeypatch.setattr(classifier, "_BLOCK", 2)  # the same passes for one tree
        for rows in train:
            regrouped.clear()
            assert fit_tree(x[rows], y[rows]) == oracle_fit_tree(x[rows], y[rows])
            assert regrouped == [(0, 2)]

    def test_deep_tree_grows_without_recursion(self):
        # alternating labels on distinct values need a cut between every
        # pair of rows; one Python frame per level would exceed the limit
        n = 2400
        x = np.arange(n, dtype=float)[:, None]
        y = np.arange(n) % 2
        tree = fit_tree(x, y)
        assert np.array_equal(predict(tree, x), y)
        assert np.array_equal(predict(tree, x + 0.25), y)

    @pytest.mark.parametrize("y", [[0, 2, 1], [0, 0.5, 1], [0, np.nan, 1], [-1, 0, 1]])
    def test_labels_must_be_binary(self, y):
        with pytest.raises(ValueError, match="0/1"):
            fit_tree(np.zeros((3, 1)), np.array(y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_must_be_finite(self, bad):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree = fit_tree(x, np.array([0, 0, 1, 1]))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_tree(x, np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="finite"):
            predict(tree, x)

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
        metrics = ClassificationMetrics(3, 5, 1, 1)
        assert metrics.overall == pytest.approx(0.8)
        assert metrics.recall == pytest.approx(0.75)
        assert metrics.specificity == pytest.approx(5 / 6)
        assert metrics.balanced == pytest.approx((0.75 + 5 / 6) / 2)
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.f_measure == pytest.approx(0.75)
        assert metrics.mcc == pytest.approx(14 / 24)

    def test_only_the_four_counts_are_stored(self):
        # the scores are read-only properties of the counts, so they cannot
        # disagree with them, and the counts are the one constructor's input
        assert [f.name for f in dataclasses.fields(ClassificationMetrics)] == ["tp", "tn", "fp", "fn"]
        assert not hasattr(ClassificationMetrics, "from_counts")
        metrics = ClassificationMetrics(3, 5, 1, 1)
        with pytest.raises(AttributeError):
            metrics.overall = 0.5
        assert metrics == ClassificationMetrics(tp=3, tn=5, fp=1, fn=1)
        assert metrics != ClassificationMetrics(5, 3, 1, 1)

    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
            got = ClassificationMetrics(tp, tn, fp, fn).as_dict()
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
                        got = ClassificationMetrics(*counts).as_dict()
                        assert got == oracle_metrics(tp, tn, fp, fn), counts

    def test_zero_denominators_collapse_to_zero(self):
        metrics = ClassificationMetrics(0, 5, 0, 0)
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
        [([0, 1], [2, 1]), ([1, 0], [-1, 0]), ([3, 0], [1, 0]), ([0, -2], [0, 0]),
         ([0.5, 1.0], [0, 1]), ([0, 1], [0, 0.9]), ([np.nan, 1], [0, 1])],
    )
    def test_confusion_counts_reject_values_other_than_zero_and_one(self, y_true, y_pred):
        with pytest.raises(ValueError, match="0/1"):
            confusion_counts(np.array(y_true), np.array(y_pred))

    @pytest.mark.parametrize(
        "y_true, y_pred, message",
        [([0, 1, 1], [0, 1], "predictions must be 1-D with one per label (3), got shape (2,)"),
         ([0, 1], [[0, 1]], "predictions must be 1-D with one per label (2), got shape (1, 2)"),
         ([[0, 1]], [[0, 1]], "labels must be 1-D"), (1, 1, "labels must be 1-D")],
        ids=["shorter", "2-D predictions", "2-D", "scalar"],
    )
    def test_confusion_counts_need_one_prediction_per_label(self, y_true, y_pred, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            confusion_counts(np.array(y_true), np.array(y_pred))

    def test_mean_metrics(self):
        splits = [
            ClassificationMetrics(3, 5, 1, 1),
            ClassificationMetrics(4, 4, 2, 0),
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
            want.append(ClassificationMetrics(*confusion_counts(y[test], predicted)))
        # also through a fresh evaluator and through one already warmed by
        # other columns, asked for one at a time in shuffled order, so the
        # features (in their drawn, unsorted order) sit at scattered table
        # rows or are sorted on first use: under _BLOCK 256 one group reads
        # the tables; under the small blocks only subsets of at most
        # `block` (column, split) pairs do
        rng = np.random.default_rng(base_seed)
        warm = rng.permutation(matrix.m)[: matrix.m // 2 + 1]
        # blocks of 1-5 (column, split) pairs: groups hold fewer splits than
        # n_splits, and wide subsets score their columns over several blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", 40)
            patch.setattr(classifier, "_BLOCK", block)
            scored = [evaluate_subset(matrix, labels, features, n_splits, test_fraction, base_seed)]
            for size in (block, _BLOCK):
                patch.setattr(classifier, "_BLOCK", size)
                fresh, warmed = (Evaluator(matrix, labels, n_splits, test_fraction, base_seed) for _ in "ab")
                for column in warm:
                    warmed.stage(np.array([[column]]))
                for evaluator in (fresh, warmed):
                    scored.append(evaluate_subset(
                        matrix, labels, features, n_splits, test_fraction, base_seed, evaluator=evaluator
                    ))
        for mean_overall, per_split in scored:
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

    def test_split_plans_are_built_once_per_evaluator(self, monkeypatch):
        ds = make_planted(13, 16, 12, 3, 1.5, seed=8)
        built = []

        def counting_split(labels, test_fraction, seed):
            built.append(seed)
            return stratified_split(labels, test_fraction, seed)

        monkeypatch.setattr(classifier, "stratified_split", counting_split)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.2, base_seed=3)
        evaluate_subset(ds.matrix, ds.labels, np.arange(12), n_splits=4, base_seed=3, evaluator=evaluator)
        _, again = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=4, base_seed=3,
                                   evaluator=evaluator)
        assert built == [3, 4, 5, 6]
        # a call without an evaluator builds its own plans, every time
        _, shifted = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=4, base_seed=4)
        solo = evaluate_subset(ds.matrix, ds.labels, np.arange(5), n_splits=1, base_seed=5)[1][0]
        assert built == [3, 4, 5, 6, 4, 5, 6, 7, 5]
        assert again[2].as_dict() == shifted[1].as_dict() == solo.as_dict()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda ds: {"n_splits": 3}, "n_splits=4, got 3"),
            (lambda ds: {"test_fraction": 0.5}, "test_fraction=0.25, got 0.5"),
            (lambda ds: {"base_seed": 6}, "base_seed=5, got 6"),
            (lambda ds: {"labels": LabelVector(1 - ds.labels.labels, ds.labels.class_names)},
             "other labels"),
            (lambda ds: {"matrix": FeatureMatrix(ds.matrix.values + 1.0, ds.matrix.feature_names)},
             "another feature matrix"),
            (lambda ds: {"features": np.array([9, 1])}, None),
        ],
        ids=["n_splits", "test_fraction", "base_seed", "labels", "matrix", "feature"],
    )
    def test_evaluator_serves_only_the_call_it_was_built_for(self, change, message):
        ds = make_planted(10, 10, 12, 3, 1.5, seed=6)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.25, base_seed=5)
        call = dict(matrix=ds.matrix, labels=ds.labels, features=np.array([1, 4]),
                    n_splits=4, test_fraction=0.25, base_seed=5)
        evaluate_subset(**call, evaluator=evaluator)  # the matching call is accepted
        other = {**call, **change(ds)}
        if message is None:  # any column is served: 9 was never asked for before
            assert evaluate_subset(**other, evaluator=evaluator) == evaluate_subset(**other)
        else:
            with pytest.raises(ValueError, match=message):
                evaluate_subset(**other, evaluator=evaluator)

    def test_evaluator_accepts_equal_copies_of_its_data(self):
        ds = make_planted(10, 10, 12, 3, 1.5, seed=6)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.25, base_seed=5)
        matrix = FeatureMatrix(ds.matrix.values.copy(), ds.matrix.feature_names)
        labels = LabelVector(ds.labels.labels.copy(), ds.labels.class_names)
        got = evaluate_subset(matrix, labels, np.array([3, 2]), 4, 0.25, 5, evaluator=evaluator)
        assert got == evaluate_subset(ds.matrix, ds.labels, np.array([3, 2]), 4, 0.25, 5)

    def test_classifier_keeps_no_process_wide_container(self):
        # a module-level dict, list or set would be state shared by every
        # run, and a result could depend on what was evaluated before
        held = [
            name for name, value in vars(classifier).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        ]
        assert held == []

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

    # floats are not truncated to columns, a 2-D list is not broadcast and
    # booleans are not read as 0/1 columns
    @pytest.mark.parametrize(
        "features", [[0, 4], [-1, 2], [1, 9], [1.9, 2.2], [[0, 1], [2, 3]], [True, False]]
    )
    def test_features_must_be_columns(self, features):
        matrix, labels = random_dataset(6, 6, 4, seed=0)
        with pytest.raises(ValueError, match=r"column indices in 0\.\.3"):
            evaluate_subset(matrix, labels, np.array(features))

    def test_an_empty_subset_is_rejected(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=2)
        with pytest.raises(ValueError, match="at least one feature"):
            evaluate_subset(ds.matrix, ds.labels, [], 4, 0.2, 7)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.2, base_seed=7)
        with pytest.raises(ValueError, match="at least one feature"):
            evaluator.stage([[]])
        assert evaluator.staged == {}

    def test_n_splits_validated(self):
        matrix, labels = random_dataset(6, 6, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate_subset(matrix, labels, np.arange(4), n_splits=0)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("n_splits", True, "n_splits must be an integer, got True"),
            ("n_splits", 2.5, "n_splits must be an integer, got 2.5"),
            ("n_splits", -1, "n_splits must be at least 1"),
            ("test_fraction", "0.2", "test_fraction must be a number, got '0.2'"),
            ("test_fraction", True, "test_fraction must be a number, got True"),
            ("test_fraction", 1.0, "test_fraction must be in (0, 1)"),
            ("base_seed", True, "base_seed must be an integer, got True"),
            ("base_seed", 2.5, "base_seed must be an integer, got 2.5"),
            ("base_seed", -1, "base_seed must be at least 0"),
        ],
    )
    def test_split_settings_are_checked_not_coerced(self, option, value, message):
        # a bool is not read as one split or seed 1, nor a float rounded
        # to a count, nor a string taken for a fraction
        matrix, labels = random_dataset(6, 6, 4, seed=0)
        settings = {"n_splits": 1, "test_fraction": 0.25, "base_seed": 1}
        bad = {**settings, option: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Evaluator(matrix, labels, **bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_subset(matrix, labels, [1, 2], **bad)
        built = Evaluator(matrix, labels, **settings)  # True must not pass as 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_subset(matrix, labels, [1, 2], **bad, evaluator=built)
        numpy_scalar = {**settings, option: np.asarray(settings[option])[()]}
        assert evaluate_subset(matrix, labels, [1, 2], **numpy_scalar) == evaluate_subset(
            matrix, labels, [1, 2], **settings
        )


def stage_in_turn(evaluator: Evaluator, batches) -> list[dict]:
    """Each batch's staged counts, collected before the next batch."""
    held = []
    for subsets in batches:
        evaluator.stage(subsets)
        held.append(dict(evaluator.staged))
        evaluator.staged.clear()
    return held


def two_subset_forests():
    """A ``batch_problems`` draw of wide subsets (2 columns x 3 splits over
    a block of 5) that grow 2 trees per forest, so the second forest holds
    split 2 of the first subset and split 0 of the second."""
    x, y = tie_heavy_arrays(np.random.default_rng(17), 24, 6, 3)
    y[:10] = [0, 1] * 5
    matrix = FeatureMatrix(x, tuple(f"f{j}" for j in range(6)))
    batches = [[[0, 1], [2, 3], [4, 5]], [[1, 0], [5, 4]]]
    return matrix, LabelVector(y, ("a", "b")), batches, [3], 3, 0.25, 11, 5, 40


TWO_SUBSET_FORESTS = two_subset_forests()


class TestBatch:
    @given(batch_problems())
    @example(TWO_SUBSET_FORESTS)
    def test_staged_counts_match_one_off_calls_and_the_oracle(self, problem):
        # blocks of 1-7 (column, tree) pairs split a batch over several
        # forests and a forest's columns over several passes; the warm
        # columns sit at scattered table rows before the batch asks for
        # them; later batches read the sorts and roots earlier ones kept,
        # which the one-off calls' fresh evaluators never do
        matrix, labels, batches, warm, n_splits, test_fraction, base_seed, block, table_max = problem
        grow, forests = classifier._grow, []

        def recording(values, labels, grid, *rest):
            forests.append(grid)
            return grow(values, labels, grid, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", table_max)
            patch.setattr(classifier, "_BLOCK", block)
            evaluator = Evaluator(matrix, labels, n_splits, test_fraction, base_seed)
            evaluator.stage(np.array(warm, dtype=int)[:, None])
            evaluator.staged.clear()
            patch.setattr(classifier, "_grow", recording)
            held = stage_in_turn(evaluator, batches)
            patch.setattr(classifier, "_grow", grow)
            assert evaluator.counts(np.empty((0, len(batches[0][0])), dtype=np.intp)) == []
            # in the reverse order, each batch reads what the others kept
            reverse = stage_in_turn(Evaluator(matrix, labels, n_splits, test_fraction, base_seed), batches[::-1])
            one_off = {
                key: evaluate_subset(matrix, labels, np.array(key), n_splits, test_fraction, base_seed)[1]
                for staged in held for key in staged
            }
        assert held == reverse[::-1]
        # every tree of the batches grows once, on its own grid row
        assert sum(map(len, forests)) == n_splits * sum(map(len, batches))
        if problem is TWO_SUBSET_FORESTS:  # wide: 2 * 3 (column, tree) pairs exceed the block
            assert any(len(np.unique(grid, axis=0)) == 2 for grid in forests)
        staged = {}
        for subsets, counts in zip(batches, held):
            assert set(counts) == set(map(tuple, subsets))
            staged.update(counts)
        x, y = matrix.values, labels.labels
        plans = [stratified_split(labels, test_fraction, base_seed + s) for s in range(n_splits)]
        for key, counts in staged.items():
            assert [ClassificationMetrics(*split) for split in counts] == one_off[key]
            assert len(counts) == n_splits
            columns = list(key)
            for split, plan in zip(counts, plans):
                train, test = list(plan.train_indices), list(plan.test_indices)
                tree = oracle_fit_tree(x[train][:, columns], y[train])
                predicted = oracle_predict(tree, x[test][:, columns])
                assert tuple(split) == confusion_counts(y[test], predicted)

    @given(evaluation_problems(), st.sampled_from([4, 200]))
    def test_kept_roots_match_the_oracle(self, problem, table_max):
        # the drawn features are kept one at a time, in their drawn order,
        # so they sit at scattered table rows, and the other columns
        # together, `block` per pass; a bound of 4 sends every fit of 5 or
        # more rows to the formula, 200 every fit to the table
        matrix, labels, features, n_splits, test_fraction, base_seed, block = problem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "GINI_TABLE_MAX_ROWS", table_max)
            patch.setattr(classifier, "_BLOCK", block * n_splits)
            evaluator = Evaluator(matrix, labels, n_splits, test_fraction, base_seed)
            for column in features:
                evaluator._keep(np.array([column]))
            rest = np.setdiff1d(np.arange(matrix.m), features)
            if len(rest):
                evaluator._keep(rest)
        roots = evaluator.tables[2]
        assert roots.shape == (matrix.m, n_splits)
        for split in range(n_splits):
            train = list(stratified_split(labels, test_fraction, base_seed + split).train_indices)
            x, y = matrix.values[train], labels.labels[train]
            want = np.array([oracle_lowest_gini(x[:, column], y) for column in range(matrix.m)])
            got = roots[evaluator.slot, split]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_staged_forests_scan_no_root(self, monkeypatch):
        # _keep scores a column's roots when it sorts the column, so a
        # staged forest hands _best_cuts only nodes below the roots, each
        # smaller than a train split; restaging the batch sorts and scores
        # no root again, and the levels below the roots are still scanned
        ds = make_planted(14, 16, 12, 3, 1.0, seed=9)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=5, test_fraction=0.25, base_seed=2)
        n = evaluator.train.shape[1]
        batch = [(0, 3, 5), (3, 5, 7), (1, 3, 5), (0, 3, 5), (11, 2, 3), (4, 6, 8)]
        sorted_columns, scanned = [], []
        presort, best_cuts = classifier._presort, classifier._best_cuts

        def sorting(values, columns):
            sorted_columns.extend(columns.tolist())
            return presort(values, columns)

        def counting(weighted, sorts, starts, size, width, **kwargs):
            assert np.array_equal(np.diff(starts, append=sorts[0].shape[1]), size)
            assert (size == n).all() or (size < n).all()  # a root level, or none of it
            scanned.append((len(sorts[0]), int(size[0] == n)))
            return best_cuts(weighted, sorts, starts, size, width, **kwargs)

        monkeypatch.setattr(classifier, "_presort", sorting)
        monkeypatch.setattr(classifier, "_best_cuts", counting)
        first = stage_in_turn(evaluator, [batch])
        assert sorted(sorted_columns) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 11]
        assert sum(rows for rows, root in scanned if root) == 10  # each column's roots once
        assert {rows for rows, root in scanned if not root} == {3}  # the forests' levels below
        tables = evaluator.tables
        sorted_columns.clear()
        scanned.clear()
        assert stage_in_turn(evaluator, [batch]) == first
        assert evaluator.tables is tables
        assert sorted_columns == []
        assert scanned and {root for _, root in scanned} == {0}

    def test_kept_roots_of_columns_beside_a_perfect_one_are_exact(self, monkeypatch):
        # column 0 splits every train split perfectly at the root, and the
        # first batch keeps columns 0-4 in passes of 3 columns; an early exit
        # there would leave columns 3 and 4 without roots, and (1, 2, 3),
        # which lacks column 0, roots on column 3
        rng = np.random.default_rng(12)
        y = np.tile([0, 1], 12)
        x = rng.standard_normal((24, 5))
        x[:, 0] = y + rng.random(24) / 2
        x[:, 3] = np.where(np.arange(24) == 5, 0.25, x[:, 0])  # row 5, class 1, among the 0s
        matrix, labels = FeatureMatrix(x, tuple(f"f{j}" for j in range(5))), LabelVector(y, ("a", "b"))
        n_splits, test_fraction, base_seed = 2, 0.25, 3
        monkeypatch.setattr(classifier, "_BLOCK", 3 * n_splits)
        evaluator = Evaluator(matrix, labels, n_splits, test_fraction, base_seed)
        _, held = stage_in_turn(evaluator, [[(0, 1, 2), (0, 3, 4)], [(1, 2, 3)]])
        roots = evaluator.tables[2]
        plans = [stratified_split(labels, test_fraction, base_seed + s) for s in range(n_splits)]
        for split, plan in enumerate(plans):
            train = list(plan.train_indices)
            want = [oracle_lowest_gini(x[train, column], y[train]) for column in range(5)]
            assert np.array_equal(roots[evaluator.slot, split], want)
            assert want[0] == 0 and want[3] < min(want[1], want[2])
        (fresh,) = stage_in_turn(Evaluator(matrix, labels, n_splits, test_fraction, base_seed), [[(1, 2, 3)]])
        assert held == fresh
        for split, plan in zip(held[(1, 2, 3)], plans):
            train, test = list(plan.train_indices), list(plan.test_indices)
            tree = oracle_fit_tree(x[train][:, [1, 2, 3]], y[train])
            assert tuple(split) == confusion_counts(y[test], oracle_predict(tree, x[test][:, [1, 2, 3]]))

    def test_kept_roots_hold_one_gini_per_split_of_each_sorted_column(self, monkeypatch):
        # the roots table adds n_splits float64s per sorted column, and the
        # seeded search is the one whose subsets are all wide, sorting
        # their own columns and scanning their roots
        ds = make_planted(22, 40, 300, 20, 1.2, seed=42)
        config = PipelineConfig(seed=7, stagnation_limit=10)
        stages = build_stages(ds.matrix, ds.labels, config)
        evaluator = build_evaluator(ds.matrix, ds.labels, config)
        result = search(ds.matrix, ds.labels, config, stages, evaluator)
        assert evaluator.tables[2].nbytes == np.count_nonzero(evaluator.slot >= 0) * config.n_splits * 8
        monkeypatch.setattr(classifier, "_BLOCK", config.n_splits * stages.n_var - 1)
        wide = build_evaluator(ds.matrix, ds.labels, config)
        assert search(ds.matrix, ds.labels, config, stages, wide) == result
        assert wide.tables == ()
        assert (result.best_genes, result.best_fitness, result.nfe) == (
            (151, 159, 162, 216, 242, 246, 254, 256, 282, 299), 0.9249999999999998, 252
        )

    def test_evaluate_subset_collects_what_stage_held(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=2)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.2, base_seed=7)
        evaluator.stage([(3, 1, 4), (1, 5, 9)])
        assert set(evaluator.staged) == {(3, 1, 4), (1, 5, 9)}
        got = evaluate_subset(ds.matrix, ds.labels, (1, 5, 9), 4, 0.2, 7, evaluator=evaluator)
        assert set(evaluator.staged) == {(3, 1, 4)}
        assert got == evaluate_subset(ds.matrix, ds.labels, np.array([1, 5, 9]), 4, 0.2, 7)

    @pytest.mark.parametrize("batch", [[], (), np.array([]), np.empty((0, 3), dtype=int)])
    def test_an_empty_batch_stages_nothing(self, batch):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=2)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.2, base_seed=7)
        evaluator.stage(batch)
        assert evaluator.staged == {}
        assert evaluator.tables == ()

    def test_subsets_of_different_lengths_are_rejected(self):
        ds = make_planted(12, 14, 20, 3, 1.5, seed=2)
        evaluator = Evaluator(ds.matrix, ds.labels, n_splits=4, test_fraction=0.2, base_seed=7)
        with pytest.raises(ValueError, match="same length"):
            evaluator.stage([(3, 1, 4), (1, 5)])
        with pytest.raises(ValueError, match=r"column indices in 0\.\.19"):
            evaluator.stage([(3, 1, 4), (1, 5, 20)])
        assert evaluator.staged == {}


def traced_peak(call) -> float:
    """Peak traced heap of a second ``call``, in MB; the first one imports
    and builds what later calls reuse."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The presort is taken and filtered a block of columns at a time, and
    a wide tree's order holds one byte per row id.  Measured peaks: 1.49 MB
    wide (1.55 MB while each level regrouped every block at once) and
    1.74 MB for the colon run (1.67 MB before ``rankers._row_sums``
    selected with ``np.compress``, which builds an index array; 2.79 and
    1.67 MB with an int32 sort per split); a filter of all columns at once
    reads 6.27 and 2.07 MB, a presort and filter of all columns 13.6 and
    3.94 MB."""

    def test_one_wide_evaluation(self):
        ds = make_planted(47, 25, 7129, 50, 1.0, seed=42)
        features = np.arange(ds.matrix.m)
        assert traced_peak(lambda: evaluate_subset(ds.matrix, ds.labels, features, 10, 0.2, 401)) < 3.0

    def test_one_colon_run(self):
        ds = make_planted(22, 40, 2000, 20, 1.2, seed=42)
        assert traced_peak(lambda: run_pipeline(ds.matrix, ds.labels, PipelineConfig(seed=7))) < 1.9
