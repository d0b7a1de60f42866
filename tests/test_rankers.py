from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmc_gawar import rankers
from dmc_gawar.rankers import (
    SCORE_BLOCK,
    ZERO_DENOMINATOR_SENTINEL,
    dmc_score,
    find_region,
    keep_count,
    mc_score,
    rank_all,
    score_features,
)
from conftest import make_dataset, random_dataset
from oracles import oracle_column_dmc, oracle_column_mc, oracle_dmc, oracle_mc, oracle_region


@st.composite
def tie_heavy_screens(draw):
    """(values, labels): n 4..300 rows, so sums cross numpy's 128-element
    pairwise block; small-integer columns scaled by powers of ten, some
    made constant, some with about half their zeros as -0.0 (equal to 0.0,
    so a tie), some left as arbitrary floats; both classes twice.
    Hypothesis draws the shape and a seed; numpy fills the arrays."""
    n = draw(st.integers(4, 300))
    m = draw(st.integers(1, 12))
    top = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, top + 1, size=(n, m)) * 10.0 ** rng.integers(-6, 7, size=m)
    for column in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        values[:, column] = values[0, column]
    for column in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        values[(values[:, column] == 0.0) & (rng.random(n) < 0.5), column] = -0.0
    for column in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        values[:, column] = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
    labels = np.zeros(n, dtype=int)
    labels[rng.choice(n, size=draw(st.integers(2, n - 2)), replace=False)] = 1
    return values, labels


@st.composite
def mixed_blocks(draw):
    """A (b x n) block of feature rows, each drawn tie-free (distinct
    floats), tied (small integers, or a constant) or with signed zeros
    (-0.0 and 0.0 mixed), and 0/1 labels holding both classes."""
    n = draw(st.integers(2, 300))
    kinds = draw(st.lists(st.sampled_from(["distinct", "integers", "constant", "zeros"]), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = {
        "distinct": lambda: rng.permutation(n) + rng.random(n) / 2,
        "integers": lambda: rng.integers(-2, 3, n) * 0.5,
        "constant": lambda: np.full(n, rng.standard_normal()),
        "zeros": lambda: rng.choice([-0.0, 0.0, 1.5, -2.0], n),
    }
    block = np.array([rows[kind]() for kind in kinds])
    labels = rng.permutation(np.arange(n) % 2)
    return block, labels


class TestRegion:
    def test_reference_example(self, reference_feature):
        values, labels = reference_feature
        region = find_region(values, labels)
        assert (region.start, region.end) == (5, 10)
        assert region.x_class == 0
        assert region.width == 6

    def test_separated_region_is_empty(self):
        region = find_region(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1]))
        assert region.is_empty
        assert region.width == 0

    def test_alternating_labels(self):
        # the first sorted position always holds the x-class, so the region
        # of an alternating sequence starts at 1
        region = find_region(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 0, 1]))
        assert (region.start, region.end) == (1, 2)

    def test_ties_keep_sample_order(self):
        # stable sort: the two 2.0 values stay in original order, so the
        # label pattern after sorting is 0,1,0
        region = find_region(np.array([2.0, 2.0, 1.0]), np.array([1, 0, 0]))
        assert region.x_class == 0
        assert (region.start, region.end) == (1, 2)

    def test_tied_column_order_is_the_stable_argsort(self):
        values = np.array([0.0, 2.0, -0.0, 1.0, 2.0, 0.0, 1.0, -0.0])
        labels = np.array([1, 0, 0, 1, 1, 0, 1, 0])
        region = find_region(values, labels)
        assert region.order.tolist() == [0, 2, 5, 7, 3, 6, 1, 4]
        assert region.order.tolist() == np.argsort(values, kind="stable").tolist()
        assert region.order.tolist() == oracle_region(values, labels)[0]

    @given(mixed_blocks())
    def test_block_order_is_each_rows_stable_argsort(self, case):
        """The block's fast sort, repaired on tied rows, gives every row
        its stable order, and its values in that order to the bit (the
        sign of a zero included)."""
        block, labels = case
        order, sorted_values, *_ = rankers._regions(block, labels)
        for row, row_order, row_sorted in zip(block, order, sorted_values):
            want = np.argsort(row, kind="stable")
            assert row_order.tolist() == want.tolist()
            assert row_sorted.tobytes() == row[want].tobytes()

    def test_class_one_can_be_x_class(self):
        region = find_region(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 1, 0, 0]))
        assert region.x_class == 1
        assert region.is_empty


class TestScores:
    def test_reference_mc(self, reference_feature):
        values, labels = reference_feature
        assert mc_score(values, labels) == 6 / 16

    def test_reference_dmc(self, reference_feature):
        values, labels = reference_feature
        expected = 0.7 / 3.15 + 0.6 / 8.3  # hand-summed boundary distances
        assert dmc_score(values, labels) == pytest.approx(expected, abs=1e-12)

    def test_separated_feature_scores_zero(self):
        values = np.array([1.0, 2.0, 10.0, 11.0])
        labels = np.array([0, 0, 1, 1])
        assert mc_score(values, labels) == 0.0
        assert dmc_score(values, labels) == 0.0

    def test_alternating_mc(self):
        assert mc_score(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 0, 1])) == 0.5

    def test_zero_denominator_uses_sentinel(self):
        # all x-class weight outside the region sits exactly on the anchor,
        # while the y-class has a clean outside member
        values = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
        labels = np.array([0, 1, 0, 0, 1])
        assert dmc_score(values, labels) == pytest.approx(ZERO_DENOMINATOR_SENTINEL + 1.0)

    def test_matches_oracle_on_random_features(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            values = np.round(rng.standard_normal(n), 3)  # force ties sometimes
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=max(1, n // 3), replace=False)] = 1
            if labels.min() == labels.max():
                continue
            assert dmc_score(values, labels) == pytest.approx(
                oracle_dmc(values, labels), abs=1e-12
            )
            assert mc_score(values, labels) == pytest.approx(oracle_mc(values, labels), abs=1e-12)
            _, start, end, x = oracle_region(values, labels)
            region = find_region(values, labels)
            assert (region.start, region.end, region.x_class) == (start, end, x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_region(np.array([1.0, 2.0]), np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            dmc_score(np.array([1.0, 2.0]), np.array([0, 1, 0]))

    @pytest.mark.parametrize("scorer", [find_region, dmc_score, mc_score])
    def test_single_class_rejected(self, scorer):
        with pytest.raises(ValueError, match="needs both classes"):
            scorer(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))

    # labels used to be truncated to ints: mc_score scored [0, 0, 1, 1]
    @pytest.mark.parametrize("labels", [[0.5, 0.9, 1, 1], [0.2, 0, 1, 1.7], [0, 2, 1, 1], [-1, 0, 1, 1]])
    @pytest.mark.parametrize("scorer", [find_region, dmc_score, mc_score])
    def test_labels_must_be_binary(self, scorer, labels):
        with pytest.raises(ValueError, match="labels must be coded 0/1"):
            scorer(np.array([1.0, 2.0, 3.0, 4.0]), np.array(labels))

    # dmc_score returned nan and mc_score 0.75 for a NaN value
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scorer", [find_region, dmc_score, mc_score])
    def test_values_must_be_finite(self, scorer, bad):
        with pytest.raises(ValueError, match="values must hold only finite values"):
            scorer(np.array([bad, 1.0, 2.0, 3.0]), np.array([0, 0, 1, 1]))

    @given(tie_heavy_screens(), st.integers(1, 5))
    def test_blocks_equal_per_column_reference(self, screen, block):
        """Block-wise scores are bit-identical to the per-column numpy
        scores, for blocks smaller than, equal to and larger than m."""
        values, labels = screen
        matrix, vec = make_dataset(values, labels)
        with mock.patch.object(rankers, "SCORE_BLOCK", block):
            dmc = score_features(matrix, vec, "dmc")
            mc = score_features(matrix, vec, "mc")
        for j in range(matrix.m):
            assert dmc[j] == oracle_column_dmc(values[:, j], labels), j
            assert mc[j] == oracle_column_mc(values[:, j], labels), j
        assert dmc_score(values[:, 0], labels) == dmc[0]
        assert mc_score(values[:, 0], labels) == mc[0]

    def test_full_block_and_remainder_equal_reference(self):
        rng = np.random.default_rng(11)
        n, m = 140, SCORE_BLOCK + 9
        values = rng.integers(0, 6, size=(n, m)) * 10.0 ** rng.integers(-4, 5, size=m)
        values[:, 1::7] = np.round(rng.standard_normal((n, len(range(1, m, 7)))), 2)
        values[:, SCORE_BLOCK + 3] = 2.5
        labels = (rng.random(n) < 0.4).astype(int)
        matrix, vec = make_dataset(values, labels)
        dmc = score_features(matrix, vec, "dmc")
        mc = score_features(matrix, vec, "mc")
        assert dmc.tolist() == [oracle_column_dmc(values[:, j], labels) for j in range(m)]
        assert mc.tolist() == [oracle_column_mc(values[:, j], labels) for j in range(m)]

    def test_huge_finite_values_score_like_scaled_ones(self):
        """Columns whose range or distance sums overflow (values near
        +-1e308, or 40 values up to 1e307) score as the same columns scaled
        down by 2^-20; the plain column keeps its score."""
        rng = np.random.default_rng(4)
        n = 40
        labels = (np.arange(n) % 3 == 0).astype(int)
        values = np.column_stack([
            rng.uniform(-1.0, 1.0, n) * 1.7e308,
            rng.uniform(0.0, 1e307, n),
            rng.normal(size=n),
        ])
        matrix, vec = make_dataset(values, labels)
        dmc = score_features(matrix, vec, "dmc")
        assert np.isfinite(dmc).all()
        for j in (0, 1):
            assert dmc[j] == oracle_column_dmc(values[:, j] * 2.0**-20, labels), j
        assert dmc[2] == oracle_column_dmc(values[:, 2], labels)


class TestRanking:
    def test_keep_count_examples(self):
        assert keep_count(2000, 0.05) == 100
        assert keep_count(7129, 0.05) == 356
        assert keep_count(10, 0.3) == 3  # floor must resist float slop
        assert keep_count(5, 0.01) == 1  # never drops below one feature

    def test_keep_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError, match=r"^keep_fraction must be in \(0, 1\]$"):
                keep_count(10, bad)
        for bad in (True, "0.2"):  # not read as 1.0, nor parsed
            with pytest.raises(ValueError, match=f"^keep_fraction must be a number, got {bad!r}$"):
                keep_count(20, bad)

    def test_separating_column_ranks_first(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((20, 6))
        labels = np.array([0] * 10 + [1] * 10)
        values[:10, 3] = rng.uniform(0, 1, 10)
        values[10:, 3] = rng.uniform(5, 6, 10)
        matrix, vec = make_dataset(values, labels)
        order = rank_all(matrix, vec)
        assert order[0] == 3
        assert rank_all(matrix, vec)[: keep_count(matrix.m, 0.2)].tolist() == [3]

    def test_rank_ties_break_to_lower_index(self):
        values = np.zeros((6, 3))
        values[:, 0] = [1, 2, 3, 4, 5, 6]
        values[:, 1] = values[:, 0]  # identical scores
        values[:, 2] = [1, 4, 2, 5, 3, 6]
        matrix, vec = make_dataset(values, [0, 0, 0, 1, 1, 1])
        order = rank_all(matrix, vec)
        assert order.tolist()[:2] == [0, 1]

    def test_score_features_shape_and_method(self, reference_feature):
        values, labels = reference_feature
        grid = np.column_stack([values, values[::-1]])
        matrix, vec = make_dataset(grid, labels)
        dmc = score_features(matrix, vec, method="dmc")
        mc = score_features(matrix, vec, method="mc")
        assert dmc.shape == mc.shape == (2,)
        assert mc[0] == 6 / 16
        with pytest.raises(ValueError):
            score_features(matrix, vec, method="chi2")

    def test_rank_is_deterministic(self):
        matrix, vec = random_dataset(10, 12, 40, seed=3)
        first = rank_all(matrix, vec)[: keep_count(matrix.m, 0.25)]
        second = rank_all(matrix, vec)[: keep_count(matrix.m, 0.25)]
        assert np.array_equal(first, second)
