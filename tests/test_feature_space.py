import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmc_gawar import feature_space
from dmc_gawar.feature_space import (
    ClusterModel,
    _assign,
    _repair_empty,
    _sq_distances,
    build_feature_space,
    cluster_features,
    minmax_normalize,
)
from conftest import make_dataset, random_dataset
from oracles import oracle_assign, oracle_kmeanspp_seed, oracle_lloyd, oracle_repair_empty


@st.composite
def tie_heavy_assignments(draw):
    """(points, centroids): coordinates in [0, 1], as quarter steps (equal
    distances) or arbitrary floats; some centroids repeated or one ulp off
    another, some points copies of a centroid, some all zero; d up to 2000."""
    d = draw(st.sampled_from([1, 2, 3, 7, 16, 100, 129, 2000]))
    n = draw(st.integers(1, 40))
    q = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(0, 5, size=(n, d)) / 4.0
        centroids = rng.integers(0, 5, size=(q, d)) / 4.0
    else:
        points = rng.random((n, d))
        centroids = rng.random((q, d))
    for k in draw(st.sets(st.integers(0, q - 1), max_size=q)):
        twin = centroids[rng.integers(q)]
        centroids[k] = np.nextafter(twin, 1.0) if draw(st.booleans()) else twin
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        points[i] = centroids[rng.integers(q)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        points[i] = 0.0
    return points, centroids


@st.composite
def tie_heavy_points(draw):
    """(points, q): n feature points of d coordinates in [0, 1], as quarter
    steps or arbitrary floats; some points copies of others, some all zero
    (constant features normalise to zeros), some coordinates constant;
    q from 1 to n, often n itself (every cluster a singleton), and in the
    column-major layout ``cluster_features`` passes or row-major."""
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2, 3, 7, 16, 100]))
    q = n if draw(st.booleans()) else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(0, 5, size=(n, d)) / 4.0 if draw(st.booleans()) else rng.random((n, d))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        points[i] = points[rng.integers(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        points[i] = 0.0
    for j in draw(st.sets(st.integers(0, d - 1), max_size=2)):
        points[:, j] = points[0, j]
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    return points, q


class DrawLog:
    """A seeded generator for k-means++ seeding that keeps the bytes of
    the D^2 weights of each weighted draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.weights = []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.weights.append(p.tobytes())
        return self.rng.choice(n, p=p)


class TestNormalize:
    def test_unit_range(self):
        rng = np.random.default_rng(0)
        columns = rng.normal(5.0, 3.0, size=(30, 4))
        out = minmax_normalize(columns)
        assert out.min(axis=0) == pytest.approx(np.zeros(4))
        assert out.max(axis=0) == pytest.approx(np.ones(4))

    def test_constant_column_becomes_zeros(self):
        columns = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        out = minmax_normalize(columns)
        assert np.array_equal(out[:, 0], np.zeros(5))
        assert out[:, 1].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_overflowing_range_is_halved_exactly(self):
        """A column of finite values near +-1e308 normalises as the same
        column scaled down by 2^-10, without overflow; the other column's
        bits do not change."""
        rng = np.random.default_rng(1)
        huge = np.concatenate([[-1.7e308, 1.7e308, 0.0], rng.uniform(-1.0, 1.0, 9) * 1.7e308])
        plain = rng.normal(size=12)
        out = minmax_normalize(np.column_stack([huge, plain]))
        assert np.array_equal(out[:, 0], minmax_normalize((huge * 2.0**-10)[:, None])[:, 0])
        assert out[:3, 0].tolist() == [0.0, 1.0, 0.5]
        assert np.array_equal(out[:, 1], minmax_normalize(plain[:, None])[:, 0])

    def test_preserves_order(self):
        column = np.array([[3.0], [1.0], [2.0]])
        out = minmax_normalize(column)
        assert np.array_equal(np.argsort(out[:, 0]), np.argsort(column[:, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN column used to come out as zeros, like a constant one
        with pytest.raises(ValueError, match="columns must hold only finite values"):
            minmax_normalize([[bad, 1.0], [2.0, 3.0]])


class TestClustering:
    def test_assignments_partition_and_fill_clusters(self):
        matrix, vec = random_dataset(8, 8, 30, seed=1)
        retained = np.arange(30)
        model = cluster_features(matrix, retained, q=6, seed=0)
        assert model.assignments.shape == (30,)
        assert set(model.assignments.tolist()) == set(range(6))

    def test_inertia_never_increases(self):
        for seed in range(5):
            matrix, vec = random_dataset(10, 10, 40, seed=seed)
            model = cluster_features(matrix, np.arange(40), q=5, seed=seed)
            history = np.array(model.inertia_history)
            assert np.all(np.diff(history) <= 1e-9)

    def test_q_clamped_to_retained_count(self):
        matrix, vec = random_dataset(6, 6, 8, seed=2)
        model = cluster_features(matrix, np.arange(8), q=50, seed=0)
        assert model.n_clusters == 8
        assert sorted(model.assignments.tolist()) == list(range(8))

    def test_deterministic(self):
        matrix, vec = random_dataset(9, 9, 25, seed=4)
        a = cluster_features(matrix, np.arange(25), q=4, seed=123)
        b = cluster_features(matrix, np.arange(25), q=4, seed=123)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia_history == b.inertia_history

    def test_recovers_obvious_groups(self):
        # four blocks of near-duplicate columns must land in four clusters
        rng = np.random.default_rng(5)
        base = rng.standard_normal((20, 4))
        columns = np.repeat(base, 3, axis=1) + 0.01 * rng.standard_normal((20, 12))
        matrix, vec = make_dataset(columns, [0] * 10 + [1] * 10)
        model = cluster_features(matrix, np.arange(12), q=4, seed=0)
        for block in range(4):
            block_ids = set(model.assignments[3 * block : 3 * block + 3].tolist())
            assert len(block_ids) == 1

    def test_duplicate_points_still_fill_all_clusters(self):
        # most points identical: seeding lands centroids on copies and the
        # empty-cluster repair has to move points over
        values = np.ones((12, 8))
        values[:, 6] = np.linspace(0, 1, 12)
        values[:, 7] = np.linspace(1, 0, 12)
        matrix, vec = make_dataset(values, [0] * 6 + [1] * 6)
        for seed in range(8):
            model = cluster_features(matrix, np.arange(8), q=4, seed=seed)
            assert set(model.assignments.tolist()) == set(range(4))

    def test_empty_retained_rejected(self):
        matrix, vec = random_dataset(5, 5, 6, seed=0)
        with pytest.raises(ValueError):
            cluster_features(matrix, np.array([], dtype=int), q=2, seed=0)
        with pytest.raises(ValueError):
            cluster_features(matrix, np.arange(6), q=0, seed=0)

    # floats used to be truncated and -1 to wrap: [1.7, -1, 29] clustered
    # columns 1, 29 and 29
    @pytest.mark.parametrize("retained", [[1.7, -1, 29], [0.0, 1.0], [-1, 2], [3, 30], [True, False]])
    def test_retained_must_be_columns(self, retained):
        matrix, vec = random_dataset(8, 8, 30, seed=3)
        with pytest.raises(ValueError, match=r"retained must be 1-D integer column indices in 0\.\.29"):
            cluster_features(matrix, retained, q=2, seed=0)

    def test_iteration_cap_stops_an_unconverged_run(self, monkeypatch):
        matrix, vec = random_dataset(10, 10, 40, seed=0)
        assert cluster_features(matrix, np.arange(40), q=5, seed=0).n_iterations > 1
        monkeypatch.setattr(feature_space, "KMEANS_MAX_ITERS", 1)
        model = cluster_features(matrix, np.arange(40), q=5, seed=0)
        assert model.n_iterations == 1
        assert len(model.inertia_history) == 1

    def test_huge_finite_values_cluster_like_scaled_ones(self):
        """Columns near +-1e308 give a finite inertia, and the same model as
        the columns scaled down by 2^-10."""
        matrix, vec = random_dataset(10, 10, 30, seed=3)
        values = matrix.values.copy()
        values[:, :4] = np.random.default_rng(3).uniform(-1.0, 1.0, (20, 4)) * 1.7e308
        huge, _ = make_dataset(values, vec.labels)
        scaled, _ = make_dataset(values * np.where(np.arange(30) < 4, 2.0**-10, 1.0), vec.labels)
        got = cluster_features(huge, np.arange(30), q=5, seed=0)
        want = cluster_features(scaled, np.arange(30), q=5, seed=0)
        assert np.isfinite(got.inertia)
        assert np.array_equal(got.assignments, want.assignments)
        assert got.inertia_history == want.inertia_history

    def test_zero_restarts_rejected(self):
        matrix, vec = random_dataset(5, 5, 6, seed=0)
        with pytest.raises(ValueError, match="n_restarts"):
            cluster_features(matrix, np.arange(6), q=2, seed=0, n_restarts=0)

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("n_restarts", True, "n_restarts must be an integer, got True"),
            ("n_restarts", 2.5, "n_restarts must be an integer, got 2.5"),
            ("q", True, "q must be an integer, got True"),
            ("q", 2.5, "q must be an integer, got 2.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", 2.5, "seed must be an integer, got 2.5"),
            ("seed", -1, "seed must be at least 0"),
            ("space_seed", True, "seed must be an integer, got True"),
            ("space_seed", 2.5, "seed must be an integer, got 2.5"),
            ("space_seed", -1, "seed must be at least 0"),
        ],
    )
    def test_counts_are_checked_not_coerced(self, option, value, message):
        # a bool is not read as one restart, cluster or seed 1, nor a
        # float rounded
        matrix, vec = random_dataset(5, 5, 6, seed=0)

        def screen(q=2, n_restarts=2, seed=0, space_seed=0):
            model = cluster_features(matrix, np.arange(6), q, seed, n_restarts=n_restarts)
            return model, build_feature_space(np.arange(6), model, space_seed)

        with pytest.raises(ValueError, match=f"^{message}$"):
            screen(**{option: value})
        numpy_count, numpy_space = screen(**{option: np.int64(2)})
        model, space = screen(**{option: 2})
        assert np.array_equal(numpy_count.assignments, model.assignments)
        assert numpy_count.inertia_history == model.inertia_history
        assert np.array_equal(numpy_space, space)

    def test_kmeans_peak_memory(self):
        """k-means over 1000 points of 100 values peaks under 5 times the
        points' bytes: 4.3 times with its steps' temporaries reused or
        freed early, 6.3 times with a fresh array for each step."""
        matrix, _ = random_dataset(50, 50, 1000, seed=0)
        cluster_features(matrix, np.arange(1000), q=100, seed=0, n_restarts=1)  # first-call imports
        tracemalloc.start()
        try:
            cluster_features(matrix, np.arange(1000), q=100, seed=1, n_restarts=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 1000 * 100 * 8

    @given(
        st.integers(1, 83),
        st.integers(1, 8),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_blocked_assign_equals_broadcast(self, n, q, d, seed):
        """Assignments equal the one-broadcast reference, and the exact
        distances the candidate recheck and the repair read, on gathered
        (point, centroid) rows, equal its entries; coordinates are quarter
        steps on [0, 1], so equal distances and argmin ties occur."""
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 5, size=(n, d)) / 4.0
        centroids = rng.integers(0, 5, size=(q, d)) / 4.0
        want_assignments, want_d2 = oracle_assign(points, centroids)
        pairs = _sq_distances(np.repeat(points, q, axis=0), np.tile(centroids, (n, 1)))
        assert np.array_equal(pairs.reshape(n, q), want_d2)
        assert np.array_equal(_assign(points, centroids), want_assignments)

    @given(tie_heavy_assignments())
    def test_certified_assign_equals_broadcast(self, case):
        """Equal to the reference, also when the exact recheck measures
        three candidate pairs per pass."""
        points, centroids = case
        want = oracle_assign(points, centroids)[0]
        assert np.array_equal(_assign(points, centroids), want)
        with mock.patch.object(feature_space, "RECHECK_ELEMENTS", 3 * points.shape[1]):
            assert np.array_equal(_assign(points, centroids), want)

    def test_identical_points_recheck_in_small_passes(self):
        """1000 identical points tie with all 100 identical centroids; the
        100,000 candidate pairs are measured a few MB at a time, not as
        80 MB (pairs x coordinates) temporaries."""
        points = np.zeros((1000, 100))
        centroids = np.zeros((100, 100))
        tracemalloc.start()
        try:
            assignments = _assign(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(assignments, np.zeros(1000, dtype=int))
        assert peak < 20e6

    @given(tie_heavy_assignments())
    def test_repair_equals_full_matrix_repair(self, case):
        """The repair, measuring only each point's own centroid, moves the
        same points as the repair that read the full distance matrix."""
        points, centroids = case
        if len(centroids) > len(points):
            centroids = centroids[: len(points)]
        assignments, d2 = oracle_assign(points, centroids)
        repaired = _repair_empty(points, centroids, assignments)
        assert np.array_equal(repaired, oracle_repair_empty(centroids, assignments, d2))
        assert set(repaired.tolist()) == set(range(len(centroids)))

    @given(tie_heavy_points(), st.integers(0, 2**32 - 1))
    def test_lloyd_equals_masked_reference(self, case, seed):
        """Seeding in one reused buffer, the update over clusters grouped
        by one stable sort and the inertia in one gathered buffer give the
        reference's centroids, assignments and inertias to the bit."""
        points, q = case
        got, want = DrawLog(seed), DrawLog(seed)
        seeds = feature_space._kmeanspp_seed(points, q, got)
        assert seeds.tobytes() == oracle_kmeanspp_seed(points, q, want).tobytes()
        assert got.weights == want.weights  # the D^2 weights, to the bit
        assignments, centroids, history = feature_space._lloyd(points, q, np.random.default_rng(seed))
        want = oracle_lloyd(points, q, np.random.default_rng(seed))
        assert np.array_equal(assignments, want[0])
        assert centroids.tobytes() == want[1].tobytes()
        assert history == want[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_lloyd_equals_reference_through_the_repair(self, seed):
        """Ten copies of one point and two others, in four clusters: once
        the three distinct points are seeds, the fourth seed repeats one,
        its twin centroid takes no point, and the repair runs."""
        points = np.zeros((12, 5))
        points[10:] = np.random.default_rng(seed).random((2, 5))
        with mock.patch.object(feature_space, "_repair_empty", wraps=_repair_empty) as repair:
            got = feature_space._lloyd(points, 4, np.random.default_rng(seed))
        assert repair.called
        want = oracle_lloyd(points, 4, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]


class TestFeatureSpace:
    def test_one_member_per_cluster(self):
        matrix, vec = random_dataset(8, 8, 30, seed=3)
        retained = np.arange(30)
        model = cluster_features(matrix, retained, q=7, seed=1)
        space = build_feature_space(retained, model, seed=2)
        assert len(space) == 7
        assert len(set(space.tolist())) == 7
        for cluster_id, feature in enumerate(space):
            member_pos = np.flatnonzero(retained == feature)[0]
            assert model.assignments[member_pos] == cluster_id

    def test_maps_through_retained_indices(self):
        matrix, vec = random_dataset(8, 8, 30, seed=6)
        retained = np.array([4, 9, 11, 17, 21, 25, 28])
        model = cluster_features(matrix, retained, q=3, seed=1)
        space = build_feature_space(retained, model, seed=5)
        assert set(space.tolist()) <= set(retained.tolist())

    def test_retained_must_be_integers(self):
        matrix, vec = random_dataset(8, 8, 30, seed=3)
        model = cluster_features(matrix, np.arange(3), q=2, seed=1)
        with pytest.raises(ValueError, match="retained must be 1-D integer column indices"):
            build_feature_space([0.5, 1.5, 2.5], model, seed=2)

    def test_deterministic_draw(self):
        matrix, vec = random_dataset(8, 8, 24, seed=7)
        retained = np.arange(24)
        model = cluster_features(matrix, retained, q=5, seed=1)
        a = build_feature_space(retained, model, seed=9)
        b = build_feature_space(retained, model, seed=9)
        assert np.array_equal(a, b)
