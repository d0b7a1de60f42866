import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmc_gawar import feature_space
from dmc_gawar.feature_space import (
    ASSIGN_BLOCK,
    ClusterModel,
    _assign,
    build_feature_space,
    cluster_features,
    minmax_normalize,
)
from conftest import make_dataset, random_dataset
from oracles import oracle_assign


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

    def test_preserves_order(self):
        column = np.array([[3.0], [1.0], [2.0]])
        out = minmax_normalize(column)
        assert np.array_equal(np.argsort(out[:, 0]), np.argsort(column[:, 0]))


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

    def test_iteration_cap_stops_an_unconverged_run(self, monkeypatch):
        matrix, vec = random_dataset(10, 10, 40, seed=0)
        assert cluster_features(matrix, np.arange(40), q=5, seed=0).n_iterations > 1
        monkeypatch.setattr(feature_space, "KMEANS_MAX_ITERS", 1)
        model = cluster_features(matrix, np.arange(40), q=5, seed=0)
        assert model.n_iterations == 1
        assert len(model.inertia_history) == 1

    def test_zero_restarts_rejected(self):
        matrix, vec = random_dataset(5, 5, 6, seed=0)
        with pytest.raises(ValueError, match="n_restarts"):
            cluster_features(matrix, np.arange(6), q=2, seed=0, n_restarts=0)

    @given(
        st.integers(1, 5 * ASSIGN_BLOCK + 3),
        st.integers(1, 8),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_blocked_assign_equals_broadcast(self, n, q, d, seed):
        """Distances and assignments equal the one-broadcast reference,
        for point counts on and off the block boundary; coordinates are
        quarter steps on [0, 1], so equal distances and argmin ties occur."""
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 5, size=(n, d)) / 4.0
        centroids = rng.integers(0, 5, size=(q, d)) / 4.0
        assignments, d2 = _assign(points, centroids)
        want_assignments, want_d2 = oracle_assign(points, centroids)
        assert np.array_equal(d2, want_d2)
        assert np.array_equal(assignments, want_assignments)


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

    def test_deterministic_draw(self):
        matrix, vec = random_dataset(8, 8, 24, seed=7)
        retained = np.arange(24)
        model = cluster_features(matrix, retained, q=5, seed=1)
        a = build_feature_space(retained, model, seed=9)
        b = build_feature_space(retained, model, seed=9)
        assert np.array_equal(a, b)
