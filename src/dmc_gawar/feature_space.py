"""Decorrelated candidate pools built by clustering the retained features.

After ranking, the retained feature columns are min-max normalized and
treated as points (one point per feature, coordinates are its values across
samples).  KMeans groups correlated features together; drawing one member
per cluster gives a candidate pool whose members carry complementary signal
rather than near-duplicates.

KMeans is k-means++ seeding plus Lloyd iterations.  Each assignment step
fills the (points x centroids) squared-distance matrix ``ASSIGN_BLOCK``
points at a time with the same broadcast expression, so every distance
is bit-identical to a one-shot (points x centroids x samples) broadcast
while the temporary stays small.  A |p|^2 - 2 p.c + |c|^2 matrix product
would be faster but rounds differently, and could move a point between
equidistant clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix


# Points per pass of the assignment step: at q = 100 centroids of 100
# coordinates the (block, q, d) temporary is 1.3 MB instead of 80 MB
# for all 1000 points at once.  16 timed faster than 4, 8, 32 or 64.
ASSIGN_BLOCK = 16
# Lloyd iterations stop once no centroid moves farther than KMEANS_TOL, or
# after KMEANS_MAX_ITERS.
KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-4


class EmptyClusterError(Exception):
    """Raised when an empty cluster cannot be repaired."""


@dataclass(frozen=True)
class ClusterModel:
    """Fitted grouping of feature points.

    ``assignments[i]`` is the cluster id of point i; ``centroids`` has one
    row per cluster; ``inertia_history`` holds the within-cluster sum of
    squared distances after each Lloyd update of the winning restart.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia_history: tuple[float, ...]
    n_iterations: int

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def minmax_normalize(columns: np.ndarray) -> np.ndarray:
    """Scale each column to [0, 1]; constant columns become all zeros."""
    columns = np.asarray(columns, dtype=float)
    lo = columns.min(axis=0)
    hi = columns.max(axis=0)
    span = hi - lo
    out = np.zeros_like(columns)
    nonconstant = span > 0.0
    out[:, nonconstant] = (columns[:, nonconstant] - lo[nonconstant]) / span[nonconstant]
    return out


def _kmeanspp_seed(points: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial centroids: first uniform, rest D^2-weighted."""
    n = points.shape[0]
    centroids = np.empty((q, points.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, q):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            choice = int(rng.choice(n, p=probs))
        else:
            choice = int(rng.integers(n))
        centroids[k] = points[choice]
        d2 = np.minimum(d2, ((points - centroids[k]) ** 2).sum(axis=1))
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each point, and the (n, q) squared distances."""
    d2 = np.empty((points.shape[0], centroids.shape[0]))
    for i in range(0, points.shape[0], ASSIGN_BLOCK):
        block = points[i : i + ASSIGN_BLOCK]
        d2[i : i + ASSIGN_BLOCK] = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def _repair_empty(
    points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Give each empty cluster the point farthest from its own centroid.

    Donor clusters that would themselves become empty (singletons) are
    masked out; with q <= n there is always a cluster holding two or more
    points while another sits empty, so the loop strictly shrinks the set
    of empty clusters and terminates.
    """
    q = centroids.shape[0]
    assignments = assignments.copy()
    counts = np.bincount(assignments, minlength=q)
    empties = list(np.flatnonzero(counts == 0))
    while empties:
        k = empties.pop()
        own_d2 = d2[np.arange(len(assignments)), assignments]
        donor_ok = counts[assignments] > 1
        if not donor_ok.any():
            raise EmptyClusterError(f"cluster {k} cannot be repaired")
        candidate = np.where(donor_ok, own_d2, -np.inf)
        point = int(candidate.argmax())
        counts[assignments[point]] -= 1
        assignments[point] = k
        counts[k] += 1
    return assignments


def _lloyd(
    points: np.ndarray, q: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float], int]:
    centroids = _kmeanspp_seed(points, q, rng)
    history: list[float] = []
    assignments = np.zeros(len(points), dtype=int)
    for iteration in range(1, KMEANS_MAX_ITERS + 1):
        assignments, d2 = _assign(points, centroids)
        counts = np.bincount(assignments, minlength=q)
        if (counts == 0).any():
            assignments = _repair_empty(points, centroids, assignments, d2)
            counts = np.bincount(assignments, minlength=q)
        new_centroids = np.empty_like(centroids)
        for k in range(q):
            new_centroids[k] = points[assignments == k].mean(axis=0)
        inertia = float(((points - new_centroids[assignments]) ** 2).sum())
        history.append(inertia)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift <= KMEANS_TOL:
            return assignments, centroids, history, iteration
    return assignments, centroids, history, KMEANS_MAX_ITERS


def cluster_features(
    matrix: FeatureMatrix,
    retained: np.ndarray,
    q: int,
    seed: int,
    n_restarts: int = 4,
) -> ClusterModel:
    """KMeans over the retained feature columns (points = features).

    ``q`` is clamped to the number of retained features.  Runs
    ``n_restarts`` independent seedings and keeps the lowest final inertia;
    restart streams are spawned from the seed so results are reproducible.
    """
    retained = np.asarray(retained, dtype=int)
    if len(retained) == 0:
        raise ValueError("retained feature set is empty")
    if q < 1:
        raise ValueError("q must be at least 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    q = min(q, len(retained))
    points = minmax_normalize(matrix.values[:, retained]).T  # one row per feature

    streams = np.random.SeedSequence(seed).spawn(n_restarts)
    best: tuple[np.ndarray, np.ndarray, list[float], int] | None = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        result = _lloyd(points, q, rng)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    assignments, centroids, history, n_iter = best
    return ClusterModel(
        assignments=assignments,
        centroids=centroids,
        inertia_history=tuple(history),
        n_iterations=n_iter,
    )


def build_feature_space(
    retained: np.ndarray, model: ClusterModel, seed: int
) -> np.ndarray:
    """Draw one retained feature per cluster, uniformly, ordered by cluster id.

    Returns original-matrix feature indices; length equals the cluster count.
    """
    retained = np.asarray(retained, dtype=int)
    rng = np.random.default_rng(seed)
    members_of = [np.flatnonzero(model.assignments == k) for k in range(model.n_clusters)]
    space = []
    for members in members_of:
        if len(members) == 0:
            raise EmptyClusterError("fitted model holds an empty cluster")
        pick = members[int(rng.integers(len(members)))]
        space.append(int(retained[pick]))
    return np.array(space, dtype=int)
