"""Decorrelated candidate pools built by clustering the retained features.

After ranking, the retained feature columns are min-max normalized and
treated as points (one point per feature, coordinates are its values across
samples).  KMeans groups correlated features together; drawing one member
per cluster gives a candidate pool whose members carry complementary signal
rather than near-duplicates.

KMeans is k-means++ seeding plus Lloyd iterations.  The assignment step
estimates every point-to-centroid squared distance with one matrix product,
|p|^2 + |c|^2 - 2 p.c, and bounds how far that estimate can sit from the
exact ``((p - c)**2).sum()``.  Only the centroids the bound cannot rule out
are measured exactly, and the nearest of them wins, the lowest index on a
tie.  Every other centroid is provably strictly farther, so each
assignment, ties included, is the one the exact distances alone give.

The update step sorts the assignments once, stably, and takes each
cluster's mean over its contiguous slice of the points gathered in that
order: the rows of ``points[assignments == k]``, in the same order and
layout, so each centroid is that mask's mean to the bit.  The seeding
distances and the inertia are each formed in one buffer, in the layout
of the plain numpy expression, so their sums are that expression's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, _column_ids, _count, _finite


# Coordinates measured per pass of the exact recheck in ``_assign``.  Points
# close to one centroid give about one candidate pair each (1000 pairs on
# wide-screen, one pass), but identical points, such as constant features,
# tie with every centroid: 1000 x 100 pairs of 100 coordinates would need
# 80 MB per temporary instead of 2 MB.
RECHECK_ELEMENTS = 1 << 18
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

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]

    @property
    def n_iterations(self) -> int:
        # each Lloyd update appends one inertia
        return len(self.inertia_history)

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def minmax_normalize(columns: np.ndarray) -> np.ndarray:
    """Scale each column to [0, 1]; constant columns become all zeros.
    Every value must be finite.

    A column whose range overflows (finite values such as -1e308 and 1e308)
    is halved first.  Halving is exact, so its cells come out as they would
    in arithmetic without overflow, and every other column is untouched.
    """
    columns = _finite(columns, "columns")
    lo = columns.min(axis=0)
    hi = columns.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    huge = np.isinf(span)
    if huge.any():
        columns = columns.copy()
        columns[:, huge] *= 0.5
        lo[huge] *= 0.5
        span[huge] = hi[huge] * 0.5 - lo[huge]
    nonconstant = span > 0.0
    out = np.zeros_like(columns)
    np.subtract(columns, lo, out=out, where=nonconstant)
    np.divide(out, span, out=out, where=nonconstant)
    return out


def _kmeanspp_seed(points: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial centroids: first uniform, rest D^2-weighted.

    Each point's squared distance to a new centroid is formed in one
    reused buffer of ``points``' layout, so its row sums are those of
    ``((points - c) ** 2).sum(axis=1)`` bit for bit."""
    n = points.shape[0]
    centroids = np.empty((q, points.shape[1]), dtype=float)
    buffer = np.empty_like(points)

    def d2_to(centroid: np.ndarray) -> np.ndarray:
        np.subtract(points, centroid, out=buffer)
        np.multiply(buffer, buffer, out=buffer)
        return buffer.sum(axis=1)

    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = d2_to(centroids[0])
    for k in range(1, q):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            choice = int(rng.choice(n, p=probs))
        else:
            choice = int(rng.integers(n))
        centroids[k] = points[choice]
        np.minimum(d2, d2_to(centroids[k]), out=d2)
    return centroids


def _sq_distances(owned: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Exact squared distances of paired rows, summed along the contiguous
    last axis: bit for bit the entries of the (n, q, d) broadcast.
    ``owned`` is a C-contiguous copy the caller gives up; it is overwritten."""
    owned -= other
    owned **= 2
    return owned.sum(axis=-1)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid of each point, the lowest index on a tie.

    Let E = ``_sq_distances(p, c)`` and T the exact real |p - c|^2.  Each of
    E's d terms carries three rounding factors (the difference's, squared,
    and the square's) and their sum d - 1 more, so |E - T| <= gamma(d + 2) T
    with gamma(k) = k u / (1 - k u) and u = eps / 2.  The estimate
    D = |p|^2 + |c|^2 - 2 p.c takes its dot products in any order (BLAS):
    each is within gamma(d) of the exact one, scaled by |p|^2, |c|^2 or
    |p| |c| (Cauchy-Schwarz), and the two sums add one rounding each, so
    |D - T| <= gamma(d + 2) (|p| + |c|)^2.  With T <= (|p| + |c|)^2,
    |D - E| <= 2 gamma(d + 2) (|p| + |c|)^2, about (d + 2) eps (|p| + |c|)^2.
    The slack used is four times that, from the computed norms, plus
    4 (d + 2) subnormal steps for products that underflow (at most 2.5 d
    half-steps in all); the margin also covers the rounding of the norms
    and of the slack itself.

    A centroid stays a candidate unless its lower bound D - slack exceeds
    the point's smallest upper bound D + slack: then its E is strictly
    above the E of the centroid with that upper bound.  So the exact
    minimum, and its first index, lie among the candidates, which are
    measured exactly.  A NaN or infinite bound rules nothing out.
    """
    rows, cols = _candidates(points, centroids)
    step = max(1, RECHECK_ELEMENTS // points.shape[1])
    exact = np.concatenate([
        _sq_distances(points[rows[i : i + step]], centroids[cols[i : i + step]])
        for i in range(0, len(rows), step)
    ])
    # Row-major candidates: a stable sort by (row, distance) keeps equal
    # distances in column order, so each row's first entry is its argmin.
    order = np.lexsort((exact, rows))
    rows, cols = rows[order], cols[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return cols[first]


def _candidates(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (point, centroid) pairs that ``_assign``'s bound cannot
    rule out; its (n, q) temporaries are freed before the recheck."""
    d = points.shape[1]
    p_norm2 = np.einsum("ij,ij->i", points, points)
    c_norm2 = np.einsum("ij,ij->i", centroids, centroids)
    estimate = points @ centroids.T
    estimate *= -2.0
    estimate += p_norm2[:, None]
    estimate += c_norm2[None, :]
    slack = np.sqrt(p_norm2)[:, None] + np.sqrt(c_norm2)[None, :]
    slack **= 2
    slack *= 4.0 * (d + 2) * np.finfo(float).eps
    slack += 4.0 * (d + 2) * np.finfo(float).smallest_subnormal
    upper = (estimate + slack).min(axis=1, keepdims=True)
    lower = np.subtract(estimate, slack, out=estimate)
    return np.nonzero(~(lower > upper))


def _repair_empty(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """Give each empty cluster the point farthest from its own centroid.

    Donor clusters that would themselves become empty (singletons) are
    masked out; with q <= n there is always a cluster holding two or more
    points while another sits empty, so the loop strictly shrinks the set
    of empty clusters and terminates.  A moved point is a singleton from
    then on, so its stale distance is never read again.
    """
    q = centroids.shape[0]
    assignments = assignments.copy()
    own_d2 = _sq_distances(centroids[assignments], points)  # (c - p)**2 is (p - c)**2
    counts = np.bincount(assignments, minlength=q)
    empties = list(np.flatnonzero(counts == 0))
    while empties:
        k = empties.pop()
        donor_ok = counts[assignments] > 1
        if not donor_ok.any():
            raise EmptyClusterError(f"cluster {k} cannot be repaired")
        candidate = np.where(donor_ok, own_d2, -np.inf)
        point = int(candidate.argmax())
        counts[assignments[point]] -= 1
        assignments[point] = k
        counts[k] += 1
    return assignments


def _cluster_means(points: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cluster's ``points[assignments == k].mean(axis=0)``, bit for
    bit: a stable sort by cluster gathers each cluster's rows into one
    contiguous slice, in point order and in the layout the mask gives."""
    grouped = points[np.argsort(assignments, kind="stable")]
    means = np.empty((len(counts), points.shape[1]))
    ends = np.cumsum(counts)
    for k, (start, end) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
        means[k] = grouped[start:end].mean(axis=0)
    return means


def _inertia(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    """``((points - centroids[assignments]) ** 2).sum()`` in the one
    gathered buffer, which has the broadcast's C layout, so the pairwise
    sum runs over the same values in the same order."""
    buffer = centroids[assignments]
    np.subtract(points, buffer, out=buffer)
    np.multiply(buffer, buffer, out=buffer)
    return float(buffer.sum())


def _lloyd(
    points: np.ndarray, q: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    centroids = _kmeanspp_seed(points, q, rng)
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITERS):
        assignments = _assign(points, centroids)
        counts = np.bincount(assignments, minlength=q)
        if (counts == 0).any():
            assignments = _repair_empty(points, centroids, assignments)
            counts = np.bincount(assignments, minlength=q)
        new_centroids = _cluster_means(points, assignments, counts)
        history.append(_inertia(points, new_centroids, assignments))
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift <= KMEANS_TOL:
            break
    return assignments, centroids, history


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
    retained = _column_ids(retained, matrix.m, "retained")
    if len(retained) == 0:
        raise ValueError("retained feature set is empty")
    q = min(_count(q, "q"), len(retained))
    n_restarts = _count(n_restarts, "n_restarts")
    seed = _count(seed, "seed")
    points = minmax_normalize(matrix.values[:, retained]).T  # one row per feature

    streams = np.random.SeedSequence(seed).spawn(n_restarts)
    best: tuple[np.ndarray, np.ndarray, list[float]] | None = None
    for stream in streams:
        rng = np.random.default_rng(stream)
        result = _lloyd(points, q, rng)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    assignments, centroids, history = best
    return ClusterModel(assignments=assignments, centroids=centroids, inertia_history=tuple(history))


def build_feature_space(
    retained: np.ndarray, model: ClusterModel, seed: int
) -> np.ndarray:
    """Draw one retained feature per cluster, uniformly, ordered by cluster id.

    Returns original-matrix feature indices; length equals the cluster count.
    """
    retained = _column_ids(retained, None, "retained")
    rng = np.random.default_rng(_count(seed, "seed"))
    members_of = [np.flatnonzero(model.assignments == k) for k in range(model.n_clusters)]
    space = []
    for members in members_of:
        if len(members) == 0:
            raise EmptyClusterError("fitted model holds an empty cluster")
        pick = members[int(rng.integers(len(members)))]
        space.append(int(retained[pick]))
    return np.array(space, dtype=int)
