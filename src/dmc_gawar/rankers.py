"""Per-feature relevance scores built on the mixed-label congestion region.

Sorting one feature's values ascending (stable, so ties keep sample order)
yields a label sequence.  Call the label at position 0 the x-class and the
other label the y-class.  The congestion region spans from the first y-class
appearance to the last x-class appearance; it is where the two classes
interleave.  A small region means the feature nearly separates the classes
on its own.

Two scores are derived from the region:

* the mutual-congestion score is the region's width as a fraction of n,
* the distance score compares, for each class, how far the in-region values
  sit from the region boundary against how far the out-of-region values sit,
  so values crowding the boundary from inside push the score up.

Both are "smaller is better".

``score_features`` scores ``SCORE_BLOCK`` columns per pass: numpy's
default row-wise sort of the transposed block, with a stable re-sort of
only the rows holding a tied value (``_regions``), the region bounds from
``argmax`` over the class mask and its reverse, and the in-region mask
from sorted positions.  The four distance sums of each column must equal
the 1-D ``ndarray.sum`` the one-column score takes, because ``rank``
prints the scores and near-ties decide the order.  numpy's sum is pairwise, with a
rounding that depends on the element count, so the block's columns are
grouped by how many values a sum takes and each group is summed as a
C-contiguous (columns x count) array along its rows (``_row_sums``).
Zero-padded row sums and ``np.add.reduceat`` both differ in the last
bits.  ``dmc_score`` and ``mc_score`` are one-column calls of the same
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabelVector, _binary, _finite, _fraction

# The scoring methods: the distance score and the mutual-congestion width.
METHODS = ("dmc", "mc")

# Columns scored per pass.  Each (block x n) temporary stays in cache
# (400 KB at n = 100); 512 scored 100 x 20000 faster than 256 or 2048.
SCORE_BLOCK = 512

# Stand-in ratio when one class has zero spread outside the region but
# nonzero spread inside; the feature is maximally congested on that side.
ZERO_DENOMINATOR_SENTINEL = 1e6


@dataclass(frozen=True)
class CongestionRegion:
    """Half-open description of where the two classes interleave.

    ``order`` is the stable ascending argsort of the feature values.
    ``start``/``end`` are inclusive positions in that order; the region is
    empty when ``end < start`` (the feature separates the classes exactly).
    ``x_class`` is the label found at sorted position 0.
    """

    order: np.ndarray
    start: int
    end: int
    x_class: int

    @property
    def is_empty(self) -> bool:
        return self.end < self.start

    @property
    def width(self) -> int:
        return 0 if self.is_empty else self.end - self.start + 1


def _check_labels(labels: np.ndarray) -> None:
    if not ((labels == 0).any() and (labels == 1).any()):
        raise ValueError("the congestion region needs both classes in the labels")


def find_region(values: np.ndarray, labels: np.ndarray) -> CongestionRegion:
    """Locate the congestion region of one feature column."""
    values, labels = _finite(values, "values"), _binary(labels, "labels")
    if values.ndim != 1 or values.shape != labels.shape:
        raise ValueError("values and labels must be equal-length 1-D arrays")
    _check_labels(labels)
    order, _, _, start, end = _regions(values[None, :], labels)
    return CongestionRegion(
        order=order[0], start=int(start[0]), end=int(end[0]), x_class=int(labels[order[0, 0]])
    )


def _regions(columns: np.ndarray, labels: np.ndarray):
    """The congestion regions of the b feature columns held as the rows of
    a (b x n) array: each row's stable ascending order and its values in
    that order, the mask of its x-class in sorted position, and the
    region's first y-class and last x-class positions.

    The block takes numpy's default argsort, several times faster than the
    stable one.  A row without two equal values has one ascending order,
    which is the stable one; only rows with an adjacent equal pair after
    sorting (``-0.0 == 0.0`` counts) are sorted again, stably."""
    order = np.argsort(columns, axis=1)
    sorted_values = np.take_along_axis(columns, order, axis=1)
    tied = np.flatnonzero((sorted_values[:, 1:] == sorted_values[:, :-1]).any(axis=1))
    if len(tied):
        rows = columns[tied]
        order[tied] = np.argsort(rows, axis=1, kind="stable")
        sorted_values[tied] = np.take_along_axis(rows, order[tied], axis=1)
    sorted_labels = labels[order]
    is_x = sorted_labels == sorted_labels[:, :1]
    start = np.argmax(~is_x, axis=1)  # first y-class position
    end = columns.shape[1] - 1 - np.argmax(is_x[:, ::-1], axis=1)  # last x-class position
    return order, sorted_values, is_x, start, end


def _row_sums(d: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``d[i][mask[i]].sum()`` for every row i, bit for bit: rows with the
    same selected count k are summed as one C-contiguous (g, k) array along
    its last axis, the same pairwise sum a 1-D ``sum`` of k values runs."""
    counts = mask.sum(axis=1)
    by_count = np.argsort(counts, kind="stable")
    selected = np.compress(mask[by_count].ravel(), d[by_count])  # d[by_count][mask[by_count]], faster
    sums = np.empty(len(counts))
    ks, firsts, sizes = np.unique(counts[by_count], return_index=True, return_counts=True)
    offset = 0
    for k, first, g in zip(ks.tolist(), firsts.tolist(), sizes.tolist()):
        group = selected[offset : offset + g * k].reshape(g, k)
        sums[by_count[first : first + g]] = group.sum(axis=1)
        offset += g * k
    return sums


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.where(numerator > 0.0, ZERO_DENOMINATOR_SENTINEL, 0.0)
    np.divide(numerator, denominator, out=out, where=denominator > 0.0)
    return out


def _score_block(columns: np.ndarray, labels: np.ndarray, method: str) -> np.ndarray:
    """Scores of the b feature columns held as the rows of a C-ordered (b x n)
    array; see ``score_features``."""
    n = columns.shape[1]
    _, sorted_values, is_x, start, end = _regions(columns, labels)
    empty = end < start
    if method == "mc":
        return np.where(empty, 0, end - start + 1) / n

    rows = np.arange(len(start))
    # A sum of up to n distances, each at most the column's range, can
    # overflow for finite values near 1e308.  Such a column is scaled by a
    # power of two 2^-s with 2^s > 4n: exact, so its distances, sums and
    # ratios are those of arithmetic without overflow.
    with np.errstate(over="ignore"):
        huge = np.isinf(2.0 * n * (sorted_values[:, -1] - sorted_values[:, 0]))
    sorted_values[huge] *= 2.0 ** -(4 * n).bit_length()
    positions = np.arange(n)
    inside = (positions >= start[:, None]) & (positions <= end[:, None])
    score = np.zeros(len(start))
    for is_cls, anchor in ((is_x, sorted_values[rows, start]), (~is_x, sorted_values[rows, end])):
        distances = np.abs(sorted_values - anchor[:, None])
        numerator = _row_sums(distances, is_cls & inside)
        denominator = _row_sums(distances, is_cls & ~inside)
        score += _ratio(numerator, denominator)
    score[empty] = 0.0
    return score


def _score_columns(values: np.ndarray, labels: np.ndarray, method: str) -> np.ndarray:
    if method not in METHODS:
        raise ValueError(f"unknown scoring method {method!r}")
    if labels.shape != values.shape[:1]:
        raise ValueError("labels must hold one entry per row of values")
    _check_labels(labels)
    m = values.shape[1]
    scores = np.empty(m)
    for j in range(0, m, SCORE_BLOCK):
        block = np.ascontiguousarray(values[:, j : j + SCORE_BLOCK].T)
        scores[j : j + SCORE_BLOCK] = _score_block(block, labels, method)
    return scores


def _one_column(values: np.ndarray, labels: np.ndarray, method: str) -> float:
    values = _finite(values, "values")
    if values.ndim != 1:
        raise ValueError("values and labels must be equal-length 1-D arrays")
    return float(_score_columns(values[:, None], _binary(labels, "labels"), method)[0])


def mc_score(values: np.ndarray, labels: np.ndarray) -> float:
    """Width of the congestion region as a fraction of the sample count."""
    return _one_column(values, labels, "mc")


def dmc_score(values: np.ndarray, labels: np.ndarray) -> float:
    """Distance-based congestion score of one feature column.

    Anchors are the region's boundary values: the value at the region start
    (first y-class appearance) and the value at the region end (last x-class
    appearance).  For each class, sum |value - anchor| over that class's
    in-region members, divide by the same sum over its out-of-region members,
    and add the two ratios.  An empty region scores 0.  A zero denominator
    under a positive numerator contributes ``ZERO_DENOMINATOR_SENTINEL``.
    """
    return _one_column(values, labels, "dmc")


def score_features(matrix: FeatureMatrix, labels: LabelVector, method: str = "dmc") -> np.ndarray:
    """Score every column of the matrix; method is ``"dmc"`` or ``"mc"``.

    Columns are scored ``SCORE_BLOCK`` at a time with the arithmetic of
    ``dmc_score``/``mc_score``, so each score equals the one-column call.
    """
    return _score_columns(matrix.values, labels.labels, method)


def order_by_score(scores: np.ndarray) -> np.ndarray:
    """Feature indices ascending by score; ties break toward the lower index."""
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(len(scores)), scores))


def rank_all(matrix: FeatureMatrix, labels: LabelVector, method: str = "dmc") -> np.ndarray:
    """All feature indices ordered ascending by score, lower index on ties,
    so the ranking is a pure function of its inputs."""
    return order_by_score(score_features(matrix, labels, method=method))


def keep_count(m: int, keep_fraction: float) -> int:
    """max(1, floor(keep_fraction * m)), guarded against float slop in the
    product (0.3 * 10 must floor to 3, not 2)."""
    keep_fraction = _fraction(keep_fraction, "keep_fraction", closed=True)
    return max(1, int(np.floor(keep_fraction * m + 1e-9)))

