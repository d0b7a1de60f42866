"""Binary decision tree with Gini splits, confusion metrics, subset evaluation.

The tree is grown greedily: at each impure node every midpoint between
consecutive distinct values of every column is tried, and the split with
the lowest weighted child Gini wins.  Ties go to the earlier column, then
the lower threshold.  A best split is accepted even at zero gain as long as
the node is impure and a candidate threshold exists; parity-style targets
need such splits at the root before any informative gain appears, and each
split strictly shrinks both children, so growth always terminates.  Trees
grow level by level, not by recursion, so a tree may be as deep as it has
rows.

One grower, ``_grow``, grows the trees of a group of splits together,
breadth first, as SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996) grows a
presorted CART tree.  It sorts every (column, split) once and keeps, per
column, the stacked row ids, value ranks and label codes in that order.
The open nodes of a level lie side by side, as segments at the same
positions in every column, each sorted by that column.  A running sum of
the codes along a block of columns, less each node's starting sum, gives
the left child of every cut of every node of every tree in one pass.  A
cut between equal values (equal ranks) or past a node's last row is no
cut.  Each node's minimum (``np.minimum.reduceat``) picks the earliest
column, then the first cut, and across blocks only a strictly lower value
wins: the row-major order of a per-node sweep, so each tree is the one a
node-by-node grower builds.  The winning column's order sends each node's
rows left or right, and one flat index per block regroups the rows of
open children, still sorted, for the next level.  Pure nodes, nodes of
fewer than 2 rows and nodes constant on every column become leaves.

The trees are flat node arrays: feature, threshold, left child and
prediction.  ``evaluate_subset`` routes the test rows of all its splits
through them at once, one level per step, and ``fit_tree`` is a group of
one split, converted to ``TreeNode``s.  A group holds at most ``_BLOCK``
(column, split) pairs, ``max(1, _BLOCK // k)`` splits of a k-column
subset: the ten splits of a narrow subset grow together, and a fit on
thousands of columns grows alone, ``_BLOCK`` columns per pass.

The weighted Gini of a cut depends only on four integers: the left size
and left ones, the node size and node ones.  A child of ``m`` rows, ``o``
of them class 1, contributes ``m * (1 - (o/m)**2 - ((m-o)/m)**2)``; fits of
at most ``GINI_TABLE_MAX_ROWS`` rows read that term from a table built
once per root size (only the latest table is kept; 0.5 MB at the bound),
so a cut costs two lookups instead of the arithmetic.  The table entries
come from the same float64 operations in the same order as the formula,
so every weighted Gini, and with it every tie and every tree, is
bit-identical to the formula's, which larger fits still evaluate.

Subset evaluation reuses its train/test index arrays: split plans depend
only on (labels, test fraction, seed), and a search scores thousands of
subsets under the same few plans.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabelVector, stratified_split

# (column, split) pairs sorted and scored per pass; bounds the temporaries
# on wide inputs.
_BLOCK = 256
# Largest fit whose child Gini terms come from a table of (n + 1)**2
# float64s (0.5 MB at 256 rows).  Near 256 rows a table rebuilt for every
# fit costs about what it saves; above, only a reused table pays off.
GINI_TABLE_MAX_ROWS = 256

# (root size, flat table) of the latest table.
_gini_table: tuple[int, np.ndarray] | None = None


@dataclass(frozen=True)
class TreeNode:
    """One tree node; leaves carry a class, internals carry a test."""

    prediction: int | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.prediction is not None


# Leaves are immutable and equal by value, so every tree shares these two.
_LEAVES = (TreeNode(prediction=0), TreeNode(prediction=1))


def _child_terms(size: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """``size`` times the Gini impurity of children with ``ones`` class-1 rows."""
    return size * (1.0 - (ones / size) ** 2 - ((size - ones) / size) ** 2)


def _table_for(n: int) -> np.ndarray:
    """Flat (n + 1) x (n + 1) table of ``_child_terms``; entry
    ``size * (n + 1) + ones``.  Row 0, an empty child, is read only past
    a node's last row, a cut that is masked."""
    global _gini_table
    latest = _gini_table
    if latest is None or latest[0] != n:
        sizes = np.arange(n + 1.0)
        terms = np.zeros((n + 1, n + 1))
        terms[1:] = _child_terms(sizes[1:, None], sizes[None, :])
        latest = _gini_table = (n, terms.ravel())
    return latest[1]


@dataclass(frozen=True)
class _Forest:
    """The trees of one group of splits as flat node arrays; node ``s`` is
    the root of split ``s``.  ``feature`` is a column of the grown values
    (-1 at a leaf) and an internal node's children are ``left`` and
    ``left + 1``.  A leaf is its own left child with an infinite threshold,
    so routing a row past its leaf keeps it there; ``depth`` steps route
    every row to its leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    prediction: np.ndarray
    depth: int


def _is_open(size: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Nodes that may split: at least 2 rows, both classes present."""
    return (size >= 2) & (ones > 0) & (ones < size)


def _regroup(buffers: tuple[np.ndarray, ...], side: np.ndarray, k: int, width: int, length: int) -> None:
    """Regroup, in place, the (k x length) grids at the front of flat
    ``buffers`` (stacked row ids first) by the side of each stacked row: 0
    left child, 1 right child, 2 closed.  Each column keeps its 0s, then
    its 1s, each in position order, so every child stays sorted.  Blocks of
    ``width`` columns go in order; a block's new cells end before the next
    block's old cells begin, so nothing is overwritten before it is read."""
    grids = [buffer[: k * length].reshape(k, length) for buffer in buffers]
    for start in range(0, k, width):
        block = slice(start, start + width)
        block_side = side.take(grids[0][block])
        count = len(block_side)
        left = np.flatnonzero(block_side == 0).reshape(count, -1)
        right = np.flatnonzero(block_side == 1).reshape(count, -1)
        kept = np.concatenate([left, right], axis=1).ravel()
        at = start * (kept.size // count)  # first cell of the block in the new grids
        for buffer, grid in zip(buffers, grids):
            buffer[at : at + kept.size] = grid[block].take(kept)


def _sort_columns(
    values: np.ndarray, rows: np.ndarray, codes: np.ndarray, columns: np.ndarray, n_splits: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The presort: every (column, split) of the stacked ``rows`` in
    ascending order, as flat (columns x stacked rows) buffers of stacked
    row ids, ranks and the rows' ``codes``, ``width`` columns per
    ``argsort``.  A rank counts the gaps below a value, so equal ranks mean
    no cut.  Ties may come in any order: no cut separates them."""
    n = len(rows) // n_splits
    order = np.empty(len(columns) * len(rows), dtype=np.int32)
    ranks = np.zeros(len(columns) * len(rows), dtype=np.min_scalar_type(n))
    sorted_codes = np.empty(len(columns) * len(rows), dtype=codes.dtype)
    for start in range(0, len(columns), width):
        chunk = columns[start : start + width]
        cells = slice(start * len(rows), (start + len(chunk)) * len(rows))
        block = values.take(rows * values.shape[1] + chunk[:, None]).reshape(len(chunk), n_splits, n)
        flat = np.argsort(block, axis=2)
        flat += np.arange(0, block.size, n).reshape(block.shape[:2] + (1,))
        ordered = block.take(flat)
        gaps = ordered[:, :, :-1] < ordered[:, :, 1:]
        np.cumsum(gaps, axis=2, dtype=ranks.dtype, out=ranks[cells].reshape(block.shape)[:, :, 1:])
        flat -= np.arange(0, block.size, len(rows))[:, None, None]  # stacked row ids
        order[cells] = flat.ravel()
        sorted_codes[cells] = codes.take(flat.ravel())
    return order, ranks, sorted_codes


def _best_cuts(
    codes: np.ndarray,
    ranks: np.ndarray,
    size: np.ndarray,
    starts: np.ndarray,
    node_of: np.ndarray,
    node_code: np.ndarray,
    table: np.ndarray | None,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weighted Gini, column, cut) of each open node's best cut; the
    Gini is inf where every column is constant on the node.  Cut ``i``
    lies after position ``i``; each node's cuts are ranked as a per-node
    sweep ranks them: earliest column, then first cut, and a later block
    of ``width`` columns must be strictly lower.

    ``node_code`` is the sum of each node's codes.  A running sum of codes
    less the codes of the nodes before is the code of a cut's left child,
    and ``node_code`` less that the code of its right child: a flat table
    index, or without a table the class-1 count, from which the formula
    computes the term with counts carried as exact float64.
    """
    count = len(starts)
    of = node_of[:-1]  # node of each cut
    cuts = np.arange(len(of))
    inside = of == node_of[1:]  # the cut after a node's last row leaves it
    code_end = np.cumsum(node_code).take(of)
    code_before = code_end - node_code.take(of)
    node_size = size.take(of)
    if table is None:
        left_n = cuts - starts.take(of) + 1.0
        right_n = np.maximum(node_size - left_n, 1.0)  # 0 only where the cut is masked

    best = np.full(count, np.inf)
    best_column = np.zeros(count, dtype=np.intp)
    best_cut = np.zeros(count, dtype=np.intp)
    for start in range(0, len(codes), width):
        block = slice(start, start + width)
        running = codes[block, :-1].cumsum(axis=1)
        if table is None:
            left_terms = _child_terms(left_n, running - code_before)
            weighted = (left_terms + _child_terms(right_n, code_end - running)) / node_size
        else:
            weighted = (table.take(running - code_before) + table.take(code_end - running)) / node_size
        cut = ranks[block, :-1] != ranks[block, 1:]
        cut &= inside
        weighted = np.where(cut, weighted, np.inf)
        lowest = np.minimum.reduceat(weighted, starts, axis=1)
        column = lowest.argmin(axis=0)
        lowest = lowest.min(axis=0)
        better = lowest < best
        if better.any():
            hit = weighted.take(column.take(of) * len(cuts) + cuts) == lowest.take(of)
            first_hit = np.minimum.reduceat(np.where(hit, cuts, len(cuts)), starts)
            best = np.where(better, lowest, best)
            best_column = np.where(better, start + column, best_column)
            best_cut = np.where(better, first_hit, best_cut)
    return best, best_column, best_cut


def _grow(values: np.ndarray, labels: np.ndarray, columns: np.ndarray, train: np.ndarray) -> _Forest:
    """Grow one tree per row of ``train`` (row ids of ``values`` and
    ``labels``, one split per row, all of one size) on the given columns,
    all trees one level per step.

    The open nodes of a level lie side by side: in every column's row
    order a node is one segment, at the same positions in every column,
    its rows sorted by that column.  One pass over a block of columns
    scores the cuts of every node of every tree; the winning column's
    order sends each node's rows to its children, and the rows of open
    children are regrouped, in their sorted order, for the next level.
    """
    n_splits, n = train.shape
    k = len(columns)
    rows = train.ravel()  # stacked row -> row of values
    y = labels.take(rows)
    table = _table_for(n) if n <= GINI_TABLE_MAX_ROWS else None
    stride = 0 if table is None else n + 1
    width = max(1, _BLOCK // n_splits)  # columns per block: at most _BLOCK (column, split) pairs

    capacity = n_splits * max(2 * n - 1, 1)  # a tree on n rows has at most 2n - 1 nodes
    feature = np.full(capacity, -1, dtype=np.intp)
    threshold = np.full(capacity, np.inf)
    left = np.arange(capacity)
    prediction = np.zeros(capacity, dtype=np.intp)
    node = np.arange(n_splits)  # tree ids of the open nodes, in layout order
    size = np.full(n_splits, n)
    ones = y.reshape(n_splits, n).sum(axis=1)
    prediction[node] = ones > size - ones
    n_nodes = n_splits
    depth = 0
    is_open = _is_open(size, ones)
    if k == 0 or not is_open.any():
        return _Forest(feature[:n_nodes], threshold[:n_nodes], left[:n_nodes], prediction[:n_nodes], 0)

    values = np.ascontiguousarray(values)  # cells are read by flat index
    # Codes are label + ``stride``: a node's running sum over its first
    # ``i`` rows is ``i * stride + ones``, the flat table index of a left
    # child of ``i`` rows (with ``stride`` 0, the ones).  Sums widen to int64.
    row_codes = (y + stride).astype(np.int16)
    buffers = _sort_columns(values, rows, row_codes, columns, n_splits, width)
    # a level's (k x positions) grids of row ids, ranks and codes sit at the buffers' front
    side = np.zeros(len(rows), dtype=np.int8)  # per stacked row: 0 left, 1 right, 2 closed
    if not is_open.all():
        side[np.repeat(~is_open, n)] = 2
        _regroup(buffers, side, k, width, len(rows))
        node, size, ones = node[is_open], size[is_open], ones[is_open]

    while len(node):
        positions = np.arange(size.sum())
        order, ranks, codes = (b[: k * len(positions)].reshape(k, -1) for b in buffers)
        starts = np.cumsum(size) - size
        node_of = np.repeat(np.arange(len(node)), size)  # node of each position
        best, best_column, best_cut = _best_cuts(
            codes, ranks, size, starts, node_of, size * stride + ones, table, width
        )
        splits = best < np.inf  # the others are constant on every column: leaves
        if not splits.any():
            break
        depth += 1
        # the stacked rows of each node in its winning column's order
        winner = order.take(best_column.take(node_of) * len(positions) + positions)
        goes_right = positions > best_cut.take(node_of)
        left_n = best_cut - starts + 1
        left_ones = ones - np.add.reduceat(y.take(winner) & goes_right, starts)

        column = columns.take(best_column)
        pair = rows.take(winner.take(best_cut[:, None] + [0, 1])) * values.shape[1] + column[:, None]
        below, above = values.take(pair).T  # the values on either side of the cut
        with np.errstate(over="ignore"):
            midpoint = (below + above) / 2.0
        # where the midpoint rounded onto `above` (or overflowed), `below`
        # still separates the two values under `<=`
        midpoint = np.where((below <= midpoint) & (midpoint < above), midpoint, below)

        parents = node[splits]
        first_child = n_nodes + 2 * np.arange(len(parents))
        feature[parents] = column[splits]
        threshold[parents] = midpoint[splits]
        left[parents] = first_child
        child = np.concatenate([first_child, first_child + 1])
        child_size = np.concatenate([left_n[splits], (size - left_n)[splits]])
        child_ones = np.concatenate([left_ones[splits], (ones - left_ones)[splits]])
        prediction[child] = child_ones > child_size - child_ones
        n_nodes += len(child)

        # rows of open children keep their side; the rest leave the layout
        child_open = _is_open(child_size, child_ones)
        to_side = np.full((len(node), 2), 2, dtype=np.int8)
        to_side[splits, 0] = np.where(child_open[: len(parents)], 0, 2)
        to_side[splits, 1] = np.where(child_open[len(parents) :], 1, 2)
        side[winner] = to_side.take(2 * node_of + goes_right)
        _regroup(buffers, side, k, width, len(positions))
        node, size, ones = child[child_open], child_size[child_open], child_ones[child_open]

    return _Forest(feature[:n_nodes], threshold[:n_nodes], left[:n_nodes], prediction[:n_nodes], depth)


def fit_tree(x: np.ndarray, y: np.ndarray) -> TreeNode:
    """Grow the full tree; stops at purity, <2 samples, or constant columns."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    if y.min(initial=0) < 0 or y.max(initial=0) > 1:
        raise ValueError("y must be coded 0/1")
    forest = _grow(x, y, np.arange(x.shape[1]), np.arange(len(y))[None])
    feature, threshold, left = forest.feature.tolist(), forest.threshold.tolist(), forest.left.tolist()
    nodes = [_LEAVES[p] for p in forest.prediction.tolist()]
    for u in range(len(nodes) - 1, -1, -1):  # children have higher ids than their parent
        if feature[u] >= 0:
            nodes[u] = TreeNode(
                feature=feature[u], threshold=threshold[u], left=nodes[left[u]], right=nodes[left[u] + 1]
            )
    return nodes[0]


def predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Predict one class per row; values equal to a threshold go left.

    Each test reads one value as a Python float (``item``), which is cheaper
    than numpy scalar indexing and converts no column the tree leaves unused.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(len(x), dtype=int)
    for i in range(len(x)):
        cursor = node
        while cursor.prediction is None:
            cursor = cursor.left if x.item(i, cursor.feature) <= cursor.threshold else cursor.right
        out[i] = cursor.prediction
    return out


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) of labels coded 0/1, class 1 positive."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if ((y_true | y_pred) >> 1).any():  # nonzero for any value but 0 and 1
        raise ValueError("labels and predictions must be coded 0/1")
    ((tn, fp, fn, tp),) = _confusion_rows(y_true[None], y_pred[None])
    return tp, tn, fp, fn


def _confusion_rows(y_true: np.ndarray, y_pred: np.ndarray) -> list[list[int]]:
    """[TN, FP, FN, TP] of each row of two (splits x rows) arrays of 0/1."""
    cells = 4 * np.arange(len(y_true))[:, None] + 2 * y_true + y_pred
    return np.bincount(cells.ravel(), minlength=4 * len(y_true)).reshape(-1, 4).tolist()


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator != 0.0 else 0.0


@dataclass(frozen=True)
class ClassificationMetrics:
    """Confusion-derived scores; every 0/0 collapses to 0 by convention."""

    tp: int
    tn: int
    fp: int
    fn: int
    overall: float
    recall: float
    specificity: float
    balanced: float
    precision: float
    f_measure: float
    mcc: float

    @classmethod
    def from_counts(cls, tp: int, tn: int, fp: int, fn: int) -> "ClassificationMetrics":
        overall = _safe_div(tp + tn, tp + tn + fp + fn)
        recall = _safe_div(tp, tp + fn)
        specificity = _safe_div(tn, tn + fp)
        balanced = (recall + specificity) / 2.0
        precision = _safe_div(tp, tp + fp)
        f_measure = _safe_div(2.0 * precision * recall, precision + recall)
        # the integer product, rounded once to float64, equals the float64
        # product numpy formed while that stays below 2**53 (every partial
        # product is then exact)
        product = math.prod((tp + fp, tp + fn, tn + fp, tn + fn))
        mcc = (tp * tn - fp * fn) / math.sqrt(float(product)) if product else 0.0
        return cls(tp, tn, fp, fn, overall, recall, specificity, balanced, precision, f_measure, mcc)

    def as_dict(self) -> dict[str, float]:
        return {
            "overall": self.overall,
            "recall": self.recall,
            "specificity": self.specificity,
            "balanced": self.balanced,
            "precision": self.precision,
            "f_measure": self.f_measure,
            "mcc": self.mcc,
        }


# Split plans kept for reuse; the oldest is dropped first.
_PLAN_MEMO_SIZE = 256
_plan_memo: dict[tuple[bytes, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _split_indices(
    labels: LabelVector, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (train, test) index arrays of ``stratified_split``, memoised.

    The plan is a pure function of the key, so reuse cannot change a result.
    """
    key = (labels.labels.tobytes(), test_fraction, seed)
    found = _plan_memo.get(key)
    if found is None:
        plan = stratified_split(labels, test_fraction, seed)
        found = (np.array(plan.train_indices), np.array(plan.test_indices))
        for indices in found:
            indices.flags.writeable = False
        if len(_plan_memo) >= _PLAN_MEMO_SIZE:
            del _plan_memo[next(iter(_plan_memo))]
        _plan_memo[key] = found
    return found


def _route(forest: _Forest, values: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Class of each row of ``test`` (row ids of ``values``, one split of
    the forest per row), all trees at once, one level per step.  Values
    are finite, so ``>`` sends exactly the rows ``predict`` sends right."""
    node = np.repeat(np.arange(len(test)), test.shape[1])
    rows = test.ravel()
    column = np.maximum(forest.feature, 0)  # a leaf tests any column against inf
    for _ in range(forest.depth):
        node = forest.left[node] + (values[rows, column[node]] > forest.threshold[node])
    return forest.prediction[node].reshape(test.shape)


def evaluate_subset(
    matrix: FeatureMatrix,
    labels: LabelVector,
    features: np.ndarray,
    n_splits: int = 10,
    test_fraction: float = 0.2,
    base_seed: int = 0,
) -> tuple[float, list[ClassificationMetrics]]:
    """Mean test accuracy of a feature subset over seeded repeated splits.

    Split k uses seed ``base_seed + k``, so the same arguments always yield
    the same value; this is the fitness the optimizer maximizes.  The
    trees of ``max(1, _BLOCK // len(features))`` splits grow together.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be at least 1")
    features = np.asarray(features, dtype=np.intp)
    if features.size and not 0 <= features.min() <= features.max() < matrix.m:
        raise ValueError(f"features must be column indices in 0..{matrix.m - 1}")
    plans = [_split_indices(labels, test_fraction, base_seed + k) for k in range(n_splits)]
    train = np.stack([plan[0] for plan in plans])
    test = np.stack([plan[1] for plan in plans])
    group = max(1, _BLOCK // max(len(features), 1))
    predicted = []
    for k in range(0, n_splits, group):
        forest = _grow(matrix.values, labels.labels, features, train[k : k + group])
        predicted.append(_route(forest, matrix.values, test[k : k + group]))
    counts = _confusion_rows(labels.labels[test], np.concatenate(predicted))
    per_split = [ClassificationMetrics.from_counts(tp, tn, fp, fn) for tn, fp, fn, tp in counts]
    mean_overall = float(np.mean([m.overall for m in per_split]))
    return mean_overall, per_split


def mean_metrics(per_split: list[ClassificationMetrics]) -> dict[str, float]:
    """Average each confusion-derived score over a list of splits."""
    keys = per_split[0].as_dict().keys()
    return {k: float(np.mean([m.as_dict()[k] for m in per_split])) for k in keys}
