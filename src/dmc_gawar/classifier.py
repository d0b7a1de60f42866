"""Binary decision tree with Gini splits, confusion metrics, subset evaluation.

The tree is grown greedily: at each impure node every midpoint between
consecutive distinct values of every column is tried, and the split with
the lowest weighted child Gini wins.  Ties go to the earlier column, then
the lower threshold.  A best split is accepted even at zero gain as long as
the node is impure and a candidate threshold exists; parity-style targets
need such splits at the root before any informative gain appears, and each
split strictly shrinks both children, so growth always terminates.  Nodes
are grown from an explicit stack, not by recursion, so a tree may be as
deep as it has rows.

``fit_tree`` sorts every column once per fit (the presort of SLIQ and
CART) and keeps each column's row order, value ranks and labels in that
order.  A node is a boolean row mask; read through the presort it selects
the node's rows in the order a fresh stable sort of the node would give.
Columns are scored ``_BLOCK`` at a time as one (columns x positions)
weighted-Gini matrix whose row-major ``argmin`` picks the earliest column,
then the lowest threshold; across blocks only a strictly lower value wins,
so earlier blocks keep ties.  A cut between two equal values is no cut;
equal values share a rank, which is stored in the smallest unsigned type
that holds the row count, so masking such cuts reads one byte per row on
fits of up to 255 rows.

The weighted Gini of a cut depends only on four integers: the left size
and left ones, the node size and node ones.  A child of ``m`` rows, ``o``
of them class 1, contributes ``m * (1 - (o/m)**2 - ((m-o)/m)**2)``; fits of
at most ``GINI_TABLE_MAX_ROWS`` rows read that term from a table built
once per root size (only the latest table is kept; 0.5 MB at the bound),
so a node costs two lookups per cut instead of the arithmetic.  The table
entries come from the same float64 operations in the same order as the
formula, so every weighted Gini, and with it every tie and every tree, is
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

# Columns sorted and scored per pass; bounds the temporaries on wide inputs.
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
    ``size * (n + 1) + ones``.  Row 0 (an empty child) is never read."""
    global _gini_table
    latest = _gini_table
    if latest is None or latest[0] != n:
        sizes = np.arange(n + 1.0)
        terms = np.zeros((n + 1, n + 1))
        terms[1:] = _child_terms(sizes[1:, None], sizes[None, :])
        latest = _gini_table = (n, terms.ravel())
    return latest[1]


@dataclass(frozen=True)
class _Presort:
    """Every column of one fit in ascending order (stable): row ids,
    ``ranks`` and ``codes``.  A rank counts the gaps below a value, so two
    rows have equal ranks exactly when no cut separates them.  Codes are
    label + ``stride``: a running sum of codes over a node's first ``i``
    rows is ``i * stride + ones``, the flat table index of a left child of
    ``i`` rows (with ``stride`` 0, the ones alone)."""

    x: np.ndarray
    order: np.ndarray
    ranks: np.ndarray
    codes: np.ndarray
    stride: int
    table: np.ndarray | None


def _presort(x: np.ndarray, y: np.ndarray) -> _Presort:
    n_rows, m = x.shape
    # block by block, so no int64 order of the whole matrix is ever held
    order = np.empty((m, n_rows), dtype=np.int32)
    ranks = np.zeros((m, n_rows), dtype=np.min_scalar_type(n_rows))
    for start in range(0, m, _BLOCK):
        columns = x[:, start : start + _BLOCK].T
        block = np.argsort(columns, axis=1, kind="stable")
        order[start : start + _BLOCK] = block
        ordered = np.take_along_axis(columns, block, axis=1)
        gaps = ordered[:, :-1] < ordered[:, 1:]
        np.cumsum(gaps, axis=1, dtype=ranks.dtype, out=ranks[start : start + _BLOCK, 1:])
    table = _table_for(n_rows) if n_rows <= GINI_TABLE_MAX_ROWS else None
    stride = 0 if table is None else n_rows + 1
    codes = y.astype(np.int16)[order]  # cumsum widens to int64
    codes += stride  # at most GINI_TABLE_MAX_ROWS + 2, within int16
    return _Presort(x, order, ranks, codes, stride, table)


def fit_tree(x: np.ndarray, y: np.ndarray) -> TreeNode:
    """Grow the full tree; stops at purity, <2 samples, or constant columns."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    if y.min(initial=0) < 0 or y.max(initial=0) > 1:
        raise ValueError("y must be coded 0/1")
    presort = _presort(x, y)

    # Preorder growth from a stack: a node's children get the next two ids,
    # so building the TreeNodes in reverse id order meets children first.
    specs: list[TreeNode | tuple[int, float, int] | None] = [None]
    stack = [(0, np.ones(len(y), dtype=bool), len(y), int(y.sum()))]
    while stack:
        node, in_node, n, ones = stack.pop()
        split = None
        if n >= 2 and 0 < ones < n:
            split = _node_split(presort, in_node, n, ones)
        if split is None:
            specs[node] = _LEAVES[ones > n - ones]
            continue
        feature, left_n, left_ones, below, above = split
        threshold = (below + above) / 2.0
        if not below <= threshold < above:
            # the midpoint rounded onto `above` (or overflowed); `below` still
            # separates the two values under `<=`
            threshold = below
        left = len(specs)
        specs[node] = (feature, threshold, left)
        specs += [None, None]
        in_left = in_node & (x[:, feature] <= threshold)
        stack.append((left + 1, in_node ^ in_left, n - left_n, ones - left_ones))
        stack.append((left, in_left, left_n, left_ones))

    for node in range(len(specs) - 1, -1, -1):
        spec = specs[node]
        if not isinstance(spec, TreeNode):
            feature, threshold, left = spec
            specs[node] = TreeNode(
                feature=feature, threshold=threshold, left=specs[left], right=specs[left + 1]
            )
    return specs[0]


def _node_split(
    presort: _Presort, in_node: np.ndarray, n: int, ones: int
) -> tuple[int, int, int, float, float] | None:
    """Best split of a node as (feature, left size, left ones, value below,
    value above the cut), or None when every column is constant on it.

    With a table, the weighted Gini of a cut is (left term + right term) / n,
    both read from the table: the right child's flat index is
    ``n * stride + ones`` minus the left child's.  Without one, the same
    terms are computed from counts carried as exact float64.  The block
    temporaries die on return, before the children are grown.
    """
    if presort.table is None:
        left_n = np.arange(1.0, n)
        right_n = n - left_n
    else:
        node_index = n * presort.stride + ones
    best_weighted = np.inf
    best = None
    for start in range(0, len(presort.order), _BLOCK):
        columns = slice(start, start + _BLOCK)
        selected = in_node[presort.order[columns]]
        k = len(selected)
        left_index = presort.codes[columns][selected].reshape(k, n).cumsum(axis=1)[:, :-1]
        if presort.table is None:
            left_terms = _child_terms(left_n, left_index)
            weighted = (left_terms + _child_terms(right_n, ones - left_index)) / n
        else:
            weighted = (presort.table[left_index] + presort.table[node_index - left_index]) / n
        ranks = presort.ranks[columns][selected].reshape(k, n)
        weighted[ranks[:, :-1] == ranks[:, 1:]] = np.inf  # no gap, no threshold

        j, pos = divmod(int(weighted.argmin()), n - 1)
        if weighted[j, pos] < best_weighted:
            best_weighted = weighted[j, pos]
            feature = start + j
            rows = presort.order[feature][selected[j]]  # the node's rows, in order
            left_ones = int(left_index[j, pos]) - (pos + 1) * presort.stride
            below = presort.x.item(rows[pos], feature)
            above = presort.x.item(rows[pos + 1], feature)
            best = (feature, pos + 1, left_ones, below, above)
    return best


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
    tn, fp, fn, tp = np.bincount(2 * y_true + y_pred, minlength=4).tolist()
    return tp, tn, fp, fn


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


def evaluate_split(
    matrix: FeatureMatrix,
    labels: LabelVector,
    features: np.ndarray,
    test_fraction: float,
    seed: int,
) -> ClassificationMetrics:
    """Train on one stratified split restricted to the given columns."""
    features = np.asarray(features, dtype=int)
    train, test = _split_indices(labels, test_fraction, seed)
    # each side is gathered in one copy, never the whole column subset
    tree = fit_tree(matrix.values[train[:, None], features], labels.labels[train])
    predictions = predict(tree, matrix.values[test[:, None], features])
    return ClassificationMetrics.from_counts(*confusion_counts(labels.labels[test], predictions))


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
    the same value; this is the fitness the optimizer maximizes.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be at least 1")
    per_split = [
        evaluate_split(matrix, labels, features, test_fraction, base_seed + k)
        for k in range(n_splits)
    ]
    mean_overall = float(np.mean([m.overall for m in per_split]))
    return mean_overall, per_split


def mean_metrics(per_split: list[ClassificationMetrics]) -> dict[str, float]:
    """Average each confusion-derived score over a list of splits."""
    keys = per_split[0].as_dict().keys()
    return {k: float(np.mean([m.as_dict()[k] for m in per_split])) for k in keys}
