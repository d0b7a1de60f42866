"""Binary decision tree with Gini splits, confusion metrics, subset evaluation.

The tree is grown greedily: at each impure node every midpoint between
consecutive distinct values of every column is tried, and the split with
the lowest weighted child Gini wins.  Ties go to the earlier column, then
the lower threshold.  A best split is accepted even at zero gain as long as
the node is impure and a candidate threshold exists; parity-style targets
need such splits at the root before any informative gain appears, and each
split strictly shrinks both children, so growth always terminates.

``fit_tree`` sorts every column once per fit (the presort of SLIQ and
CART).  A node is a boolean row mask over that one order: filtering a
stable sort keeps it stable, so each node sees its rows in the order a
fresh sort of the node would give.  Columns are scored ``_BLOCK`` at a
time as one (columns x positions) weighted-Gini matrix whose row-major
``argmin`` picks the earliest column, then the lowest threshold; across
blocks only a strictly lower value wins, so earlier blocks keep ties.

Subset evaluation reuses its train/test index arrays: split plans depend
only on (labels, test fraction, seed), and a search scores thousands of
subsets under the same few plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabelVector, stratified_split

# Columns sorted and scored per pass; bounds the temporaries on wide inputs.
_BLOCK = 256


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


def _leaf(n: int, ones: int) -> TreeNode:
    return TreeNode(prediction=1 if ones > n - ones else 0)


def fit_tree(x: np.ndarray, y: np.ndarray) -> TreeNode:
    """Grow the full tree; stops at purity, <2 samples, or constant columns."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    # sorted block by block, so no int64 order of the whole matrix is ever held
    order = np.empty(x.shape, dtype=np.int32)
    for start in range(0, x.shape[1], _BLOCK):
        columns = slice(start, start + _BLOCK)
        order[:, columns] = np.argsort(x[:, columns], axis=0, kind="stable")
    return _grow(x, y.astype(float), order, np.ones(len(y), dtype=bool), len(y), int(y.sum()))


def _grow(
    x: np.ndarray, y: np.ndarray, order: np.ndarray, in_node: np.ndarray, n: int, ones: int
) -> TreeNode:
    """Subtree over the ``n`` rows flagged in ``in_node``, ``ones`` of them class 1."""
    if n < 2 or ones == 0 or ones == n:
        return _leaf(n, ones)
    split = _node_split(x, y, order, in_node, n, ones)
    if split is None:
        return _leaf(n, ones)
    feature, left_n, left_ones, below, above = split
    threshold = (below + above) / 2.0
    if not below <= threshold < above:
        # the midpoint rounded onto `above` (or overflowed); `below` still
        # separates the two values under `<=`
        threshold = below
    goes_left = x[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(x, y, order, in_node & goes_left, left_n, left_ones),
        right=_grow(x, y, order, in_node & ~goes_left, n - left_n, ones - left_ones),
    )


def _node_split(
    x: np.ndarray, y: np.ndarray, order: np.ndarray, in_node: np.ndarray, n: int, ones: int
) -> tuple[int, int, int, float, float] | None:
    """Best split of a node as (feature, left size, left ones, value below,
    value above the cut), or None when every column is constant on it.

    Counts are carried as float64, where they are exact, so every weighted
    Gini equals the one computed from integer counts bit for bit.  The
    block temporaries die on return, before the children are grown.
    """
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    best_weighted = np.inf
    best = None
    for start in range(0, x.shape[1], _BLOCK):
        block = order[:, start : start + _BLOCK].T
        k = len(block)
        node_order = block[in_node[block]].reshape(k, n)
        xs = x[node_order, np.arange(start, start + k)[:, None]]

        left_ones = y[node_order].cumsum(axis=1)[:, :-1]
        right_ones = ones - left_ones
        left_zeros = left_n - left_ones
        right_zeros = right_n - right_ones
        gini_left = 1.0 - (left_ones / left_n) ** 2 - (left_zeros / left_n) ** 2
        gini_right = 1.0 - (right_ones / right_n) ** 2 - (right_zeros / right_n) ** 2
        weighted = (left_n * gini_left + right_n * gini_right) / n
        weighted[~(xs[:, :-1] < xs[:, 1:])] = np.inf  # no gap, no threshold

        j, pos = divmod(int(weighted.argmin()), n - 1)
        if weighted[j, pos] < best_weighted:
            best_weighted = weighted[j, pos]
            best = (start + j, pos + 1, int(left_ones[j, pos]), float(xs[j, pos]), float(xs[j, pos + 1]))
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
        while not cursor.is_leaf:
            cursor = cursor.left if x.item(i, cursor.feature) <= cursor.threshold else cursor.right
        out[i] = cursor.prediction
    return out


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) with class 1 as the positive class."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
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
        denom_parts = (tp + fp, tp + fn, tn + fp, tn + fn)
        if any(p == 0 for p in denom_parts):
            mcc = 0.0
        else:
            mcc = (tp * tn - fp * fn) / float(np.sqrt(np.prod(np.array(denom_parts, dtype=float))))
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
