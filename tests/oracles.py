"""Hand-written reference implementations used only to cross-check the
package.  Plain loops and literals on purpose; nothing here is imported
from the library under test except the ``TreeNode`` container, so that
reference trees compare equal (``==``) to the library's."""

import csv
import math

import numpy as np

from dmc_gawar.classifier import TreeNode


def oracle_region(values, labels):
    """(sorted order, start, end, x_class) of the mixed-label span."""
    order = sorted(range(len(values)), key=lambda i: values[i])  # stable
    lab = [int(labels[i]) for i in order]
    x = lab[0]
    y = 1 - x
    start = min(i for i, l in enumerate(lab) if l == y)
    end = max(i for i, l in enumerate(lab) if l == x)
    return order, start, end, x


def oracle_mc(values, labels):
    _, start, end, _ = oracle_region(values, labels)
    if end < start:
        return 0.0
    return (end - start + 1) / len(values)


def oracle_dmc(values, labels):
    order, start, end, x = oracle_region(values, labels)
    if end < start:
        return 0.0
    vals = [float(values[i]) for i in order]
    lab = [int(labels[i]) for i in order]
    y_min = vals[start]
    x_max = vals[end]

    num_x = den_x = num_y = den_y = 0.0
    for pos in range(len(vals)):
        inside = start <= pos <= end
        if lab[pos] == x:
            d = abs(vals[pos] - y_min)
            if inside:
                num_x += d
            else:
                den_x += d
        else:
            d = abs(vals[pos] - x_max)
            if inside:
                num_y += d
            else:
                den_y += d

    def ratio(num, den):
        if den > 0.0:
            return num / den
        return 1e6 if num > 0.0 else 0.0

    return ratio(num_x, den_x) + ratio(num_y, den_y)


def _column_region(values, labels):
    order = np.argsort(values, kind="stable")
    sorted_labels = labels[order]
    x = int(sorted_labels[0])
    start = int(np.flatnonzero(sorted_labels == 1 - x)[0])
    end = int(np.flatnonzero(sorted_labels == x)[-1])
    return order, start, end, x


def oracle_column_mc(values, labels):
    """The one-column width score as numpy computed it before block-wise
    ranking; ``score_features(..., "mc")`` must equal it exactly."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _, start, end, _ = _column_region(values, labels)
    width = 0 if end < start else end - start + 1
    return width / len(values)


def oracle_column_dmc(values, labels):
    """The one-column distance score as numpy computed it before block-wise
    ranking: each of the four distance sums is a 1-D ``ndarray.sum`` (a
    pairwise sum), so ``score_features(..., "dmc")`` must equal it exactly."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=int)
    order, start, end, x = _column_region(values, labels)
    if end < start:
        return 0.0
    sorted_values = values[order]
    sorted_labels = labels[order]
    inside = np.zeros(len(values), dtype=bool)
    inside[start : end + 1] = True
    score = 0.0
    for cls, anchor in ((x, sorted_values[start]), (1 - x, sorted_values[end])):
        is_cls = sorted_labels == cls
        distances = np.abs(sorted_values - anchor)
        numerator = float(distances[is_cls & inside].sum())
        denominator = float(distances[is_cls & ~inside].sum())
        if denominator > 0.0:
            score += numerator / denominator
        elif numerator > 0.0:
            score += 1e6
    return score


def oracle_assign(points, centroids):
    """Nearest centroid and (n, q) squared distances from one (n, q, d)
    broadcast, the k-means assignment before it was blocked."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def oracle_metrics(tp, tn, fp, fn):
    total = tp + tn + fp + fn
    overall = (tp + tn) / total if total else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    specificity = tn / (tn + fp) if (tn + fp) else 0.0
    balanced = (recall + specificity) / 2.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    if precision + recall:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
    product = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(product) if product else 0.0
    return {
        "overall": overall,
        "recall": recall,
        "specificity": specificity,
        "balanced": balanced,
        "precision": precision,
        "f_measure": f_measure,
        "mcc": mcc,
    }


def _oracle_tree_leaf(y):
    ones = int(y.sum())
    zeros = len(y) - ones
    return TreeNode(prediction=1 if ones > zeros else 0)


def oracle_weighted_gini(left_n, left_ones, n, ones):
    """Weighted child Gini of cuts, elementwise from integer counts."""
    right_n = n - left_n
    right_ones = ones - left_ones
    left_zeros = left_n - left_ones
    right_zeros = right_n - right_ones

    gini_left = 1.0 - (left_ones / left_n) ** 2 - (left_zeros / left_n) ** 2
    gini_right = 1.0 - (right_ones / right_n) ** 2 - (right_zeros / right_n) ** 2
    return (left_n * gini_left + right_n * gini_right) / n


def _oracle_best_split(x, y):
    """(threshold, weighted Gini) of one column's best midpoint, or None
    for a constant column; the ascending sweep keeps the first minimum."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if len(cut) == 0:
        return None
    ones_cum = np.cumsum(ys)
    weighted = oracle_weighted_gini(cut + 1, ones_cum[cut], len(y), ones_cum[-1])

    best = int(np.argmin(weighted))
    pos = cut[best]
    below, above = float(xs[pos]), float(xs[pos + 1])
    threshold = (below + above) / 2.0
    if not below <= threshold < above:
        threshold = below
    return threshold, float(weighted[best])


def oracle_fit_tree(x, y):
    """Per-node, per-column Gini tree: every node re-sorts every column."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    ones = int(y.sum())
    if len(y) < 2 or ones == 0 or ones == len(y):
        return _oracle_tree_leaf(y)

    best_feature = None
    best_threshold = 0.0
    best_weighted = np.inf
    for j in range(x.shape[1]):
        found = _oracle_best_split(x[:, j], y)
        if found is None:
            continue
        threshold, weighted = found
        if weighted < best_weighted:
            best_feature, best_threshold, best_weighted = j, threshold, weighted
    if best_feature is None:
        return _oracle_tree_leaf(y)

    goes_left = x[:, best_feature] <= best_threshold
    return TreeNode(
        feature=best_feature,
        threshold=best_threshold,
        left=oracle_fit_tree(x[goes_left], y[goes_left]),
        right=oracle_fit_tree(x[~goes_left], y[~goes_left]),
    )


def oracle_predict(node, x):
    """Walk each row down the tree on its own; a threshold value goes left."""
    out = []
    for row in np.asarray(x, dtype=float):
        cursor = node
        while not cursor.is_leaf:
            cursor = cursor.left if row[cursor.feature] <= cursor.threshold else cursor.right
        out.append(cursor.prediction)
    return np.array(out, dtype=int)


def oracle_save_csv(matrix, labels, path, label_name="label"):
    """The CSV writer before rows were joined by hand: every row, values
    as ``repr(float(v))``, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(matrix.feature_names) + [label_name])
        for i in range(matrix.n):
            row = [repr(float(v)) for v in matrix.values[i]]
            row.append(labels.class_names[labels.labels[i]])
            writer.writerow(row)
