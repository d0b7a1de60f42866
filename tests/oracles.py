"""Hand-written reference implementations used only to cross-check the
package.  Plain loops and literals on purpose; nothing here is imported
from the library under test except containers and exception classes
(``TreeNode``, the data containers and errors), so that reference results
compare equal (``==``) to the library's and fail the same way."""

import csv
import math
from collections import Counter

import numpy as np

from dmc_gawar.classifier import TreeNode
from dmc_gawar.data import (
    DataError,
    FeatureMatrix,
    LabelVector,
    NonFiniteValueError,
    NotBinaryLabelsError,
    ParseError,
)


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
    broadcast: the k-means assignment before it was blocked, and later
    certified by a matrix product."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def oracle_repair_empty(centroids, assignments, d2):
    """The empty-cluster repair before it measured distances itself: each
    empty cluster, last first, takes the point farthest from its own
    centroid in the full (n, q) matrix ``d2``, among clusters of two or
    more points."""
    assignments = list(int(a) for a in assignments)
    counts = [assignments.count(k) for k in range(len(centroids))]
    empties = [k for k in range(len(centroids)) if counts[k] == 0]
    while empties:
        k = empties.pop()
        best = None
        for i, own in enumerate(assignments):
            if counts[own] > 1 and (best is None or d2[i, own] > d2[best, assignments[best]]):
                best = i
        counts[assignments[best]] -= 1
        assignments[best] = k
        counts[k] += 1
    return np.array(assignments)


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


def oracle_lowest_gini(x, y):
    """Lowest weighted Gini over one column's cuts, inf for a constant column."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if len(cut) == 0:
        return np.inf
    ones_cum = np.cumsum(y[order])
    return oracle_weighted_gini(cut + 1, ones_cum[cut], len(y), ones_cum[-1]).min()


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


def _oracle_row_error(line_no, record, label_idx):
    for col_no, token in enumerate(record):
        if col_no == label_idx:
            continue
        try:
            value = float(token)
        except ValueError:
            return ParseError(line_no, col_no + 1, token)
        if not math.isfinite(value):
            return NonFiniteValueError(line_no, col_no + 1)
    raise AssertionError(f"row {line_no} holds no bad cell")


def oracle_load_csv(path, label_column=None):
    """The CSV reader before ``np.loadtxt`` parsed the file: ``csv.reader``
    records, each row's cells through ``float``, a failing row scanned
    again cell by cell; ``load_csv`` must return what it returns and raise
    what it raises."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ParseError(1, 1, "<empty file>")
        if label_column is None:
            label_idx = len(header) - 1
        else:
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise DataError(f"label column {label_column!r} not found in header") from None
        feature_names = header[:label_idx] + header[label_idx + 1 :]
        if not feature_names:
            raise DataError("header holds no feature column")
        if len(set(feature_names)) < len(feature_names):
            repeated = next(name for name, count in Counter(feature_names).items() if count > 1)
            raise DataError(f"header repeats the feature column {repeated!r}")

        m = len(feature_names)
        rows = []
        label_strings = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue  # blank line
            if len(record) != len(header):
                raise ParseError(line_no, 1, f"<{len(record)} fields, expected {len(header)}>")
            label_strings.append(record[label_idx])
            cells = record[:label_idx] + record[label_idx + 1 :]
            try:
                row = np.fromiter(map(float, cells), dtype=float, count=m)
            except ValueError:
                raise _oracle_row_error(line_no, record, label_idx) from None
            if not np.isfinite(row).all():
                raise _oracle_row_error(line_no, record, label_idx)
            rows.append(row)

    class_names = []
    for s in label_strings:
        if s not in class_names:
            class_names.append(s)
    if len(class_names) != 2:
        raise NotBinaryLabelsError(len(class_names))
    codes = np.array([class_names.index(s) for s in label_strings], dtype=int)
    if (np.bincount(codes) < 2).any():
        raise DataError("each class needs at least 2 samples")

    matrix = FeatureMatrix(np.stack(rows), feature_names)
    labels = LabelVector(codes, (class_names[0], class_names[1]))
    return matrix, labels
