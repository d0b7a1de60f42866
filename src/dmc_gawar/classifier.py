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

One grower, ``_grow``, grows a forest breadth first, as SLIQ (Mehta,
Agrawal & Rissanen, EDBT 1996) grows a presorted CART tree.  Each tree has
its own train rows and its own row of a (trees x k) column grid: the ten
splits of one subset repeat the subset's row, and a batch of subsets
stacks their rows.  Each column is sorted once over all rows, SLIQ's
single presort (``_presort``), and each tree's order of a column is that
presort filtered to the tree's train rows (``_filter``), both a block of
columns at a time.  Per grid column it keeps the stacked row ids and
value ranks in that order; a row's label code is read through its id.
A column without a tie over all rows ranks its rows 0..n-1 and has its
ranks read by no cut; with no tied column a forest has no ranks at all.
The open nodes of a level lie side by side, as segments at the same
positions in every grid column, each sorted by that tree's column there.
A running sum of the codes along a block of grid columns, less each
node's starting sum, gives the left child of every cut of every node of
every tree in one pass.  A cut between equal values (equal ranks) or past
a node's last row is no cut.  The scan (``_best_cuts``) keeps only each
node's lowest Gini on each column (``np.minimum.reduceat``); ``_grow``
applies the tie rule above to those alone, in one place, and scores the
winning column again for its cut: a per-node sweep's order, so each tree
is the one a node-by-node grower builds.  ``_grow``'s scan of a level
stops once every open node has a cut of Gini exactly 0: a pure child's
term is exactly +0.0 and an impure child's positive, so no later column
beats that cut, and a tie goes to the earlier column.  Every child of
such a level is pure, so no level follows it.
The winning grid column's order sends each node's rows left or right, and
the rows of open children are regrouped, still sorted, for the next level
by one flat index per block (``_regroup``).  The next level's scan
regroups each block just before it reads it, so a scan that stops early
leaves the blocks it skipped as they were: no later level reads them, and
the winning columns lie in the blocks it read.  Pure nodes, nodes of
fewer than 2 rows and nodes constant on every column become leaves.  A
level only records its nodes, winners and cut rows; the node arrays and
thresholds of all levels are written in one pass after the last, where a
cut's stacked row names its tree and so its grid row, so the level loop
does no per-node bookkeeping.  Positions, cuts and code sums are numpy's
default integer, which holds every one of them.

The trees are flat node arrays: feature, threshold, left child and
prediction.  The test rows of all trees are routed through them at once,
one level per step, and ``fit_tree`` is a forest of one tree, converted to
``TreeNode``s.  A pass holds at most ``_BLOCK`` (column, tree) pairs.

The weighted Gini of a cut depends only on four integers: the left size
and left ones, the node size and node ones.  A child of ``m`` rows, ``o``
of them class 1, contributes ``m * (1 - (o/m)**2 - ((m-o)/m)**2)``; fits of
at most ``GINI_TABLE_MAX_ROWS`` rows read that term from a table built
once per root size (only the latest table is kept; 0.5 MB at the bound),
so a cut costs two lookups instead of the arithmetic; on a level scanned
over more than n + 1 columns each node first adds its two children's
terms for every left code, and a cut costs one lookup.  The table entries
come from the same float64 operations in the same order as the formula,
so every weighted Gini, and with it every tie and every tree, is
bit-identical to the formula's, which larger fits still evaluate.  The
scan divides by the node size only at each (column, node) minimum: x ->
fl(x / s) is monotone, so that minimum is the lowest divided cut.

One evaluator per run: a run scores thousands of subsets under the same
few split plans, which its ``Evaluator`` builds once.  ``Evaluator.counts``
is the one scorer of subsets: a batch's trees grow as consecutive forests,
12 narrow subsets of ten trees per forest at the defaults, or one tree
per forest on thousands of columns.  ``stage`` holds each subset's counts
until ``evaluate_subset`` collects them; ``evaluate_subset`` without an
evaluator scores its subset on an evaluator of its own and drops it.  No
plan, sort, Gini or count outlives its evaluator, and a subset's counts do
not depend on what was scored before or beside it.

An evaluator presorts a column and filters it to the run's train splits
the first time a narrow subset (``k * n_splits <= _BLOCK``) asks for it,
scores the column's root on every split then, and keeps both; later
batches gather their columns' rows of those tables.  A root's rows are
its split's train rows in every forest, so a kept order is the column's
root order on every split, and a kept root Gini is bit-identical to the
scan's, as a root's code sums are exact integers.  That scan reads every
column, zero cut or not: a kept root serves every later subset that holds
its column.  Every later level is scanned.  ``fit_tree`` presorts its own
columns, and a batch of wider subsets presorts its columns once for all
its forests; both scan every level and keep nothing.

``METRIC_KEYS`` is the one list of the seven confusion scores, in report
order; ``ClassificationMetrics.as_dict`` and ``metric_stat`` (the mean or
spread of each score over splits or runs) build every score dict from it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabelVector, _binary, _column_ids, _count, _finite, _fraction, stratified_split

# (column, tree) pairs sorted and scored per pass; bounds the temporaries
# on wide inputs.
_BLOCK = 256
# Largest fit whose child Gini terms come from a table of (n + 1)**2
# float64s (0.5 MB at 256 rows).  Near 256 rows a table rebuilt for every
# fit costs about what it saves; above, only a reused table pays off.
GINI_TABLE_MAX_ROWS = 256

# The confusion scores of a report, in order.
METRIC_KEYS = ("overall", "recall", "specificity", "balanced", "precision", "f_measure", "mcc")


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


@functools.lru_cache(maxsize=1)  # only the latest table is kept
def _table_for(n: int) -> np.ndarray:
    """Flat (n + 1) x (n + 1) table of ``_child_terms``; entry
    ``size * (n + 1) + ones``.  Row 0, an empty child, holds inf: the cut
    past a node's last row leaves its right child empty and so reads inf."""
    sizes = np.arange(n + 1.0)
    terms = np.full((n + 1, n + 1), np.inf)
    terms[1:] = _child_terms(sizes[1:, None], sizes[None, :])
    return terms.ravel()


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


def _regroup(buffers: tuple[np.ndarray, ...], side: np.ndarray, length: int, start: int, count: int) -> None:
    """Regroup, in place, columns ``start`` to ``start + count`` of the
    (columns x length) grids at the front of flat ``buffers`` (stacked row
    ids first) by the side of each stacked row: 0 left child, 1 right
    child, 2 closed.  Each column keeps its 0s, then its 1s, each in
    position order, so every child stays sorted, and the block's new cells
    take its place in the compacted (columns x kept rows) grids.  Blocks
    must go in ascending order: a block's new cells end before the next
    block's old cells begin, so nothing is overwritten before it is read."""
    grids = [buffer[start * length : (start + count) * length].reshape(count, length) for buffer in buffers]
    block_side = side.take(grids[0].ravel())
    left = (block_side == 0).nonzero()[0].reshape(count, -1)
    right = (block_side == 1).nonzero()[0].reshape(count, -1)
    kept = np.concatenate([left, right], axis=1).ravel()
    at = start * (kept.size // count)  # first cell of the block in the new grids
    for buffer, grid in zip(buffers, grids):
        buffer[at : at + kept.size] = grid.take(kept)


def _presort(values: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The presort: ``columns`` (ascending column ids), the row ids of each
    over all rows of ``values`` in ascending order, as a (columns x rows)
    array of the smallest unsigned type that holds them, and whether each
    column has a tie; ``_BLOCK`` columns per ``argsort``."""
    n_rows = len(values)
    ids = np.empty((len(columns), n_rows), dtype=np.min_scalar_type(n_rows))
    tied = np.empty(len(columns), dtype=bool)
    for start in range(0, len(columns), _BLOCK):
        block = values.take(columns[start : start + _BLOCK], axis=1).T  # (columns x rows)
        order = block.argsort(axis=1)
        ids[start : start + len(block)] = order
        ordered = np.take_along_axis(block, order, axis=1)
        tied[start : start + len(block)] = (ordered[:, :-1] == ordered[:, 1:]).any(axis=1)
    return columns, ids, tied


def _filter(
    values: np.ndarray, presort: tuple[np.ndarray, ...], grid: np.ndarray, train: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Every (column, tree) of the (k x trees) column ``grid`` in
    ascending order, filtered from the ``presort`` of its columns to each
    tree's rows of ``train``: (k x stacked rows) stacked row ids, of the
    smallest unsigned type that holds them, and ranks, and whether each
    grid column is tied in some tree.  A pass takes ``max(1, _BLOCK //
    trees)`` grid columns, so at most ``_BLOCK`` (column, tree) pairs.
    A rank counts the gaps below a value, so equal ranks mean no cut; a
    tie-free column ranks its rows 0..n-1, and with no tied column there
    are no ranks (None).  Ties may come in any order: no cut separates
    them."""
    columns, ids, tied = presort
    slots = np.searchsorted(columns, grid)  # the presort row of each (grid column, tree)
    n_trees, n = train.shape
    n_rows = ids.shape[1]
    width = max(1, _BLOCK // n_trees)
    order = np.empty((len(slots), n_trees, n), dtype=np.min_scalar_type(train.size))
    tied_grid = tied.take(slots).any(axis=1)
    ranks = None
    if tied_grid.any():
        ranks = np.empty(order.shape, dtype=np.min_scalar_type(n))
        ranks[...] = np.arange(n)
    trees = np.arange(n_trees)[:, None]
    stacked = np.zeros((n_trees, n_rows), dtype=order.dtype)  # row -> stacked row id, per tree
    stacked[trees, train] = np.arange(train.size).reshape(train.shape)
    keep = np.zeros((n_trees, n_rows), dtype=bool)
    keep[trees, train] = True
    for start in range(0, len(slots), width):
        for tree in range(n_trees):
            slot = slots[start : start + width, tree]
            rows = ids.take(slot, axis=0)
            if n < n_rows:  # the same rows as rows[mask], several times faster
                rows = np.compress(keep[tree].take(rows).ravel(), rows).reshape(len(slot), n)
            order[start : start + width, tree] = stacked[tree].take(rows)
            tie = tied.take(slot)
            if tie.any():
                ordered = values[rows[tie], grid[start : start + width, tree][tie, None]]
                gaps = np.cumsum(ordered[:, :-1] < ordered[:, 1:], axis=1, dtype=ranks.dtype)
                ranks[start : start + width, tree][tie, 1:] = gaps
    shape = (len(slots), train.size)
    return order.reshape(shape), None if ranks is None else ranks.reshape(shape), tied_grid


def _cut_gini(
    y: np.ndarray, n: int, size: np.ndarray, ones: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray, np.ndarray | None], np.ndarray]]:
    """The set-up of a level of open nodes in fits of ``n`` train rows,
    scanned over ``k`` columns: each node's first position, the node of
    each position, and the weighted Gini, times the node's size, of every
    cut as a function of (rows x positions) blocks of ``order`` and
    ``ranks`` (None: no tie), inf at a cut between equal values (equal
    ranks) or past a node's last row.  Cut ``i`` lies after position
    ``i``.  ``y`` is the label of each stacked row, ``size`` and ``ones``
    each node's rows and class-1 rows; positions, cuts and code sums are
    numpy's default integer.

    ``order`` holds the stacked row ids of each column's positions.  Codes
    are label + ``stride``: a node's running sum over its first ``i`` rows
    is ``i * stride + ones``, the flat table index of a left child of ``i``
    rows (with ``stride`` 0, and no table, the ones).  A running sum of
    codes less the codes of the nodes before is the code of a cut's left
    child, and the node's sum less that the code of its right child; the
    formula computes a term from counts carried as exact float64.  With
    more columns than a node has left codes, each node first sums its two
    children's table terms for every left code, and a cut reads that sum.
    """
    table = _table_for(n) if n <= GINI_TABLE_MAX_ROWS else None
    stride = 0 if table is None else n + 1
    code = y + stride
    starts = size.cumsum() - size
    node_of = np.repeat(np.arange(len(size)), size)
    of = node_of[:-1]  # node of each cut
    node_code = size * stride + ones
    if table is not None and k > n + 1:
        # node j's sums follow those of the nodes before it, one entry past
        # their codes each, so a cut's running sum plus j is its entry
        span = node_code + 1
        entry_node = np.repeat(np.arange(len(size)), span)
        left = np.arange(len(entry_node)) - (span.cumsum() - span).take(entry_node)
        pairs = table.take(left) + table.take(node_code.take(entry_node) - left)

        def terms(running: np.ndarray) -> np.ndarray:
            running += of
            return pairs.take(running)
    else:
        code_end = node_code.cumsum().take(of)
        code_before = code_end - node_code.take(of)
        if table is None:
            inside = of == node_of[1:]  # the cut after a node's last row leaves it
            left_n = np.arange(len(of)) - starts.take(of) + 1.0
            right_n = np.maximum(size.take(of) - left_n, 1.0)  # 0 only where the cut is masked

        def terms(running: np.ndarray) -> np.ndarray:
            if table is not None:
                return table.take(running - code_before) + table.take(code_end - running)
            both = _child_terms(left_n, running - code_before) + _child_terms(right_n, code_end - running)
            return np.where(inside, both, np.inf)

    def weighted(order: np.ndarray, ranks: np.ndarray | None) -> np.ndarray:
        running = code.take(order[:, :-1])
        gini = terms(np.cumsum(running, axis=1, out=running))
        if ranks is not None:
            np.putmask(gini, ranks[:, :-1] == ranks[:, 1:], np.inf)
        return gini

    return starts, node_of, weighted


def _best_cuts(
    weighted: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    sorts: tuple[np.ndarray, np.ndarray | None, np.ndarray], starts: np.ndarray, size: np.ndarray, width: int,
    stop_at_zero: bool = False, regroup: Callable[[int, int], None] | None = None,
) -> np.ndarray:
    """(columns x nodes) lowest weighted Gini of each open node on each
    column of ``sorts`` (order, ranks and tie flags, as ``_filter`` gives
    them), inf where the column is constant on the node; ``weighted``, the
    level's kernel from ``_cut_gini``, is applied to blocks of ``width``
    columns, with ranks only for a block that holds a tied column.  Each
    minimum is divided by its node's ``size`` once: x -> fl(x / s) is
    monotone, so that is the lowest of the divided cuts.  ``regroup``
    (``_grow``: the regroup the last level owes) is called with each
    block's first column and column count just before the block is
    scanned, so ``sorts`` must be views of the buffers it writes.  With
    ``stop_at_zero`` (``_grow``: only each node's winner is read) the scan
    stops after the first block by which every node has a cut of Gini
    exactly 0, and the later columns read inf; their blocks are left
    unregrouped, as every child of such a level is pure and no level
    follows it."""
    order, ranks, tied = sorts
    lowest = np.empty((len(order), len(starts)))
    perfect = np.zeros(len(starts), dtype=bool)  # nodes with a cut of Gini 0 so far
    for start in range(0, len(order), width):
        block = slice(start, start + width)
        if regroup is not None:
            regroup(start, len(order[block]))
        block_ranks = ranks[block] if ranks is not None and tied[block].any() else None
        np.minimum.reduceat(weighted(order[block], block_ranks), starts, axis=1, out=lowest[block])
        if stop_at_zero:
            perfect |= (lowest[block] == 0).any(axis=0)
            if perfect.all():
                lowest[start + width :] = np.inf
                break
    lowest /= size
    return lowest


# The two children of a parent, as rows of a (2 x parents) grid.
_SIDES = np.array([[0], [1]], dtype=np.int8)


def _grow(
    values: np.ndarray,
    labels: np.ndarray,
    grid: np.ndarray,
    train: np.ndarray,
    sorts: tuple[np.ndarray, np.ndarray | None, np.ndarray],
    roots: np.ndarray | None = None,
) -> _Forest:
    """Grow one tree per row of ``train`` (row ids of ``values`` and
    ``labels``, one split per row, all of one size) on the same row of the
    (trees x k) column ``grid``, all trees one level per step.  Either
    every root is open (both classes among at least 2 rows) or none is:
    ``fit_tree`` grows one root, and ``stratified_split`` puts both classes
    in every train set.  ``sorts`` is ``_filter``'s output for ``grid.T``
    and these rows, in fresh arrays that are overwritten; ``roots``, if
    given, the (k x trees) lowest Gini of each root on each grid column.

    The open nodes of a level lie side by side: in every column's row
    order a node is one segment, at the same positions in every column,
    its rows sorted by that column.  One pass over a block of columns
    gives every node's lowest Gini on each column, or the kept roots stand
    in for the root level's pass; each node's winning column is scored
    again for its cut, and its order sends the node's rows to its
    children.  The rows of open children are regrouped, in their sorted
    order, by the next level's pass, each block just before it is read.
    A level only records its nodes, winners and cut rows; the node arrays
    are written for all levels at once, after the last.
    """
    n_splits, n = train.shape
    k = grid.shape[1]
    rows = train.ravel()  # stacked row -> row of values
    width = max(1, _BLOCK // n_splits)  # columns per block: at most _BLOCK (column, tree) pairs
    y = labels.take(rows)
    size = np.full(n_splits, n)
    ones = y.reshape(n_splits, n).sum(axis=1)
    root_prediction = (ones > size - ones).astype(np.intp)
    if k == 0 or not _is_open(size, ones).any():
        leaves = np.arange(n_splits)
        return _Forest(np.full(n_splits, -1), np.full(n_splits, np.inf), leaves, root_prediction, 0)

    values = np.ascontiguousarray(values)  # cells are read by flat index
    flat = [None if b is None else b.ravel() for b in sorts[:2]]
    tied = sorts[2]
    # a level's (k x positions) tables of row ids and ranks sit at the
    # buffers' front; with no tied column there are no ranks to move
    buffers = tuple(b for b in flat if b is not None)
    side = np.zeros(len(rows), dtype=np.int8)  # per stacked row: 0 left, 1 right, 2 closed
    node = np.arange(n_splits)  # node ids of the open nodes, in layout order
    n_nodes = n_splits
    levels = []  # per level: nodes, winning columns, cut rows, child sizes and ones, splits
    owed = None  # the last level's regroup, which the next scan applies block by block

    while len(node):
        positions = np.arange(size.sum())
        order, ranks = (None if b is None else b[: k * len(positions)].reshape(k, -1) for b in flat)
        starts, node_of, weighted = _cut_gini(y, n, size, ones, k)
        gini, roots = roots, None  # the kept roots stand in for the root level's scan only
        if gini is None:  # only each node's winner is read, so the scan may stop early
            gini = _best_cuts(
                weighted, (order, ranks, tied), starts, size, width, stop_at_zero=True, regroup=owed
            )
        # The split rule: a node splits on its earliest column of lowest
        # weighted Gini, at that column's first cut of that value.
        best_column = gini.argmin(axis=0)
        best = gini.min(axis=0)
        splits = best < np.inf  # the others are constant on every column: leaves
        if not splits.any():
            break
        # the stacked rows of each node in its winning column's order
        at = best_column.take(node_of) * len(positions) + positions
        winner = order.take(at)
        cut_of = node_of[:-1]
        cuts = weighted(winner[None], None if ranks is None else ranks.take(at)[None])[0]
        hit = cuts / size.take(cut_of) == best.take(cut_of)
        # a node whose columns are all constant hits every cut, so its
        # first hit is a cut inside it
        best_cut = np.minimum.reduceat(np.where(hit, positions[:-1], len(positions)), starts)
        goes_right = positions > best_cut.take(node_of)
        left_n = best_cut - starts + 1
        left_ones = ones - np.add.reduceat(y.take(winner) & goes_right, starts)
        child_size = np.array([left_n, size - left_n])  # (2 x nodes): left, right
        child_ones = np.array([left_ones, ones - left_ones])
        levels.append((node, best_column, winner.take(best_cut + _SIDES), child_size, child_ones, splits))

        # children are numbered in order of their split parent; rows of open
        # children keep their side, the rest leave the layout
        first_child = n_nodes - 2 + 2 * splits.cumsum()
        n_nodes += 2 * int(np.count_nonzero(splits))
        child_open = _is_open(child_size, child_ones) & splits
        if not child_open.any():
            break
        side[winner] = np.where(child_open, _SIDES, 2).take(goes_right * len(node) + node_of)
        owed = functools.partial(_regroup, buffers, side, len(positions))
        node = (first_child + _SIDES)[child_open]
        size, ones = child_size[child_open], child_ones[child_open]

    # the node arrays, written once: roots first, then children in id order
    feature = np.full(n_nodes, -1, dtype=np.intp)
    threshold = np.full(n_nodes, np.inf)
    left = np.arange(n_nodes)
    prediction = np.zeros(n_nodes, dtype=np.intp)
    prediction[:n_splits] = root_prediction
    if levels:
        node, winning, pair, child_size, child_ones, splits = (
            np.concatenate(part, axis=-1) for part in zip(*levels)
        )
        parents = node[splits]
        pair = pair[:, splits]
        column = grid[pair[0] // n, winning[splits]]  # the cut's tree picks its grid row
        feature[parents] = column
        left[parents] = np.arange(n_splits, n_nodes, 2)
        # the values on either side of each cut
        below, above = values.take(rows.take(pair) * values.shape[1] + column)
        with np.errstate(over="ignore"):
            midpoint = (below + above) / 2.0
        # where the midpoint rounded onto `above` (or overflowed), `below`
        # still separates the two values under `<=`
        threshold[parents] = np.where((below <= midpoint) & (midpoint < above), midpoint, below)
        child_ones, child_size = child_ones[:, splits], child_size[:, splits]
        prediction[n_splits:] = (child_ones > child_size - child_ones).T.ravel()
    return _Forest(feature, threshold, left, prediction, len(levels))


def fit_tree(x: np.ndarray, y: np.ndarray) -> TreeNode:
    """Grow the full tree; stops at purity, <2 samples, or constant columns."""
    x, y = _finite(x, "x"), _binary(y, "y")
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    columns, train = np.arange(x.shape[1]), np.arange(len(y))[None]
    sorts = _filter(x, _presort(x, columns), columns[:, None], train)
    forest = _grow(x, y, columns[None], train, sorts)
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
    ``x`` must be 2-D and as wide as every column the tree tests.
    """
    x = _finite(x, "x")
    if x.ndim != 2:
        raise ValueError("x must be 2-D with one row per sample")
    out = np.empty(len(x), dtype=int)
    try:
        for i in range(len(x)):
            cursor = node
            while cursor.prediction is None:
                cursor = cursor.left if x.item(i, cursor.feature) <= cursor.threshold else cursor.right
            out[i] = cursor.prediction
    except IndexError:  # only a column past x's last is out of bounds
        raise ValueError(f"x has {x.shape[1]} columns, but the tree tests column {cursor.feature}") from None
    return out


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, TN, FP, FN) of labels coded 0/1, class 1 positive; both are
    1-D, one prediction per label."""
    y_true, y_pred = _binary(y_true, "labels"), _binary(y_pred, "predictions")
    if y_true.ndim != 1:
        raise ValueError("labels must be 1-D")
    if y_pred.shape != y_true.shape:
        raise ValueError(f"predictions must be 1-D with one per label ({len(y_true)}), got shape {y_pred.shape}")
    ((tp, tn, fp, fn),) = _confusion_rows(y_true[None], y_pred[None])
    return tp, tn, fp, fn


def _confusion_rows(y_true: np.ndarray, y_pred: np.ndarray) -> list[list[int]]:
    """[TP, TN, FP, FN] of each row of two (splits x rows) arrays of 0/1."""
    cells = 4 * np.arange(len(y_true))[:, None] + 2 * y_true + y_pred  # a row's TN, FP, FN, TP
    counts = np.bincount(cells.ravel(), minlength=4 * len(y_true)).reshape(-1, 4)
    return counts[:, [3, 0, 1, 2]].tolist()


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator != 0.0 else 0.0


@dataclass(frozen=True)
class ClassificationMetrics:
    """The confusion counts of one split; each score is derived from them,
    and every 0/0 collapses to 0 by convention."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def overall(self) -> float:
        return _safe_div(self.tp + self.tn, self.tp + self.tn + self.fp + self.fn)

    @property
    def recall(self) -> float:
        return _safe_div(self.tp, self.tp + self.fn)

    @property
    def specificity(self) -> float:
        return _safe_div(self.tn, self.tn + self.fp)

    @property
    def balanced(self) -> float:
        return (self.recall + self.specificity) / 2.0

    @property
    def precision(self) -> float:
        return _safe_div(self.tp, self.tp + self.fp)

    @property
    def f_measure(self) -> float:
        precision, recall = self.precision, self.recall
        return _safe_div(2.0 * precision * recall, precision + recall)

    @property
    def mcc(self) -> float:
        tp, tn, fp, fn = self.tp, self.tn, self.fp, self.fn
        # the integer product, rounded once to float64, equals the float64
        # product numpy formed while that stays below 2**53 (every partial
        # product is then exact)
        product = math.prod((tp + fp, tp + fn, tn + fp, tn + fn))
        return (tp * tn - fp * fn) / math.sqrt(float(product)) if product else 0.0

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in METRIC_KEYS}


def _route(forest: _Forest, values: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Class of each row of ``test`` (row ids of ``values``, one split of
    the forest per row), all trees at once, one level per step.  Values
    are finite, as a ``FeatureMatrix`` holds only finite values, so ``>``
    sends exactly the rows ``predict`` (which rejects others) sends right."""
    node = np.repeat(np.arange(len(test)), test.shape[1])
    rows = test.ravel()
    column = np.maximum(forest.feature, 0)  # a leaf tests any column against inf
    for _ in range(forest.depth):
        node = forest.left[node] + (values[rows, column[node]] > forest.threshold[node])
    return forest.prediction[node].reshape(test.shape)


def _subset_grid(subsets, m: int) -> np.ndarray:
    """The (subsets x k) column ids of equal-length, non-empty subsets of
    ``m`` columns."""
    try:
        grid = np.asarray(subsets)
    except ValueError:  # ragged
        raise ValueError("the subsets of a batch must all have the same length") from None
    grid = _column_ids(grid, m, "features", ndim=2)
    if len(grid) and not grid.shape[1]:
        raise ValueError("a subset needs at least one feature")
    return grid


def _settings(n_splits: int, test_fraction: float, base_seed: int) -> dict:
    """An evaluator's split settings as ``Evaluator.settings`` holds them,
    each through its gate, so a bool is refused before ``check`` compares
    it (``True == 1``)."""
    return {
        "n_splits": _count(n_splits, "n_splits"),
        "test_fraction": _fraction(test_fraction, "test_fraction"),
        "base_seed": _count(base_seed, "base_seed"),
    }


class Evaluator:
    """The repeated-holdout protocol of one run: its split plans, built
    once (split k has seed ``base_seed + k``), the order of each column
    under every train split and the column's lowest weighted Gini at each
    split's root, made the first time a narrow subset asks for the column
    and kept, and the counts ``stage`` scored and ``evaluate_subset`` has
    not yet collected.  ``counts`` scores every subset; its trees follow
    the module's tie rule whatever was kept, so a subset's counts are the
    same on a fresh evaluator.

    The kept ``tables`` are ``_filter``'s output, one row of ``n_splits *
    n_train`` stacked row ids and ranks per column (ranks 0..n_train-1
    per split for a tie-free column), ``_keep``'s row of ``n_splits`` root
    Ginis per column and each column's tie flag, in the order the columns
    were first asked for; each sort appends its rows, so only
    columns in use are held.  Only narrow subsets (``len(features) *
    n_splits <= _BLOCK``) read them.  An evaluator serves only the data
    and split settings it was built from: ``check`` raises ``ValueError``
    on others.
    """

    def __init__(
        self, matrix: FeatureMatrix, labels: LabelVector, n_splits: int, test_fraction: float, base_seed: int
    ):
        self.settings = _settings(n_splits, test_fraction, base_seed)
        n_splits, test_fraction, base_seed = self.settings.values()
        self.values, self.labels = matrix.values, labels.labels
        plans = [stratified_split(labels, test_fraction, base_seed + k) for k in range(n_splits)]
        self.train = np.array([plan.train_indices for plan in plans])
        self.test = np.array([plan.test_indices for plan in plans])
        self.test_labels = labels.labels[self.test]
        self.slot = np.full(matrix.m, -1, dtype=np.intp)  # column -> table row, -1 not yet sorted
        self.tables: tuple[np.ndarray, ...] = ()
        # column tuple -> per-split [TP, TN, FP, FN], held until collected
        self.staged: dict[tuple[int, ...], list[list[int]]] = {}

    def check(self, matrix: FeatureMatrix, labels: LabelVector, **settings) -> None:
        """Raise ``ValueError`` unless a call names the data and split
        settings this evaluator was built from."""
        for name, value in settings.items():
            if value != self.settings[name]:
                raise ValueError(f"evaluator was built for {name}={self.settings[name]!r}, got {value!r}")
        if labels.labels is not self.labels and not np.array_equal(labels.labels, self.labels):
            raise ValueError("evaluator was built for other labels")
        if matrix.values is not self.values and not np.array_equal(matrix.values, self.values):
            raise ValueError("evaluator was built for another feature matrix")

    def stage(self, subsets) -> None:
        """Score a batch of equal-length subsets (column ids, in order) and
        hold each one's per-split counts, keyed by its column tuple, until
        ``evaluate_subset`` collects them.  An empty batch stages nothing."""
        if not len(subsets):
            return
        grid = _subset_grid(subsets, len(self.slot))
        self.staged.update(zip(map(tuple, grid.tolist()), self.counts(grid)))

    def counts(self, grid: np.ndarray) -> list[list[list[int]]]:
        """Per-split [TP, TN, FP, FN] of each subset of a (subsets x k)
        ``grid`` of column ids.  The batch's trees, in (subset, split)
        order, grow as consecutive forests.  Narrow subsets (``k * n_splits
        <= _BLOCK``) read the kept tables, ``max(1, _BLOCK // (2 *
        n_splits))`` whole subsets per forest, so a pass of two columns
        holds at most ``_BLOCK`` (column, tree) pairs; subset b of a forest
        has its stacked rows offset by ``b * n_splits * n_train``.  Wider
        subsets filter one presort of the batch's columns, ``max(1, _BLOCK
        // k)`` trees per forest, which may hold trees of two subsets."""
        (batch, k), (n_splits, n) = grid.shape, self.train.shape
        if not batch:
            return []
        narrow = 0 < k * n_splits <= _BLOCK
        if narrow:
            slots = self.slot.take(grid)
            if (slots < 0).any():
                self._keep(np.unique(grid[slots < 0]))
                slots = self.slot.take(grid)
            per_forest = n_splits * max(1, _BLOCK // (2 * n_splits))
        else:
            per_forest = max(1, _BLOCK // max(k, 1))
            presort = _presort(self.values, np.unique(grid))
        subset, split = np.divmod(np.arange(batch * n_splits), n_splits)
        predicted = []
        for start in range(0, batch * n_splits, per_forest):
            trees = slice(start, start + per_forest)
            rows, train = subset[trees], self.train[split[trees]]
            # one subset's trees share its row: no copy of thousands of
            # column ids per wide forest, which raised the peak heap
            columns = np.broadcast_to(grid[rows[0]], (len(rows), k)) if rows[0] == rows[-1] else grid[rows]
            if narrow:
                sorts, roots = self._gather(slots[start // n_splits : (start + per_forest) // n_splits].T)
            else:
                sorts, roots = _filter(self.values, presort, columns.T, train), None
            forest = _grow(self.values, self.labels, columns, train, sorts, roots)
            del sorts  # the next forest's buffers take these ones' place, not their side
            predicted.append(_route(forest, self.values, self.test[split[trees]]))
        counts = _confusion_rows(np.tile(self.test_labels, (batch, 1)), np.concatenate(predicted))
        return [counts[b : b + n_splits] for b in range(0, len(counts), n_splits)]

    def _gather(self, chunk: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray], np.ndarray]:
        """The kept sorts and roots of a narrow forest of whole subsets, its
        (k x subsets) table rows ``chunk``; subset b's stacked rows are
        offset by ``b * n_splits * n_train``.  The ranks are gathered only
        if a column is tied."""
        order, ranks, roots, tied = self.tables
        order = order.take(chunk, axis=0)
        order += np.arange(0, order.shape[1] * self.train.size, self.train.size, dtype=order.dtype)[:, None]
        tied = tied.take(chunk).any(axis=1)
        ranks = ranks.take(chunk, axis=0) if tied.any() else None
        return (order, ranks, tied), roots.take(chunk, axis=0).reshape(len(chunk), -1)

    def _keep(self, columns: np.ndarray) -> None:
        """Sort distinct, not yet sorted ``columns``, score their roots on
        every split, and append their tables."""
        n_splits, n = self.train.shape
        size = np.full(n_splits, n)
        grid = np.broadcast_to(columns[:, None], (len(columns), n_splits))
        order, ranks, tied = _filter(self.values, _presort(self.values, columns), grid, self.train)
        y = self.labels.take(self.train.ravel())
        starts, _, weighted = _cut_gini(y, n, size, y.reshape(n_splits, n).sum(axis=1), len(columns))
        roots = _best_cuts(weighted, (order, ranks, tied), starts, size, max(1, _BLOCK // n_splits))
        if ranks is None:  # a later forest may hold a tied column beside these
            ranks = np.resize(np.arange(n, dtype=np.min_scalar_type(n)), order.shape)
        new = order.astype(np.int32), ranks, roots, tied  # room for _gather's offsets
        self.slot[columns] = self.slot.max() + 1 + np.arange(len(columns))
        self.tables = tuple(map(np.concatenate, zip(self.tables, new))) if self.tables else new


def evaluate_subset(
    matrix: FeatureMatrix,
    labels: LabelVector,
    features: np.ndarray,
    n_splits: int = 10,
    test_fraction: float = 0.2,
    base_seed: int = 0,
    evaluator: Evaluator | None = None,
) -> tuple[float, list[ClassificationMetrics]]:
    """Mean test accuracy of a feature subset over seeded repeated splits.

    Split k uses seed ``base_seed + k``, so the same arguments always yield
    the same value; this is the fitness the optimizer maximizes.
    ``evaluator``, an ``Evaluator`` built for these arguments, lends the
    split plans, column sorts and root Ginis of earlier calls, and the
    counts its ``stage`` scored for these features, which this call
    collects, staging them first if nobody did.  Without it the call
    scores the subset on an evaluator of its own, which it drops.  The
    result is the same either way.
    """
    grid = _subset_grid(np.asarray(features)[None], matrix.m)
    if evaluator is None:
        (counts,) = Evaluator(matrix, labels, n_splits, test_fraction, base_seed).counts(grid)
    else:
        evaluator.check(matrix, labels, **_settings(n_splits, test_fraction, base_seed))
        key = tuple(grid[0].tolist())
        if key not in evaluator.staged:
            evaluator.stage(grid)
        counts = evaluator.staged.pop(key)
    per_split = [ClassificationMetrics(*split) for split in counts]
    mean_overall = float(np.mean([m.overall for m in per_split]))
    return mean_overall, per_split


def metric_stat(scores: list[dict[str, float]], stat=np.mean) -> dict[str, float]:
    """``stat`` (``np.mean`` or ``np.std``) of each score over score dicts."""
    return {k: float(stat([s[k] for s in scores])) for k in METRIC_KEYS}


def mean_metrics(per_split: list[ClassificationMetrics]) -> dict[str, float]:
    """Average each confusion-derived score over a list of splits."""
    return metric_stat([m.as_dict() for m in per_split])
