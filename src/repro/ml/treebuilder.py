"""Level-synchronous, all-trees-at-once random-forest construction.

:func:`build_forest_flat` grows every tree of a forest simultaneously, one
depth level per iteration, and emits preorder-numbered
:class:`repro.ml.tree.FlatTree` node tables directly — no pointer nodes, no
per-node Python recursion, no per-node sorting and no per-feature loop:

* each feature column is argsorted **once per fit** (stable mergesort), and
  that order is shared by every tree and every node.  Bootstrap resamples
  are per-tree integer sample-weight vectors over the shared row universe,
  so resampling never reorders anything;
* the members of every node live in one ``(n_features + 1, m)`` permutation
  matrix.  Every row holds the same ``m`` slots grouped by node in node-id
  order; within a node, row ``f`` keeps them in ``(x_f, row index)`` order
  and the last row in ascending row order.  All rows therefore share one
  set of node segments, computed once per level;
* one scan per level runs weighted cumulative sums along every row at
  once: the last row's totals are the node statistics, and the feature rows
  score every split candidate of every ``(tree, node, feature)``.  A node
  splits by relabelling its members with their child id and stably
  argsorting each row on that label, which keeps both orders intact in the
  children.  A level costs a fixed number of NumPy calls, whatever
  ``n_features`` is.

Bit-for-bit parity with the pointer reference
---------------------------------------------
``DecisionTreeRegressor.fit_pointer`` and this builder must produce
identical node tables for the same seed (guarded by
``tests/ml/test_fit_equivalence.py``).  Three invariants make that exact
rather than approximate:

1. **RNG consumption** — feature-subsampling keys are drawn per tree in
   level order, one ``(n_expanding_nodes, n_features)`` block per level,
   which consumes the per-tree bit stream byte-for-byte like the
   reference's per-node ``rng.random(n_features)`` calls.
2. **Summation order** — every statistic is a sequential cumulative sum
   over a node's members in a defined order (ascending row index for node
   stats, feature-sorted for split scans).  There is no padding: segments
   are laid out position-major in order of decreasing length, so position
   ``k`` of every segment longer than ``k`` is one contiguous slice, and
   ``slice_k += slice_{k-1}`` makes, per segment, the same float additions
   in the same order as the reference's 1-D ``np.cumsum``.
3. **Tie-breaking** — first minimum along the sorted positions within a
   feature (``np.minimum.reduceat`` of the scores, then of the positions
   that attain it), lowest feature index across features (``np.argmin``
   over a ``(feature, node)`` score matrix in which features outside a
   node's subsample are ``inf``), matching the reference's strict ``<``
   scan in ascending feature order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ml.tree import FlatTree


def _segment_starts(ids: np.ndarray) -> np.ndarray:
    """Start offsets of maximal runs of equal values in a sorted array."""
    if ids.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(
        ([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1)
    ).astype(np.intp)


def _segment_cumsum(
    table: np.ndarray,
    perm: np.ndarray,
    seg_of: np.ndarray,
    pos: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Per-segment sequential cumulative sums of the ``table`` rows of ``perm``.

    ``table`` is ``(n_slots, n_stats)``; the result is ``(n_stats,
    perm rows, m)``.  Column ``i`` of every row of ``perm`` is position
    ``pos[i]`` of segment ``seg_of[i]``.  The columns are gathered
    position-major over the segments sorted by decreasing length: position
    ``k`` of every segment longer than ``k`` is then one contiguous block,
    and one in-place add per position advances every running sum — exactly
    the additions ``np.cumsum`` makes over each segment alone, with no
    padding.
    """
    n_seg = lengths.size
    rank = np.empty(n_seg, dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(n_seg, dtype=np.intp)
    longer = n_seg - np.cumsum(np.bincount(lengths))[:-1]  # segments longer than k
    offset = np.concatenate(([0], np.cumsum(longer)[:-1]))
    dest = offset[pos] + rank[seg_of]
    src = np.empty_like(dest)
    src[dest] = np.arange(dest.size, dtype=np.intp)
    sums = table[perm.T[src]]  # (m, perm rows, n_stats), position-major
    offsets, counts = offset.tolist(), longer.tolist()
    for k in range(1, len(counts)):
        lo, prev, count = offsets[k], offsets[k - 1], counts[k]
        sums[lo : lo + count] += sums[prev : prev + count]
    for stat in range(sums.shape[2]):  # back to segment-major, in place
        sums[:, :, stat] = sums[dest, :, stat]
    return sums.transpose(2, 1, 0)


def _best_splits(
    sums: np.ndarray,
    totals: np.ndarray,
    xs: np.ndarray,
    seg_of: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    allowed: np.ndarray,
    min_samples_leaf: int,
) -> tuple:
    """Winning feature and threshold of every node segment (``nan``: none).

    ``sums``/``totals`` hold the per-segment cumulative and total ``w``,
    ``w*y``, ``w*y*y`` of every row of the permutation matrix (the last,
    row-ordered one is ignored); ``sums`` is overwritten.  ``xs`` holds the
    sorted feature values.  Candidate ``p`` of a segment splits after its
    ``p``-th member, and its score is the left plus the right child's
    weighted SSE, computed as in :func:`repro.ml.tree.best_split_weighted`.
    """
    n_seg, m = starts.size, xs.shape[1]
    cw, cwy, cwyy = sums[:, :-1]
    tw, twy, twyy = totals[:, :-1]
    rw = np.repeat(tw, lengths, axis=1)
    rw -= cw
    valid = np.zeros(xs.shape, dtype=bool)
    np.less(xs[:, :-1], xs[:, 1:], out=valid[:, :-1])
    valid[:, starts + lengths - 1] = False
    valid &= cw >= min_samples_leaf
    valid &= rw >= min_samples_leaf
    rwy = np.repeat(twy, lengths, axis=1)
    rwy -= cwy
    # In place, to hold the peak footprint: cwy becomes the left SSE, cwyy
    # the right child's w*y*y, rwy the right SSE and cw the score.
    with np.errstate(divide="ignore", invalid="ignore"):
        cwy **= 2
        cwy /= cw
        np.subtract(cwyy, cwy, out=cwy)
        np.subtract(np.repeat(twyy, lengths, axis=1), cwyy, out=cwyy)
        rwy **= 2
        rwy /= rw
        np.subtract(cwyy, rwy, out=rwy)
    score = np.add(cwy, rwy, out=cw)
    score[~valid] = np.inf
    best = np.minimum.reduceat(score, starts, axis=1)  # (n_features, n_seg)
    best[~allowed] = np.inf
    # Lowest feature index wins ties, matching the reference's strict <;
    # within it, the first candidate position that attains the minimum.
    win = np.argmin(best, axis=0)
    win_score = best[win, np.arange(n_seg)]
    at_best = score[win[seg_of], np.arange(m)] == win_score[seg_of]
    first = np.minimum.reduceat(np.where(at_best, np.arange(m), m), starts)
    threshold = np.full(n_seg, np.nan)
    split = np.flatnonzero(win_score < np.inf)
    cut_f, cut_p = win[split], first[split]
    threshold[split] = (xs[cut_f, cut_p] + xs[cut_f, cut_p + 1]) / 2.0
    return win, threshold


class _LevelRecords:
    """Node records for one depth level (parallel arrays, creation order)."""

    def __init__(self, tree, total_w, value, variance):
        count = tree.shape[0]
        self.tree = tree
        self.total_w = total_w
        self.value = value
        self.variance = variance
        self.feature = np.full(count, -1, dtype=np.intp)
        self.threshold = np.full(count, np.nan)
        self.left = np.full(count, -1, dtype=np.intp)
        self.right = np.full(count, -1, dtype=np.intp)


def build_forest_flat(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    n_split_features: int,
) -> List[FlatTree]:
    """Fit ``weights.shape[0]`` trees at once; returns one FlatTree per tree.

    ``weights[t]`` is tree ``t``'s non-negative per-row sample weight (the
    bootstrap multiplicity); rows with weight 0 are not members of tree
    ``t``.  ``rngs[t]`` is tree ``t``'s feature-subsampling stream.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    n_rows, n_features = X.shape
    n_trees = weights.shape[0]
    if weights.shape[1] != n_rows:
        raise ValueError("weights must have one column per row of X")
    if len(rngs) != n_trees:
        raise ValueError("need one RNG per tree")

    # ---- shared per-fit precomputation -----------------------------------
    # A "slot" is a (tree, row) pair, id = tree * n_rows + row.  One stable
    # argsort per feature for the whole forest; per-slot weighted target
    # products shared by every scan.
    wy = weights * y[None, :]
    stats = np.stack((weights, wy, wy * y[None, :]), axis=-1).reshape(-1, 3)
    y_of = np.tile(y, n_trees)
    row_of = np.tile(np.arange(n_rows, dtype=np.intp), n_trees)
    X_cols = np.ascontiguousarray(X.T)
    row_orders = np.vstack(
        (np.argsort(X, axis=0, kind="mergesort").T, np.arange(n_rows, dtype=np.intp))
    )  # (n_features + 1, n_rows): x-order per feature, then row order
    tree_base = np.arange(n_trees, dtype=np.intp)[:, None] * n_rows
    live = (weights > 0)[:, row_orders].transpose(1, 0, 2)
    perm = (row_orders[:, None, :] + tree_base)[live].reshape(n_features + 1, -1)
    node_of = np.repeat(np.arange(n_trees, dtype=np.intp), n_rows)  # roots: id t

    levels: List[_LevelRecords] = []
    bases: List[int] = []
    total_nodes = 0
    depth = 0
    while True:
        # ---- node statistics and split scores of every row at once -------
        m = perm.shape[1]
        starts = _segment_starts(node_of[perm[-1]])
        lengths = np.diff(np.append(starts, m))
        n_seg = starts.size
        seg_of = np.repeat(np.arange(n_seg, dtype=np.intp), lengths)
        pos = np.arange(m, dtype=np.intp) - starts[seg_of]
        sums = _segment_cumsum(stats, perm, seg_of, pos, lengths)  # (3, F+1, m)
        totals = sums[:, :, starts + lengths - 1]
        total_w, total_wy, total_wyy = totals[:, -1]
        mean = total_wy / total_w
        variance = np.maximum(total_wyy / total_w - mean * mean, 0.0)
        y_vals = y_of[perm[-1]]
        pure = np.minimum.reduceat(y_vals, starts) == np.maximum.reduceat(
            y_vals, starts
        )
        records = _LevelRecords(perm[-1, starts] // n_rows, total_w, mean, variance)
        levels.append(records)
        bases.append(total_nodes)
        total_nodes += n_seg
        if max_depth is not None and depth >= max_depth:
            break
        expand_idx = np.flatnonzero((total_w >= min_samples_split) & ~pure)
        if expand_idx.size == 0:
            break

        # Feature-subsampling draws: per tree, one block covering its
        # expanding nodes in creation order (nodes are stored tree-major).
        keys = np.empty((expand_idx.size, n_features))
        bounds = np.searchsorted(records.tree[expand_idx], np.arange(n_trees + 1))
        for t, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if hi > lo:
                rngs[t].random(out=keys[lo:hi])
        kth = np.partition(keys, n_split_features - 1, axis=1)[:, n_split_features - 1]
        allowed = np.zeros((n_features, n_seg), dtype=bool)
        allowed[:, expand_idx] = (keys <= kth[:, None]).T

        xs = np.take_along_axis(X_cols, row_of[perm[:-1]], axis=1)
        win, threshold = _best_splits(
            sums, totals, xs, seg_of, starts, lengths, allowed, min_samples_leaf
        )
        del sums, xs  # free the scan before the next level allocates its own
        can_split = ~np.isnan(threshold)

        # Route members; a midpoint that rounds onto the right value could
        # empty one child, in which case the node degenerates to a leaf.
        go_left = X[row_of[perm[-1]], win[seg_of]] <= threshold[seg_of]
        n_left = np.add.reduceat(go_left.astype(np.intp), starts)
        can_split &= (n_left > 0) & (n_left < lengths)
        split = np.flatnonzero(can_split)
        if split.size == 0:
            break
        left_ids = total_nodes + 2 * np.arange(split.size, dtype=np.intp)
        records.feature[split] = win[split]
        records.threshold[split] = threshold[split]
        records.left[split] = left_ids
        records.right[split] = left_ids + 1

        # One partition per level: relabel members with their child id and
        # stably sort every row on it; retired slots sort last and drop off.
        left_of = np.full(n_seg, total_nodes + 2 * split.size, dtype=np.intp)
        left_of[split] = left_ids
        node_of[perm[-1]] = left_of[seg_of] + (can_split[seg_of] & ~go_left)
        order = np.argsort(node_of[perm], axis=1, kind="stable")
        perm = np.take_along_axis(perm, order[:, : lengths[split].sum()], axis=1)
        depth += 1

    # ---- preorder renumbering and per-tree emission ----------------------
    tree_g = np.concatenate([rec.tree for rec in levels])
    value_g = np.concatenate([rec.value for rec in levels])
    variance_g = np.concatenate([rec.variance for rec in levels])
    total_w_g = np.concatenate([rec.total_w for rec in levels])
    feature_g = np.concatenate([rec.feature for rec in levels])
    threshold_g = np.concatenate([rec.threshold for rec in levels])
    left_g = np.concatenate([rec.left for rec in levels])
    right_g = np.concatenate([rec.right for rec in levels])

    sizes = np.ones(total_nodes, dtype=np.intp)
    internal_per_level = []
    for rec, base in zip(levels, bases):
        internal_per_level.append(np.flatnonzero(rec.left >= 0) + base)
    for ids in reversed(internal_per_level):
        if ids.size:
            sizes[ids] = 1 + sizes[left_g[ids]] + sizes[right_g[ids]]
    preorder = np.zeros(total_nodes, dtype=np.intp)
    for ids in internal_per_level:
        if ids.size:
            preorder[left_g[ids]] = preorder[ids] + 1
            preorder[right_g[ids]] = preorder[ids] + 1 + sizes[left_g[ids]]

    flats: List[FlatTree] = []
    for t in range(n_trees):
        members = np.flatnonzero(tree_g == t)
        positions = preorder[members]
        count = members.size
        feature = np.zeros(count, dtype=np.intp)
        threshold = np.full(count, np.nan)
        left = np.full(count, -1, dtype=np.intp)
        right = np.full(count, -1, dtype=np.intp)
        value = np.empty(count)
        variance = np.empty(count)
        n_samples = np.empty(count, dtype=np.intp)
        value[positions] = value_g[members]
        variance[positions] = variance_g[members]
        n_samples[positions] = total_w_g[members].astype(np.intp)
        internal = feature_g[members] >= 0
        src = members[internal]
        dst = positions[internal]
        feature[dst] = feature_g[src]
        threshold[dst] = threshold_g[src]
        left[dst] = preorder[left_g[src]]
        right[dst] = preorder[right_g[src]]
        flats.append(
            FlatTree(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                value=value,
                variance=variance,
                n_samples=n_samples,
            )
        )
    return flats
