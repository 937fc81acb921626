"""Objective predictors: bagged regression-tree ensembles plus the MAPE
accuracy metric and the trained-surrogate bundle used by the optimizer.

The tree builder (`_grow_trees`) grows every tree of an ensemble together,
one depth at a time, scoring all open nodes of all trees in one vectorized
pass per depth (Chen & Guestrin 2016; Ke et al. 2017). Splits greedily
minimize the summed squared error of the two children; candidate thresholds
are midpoints between consecutive distinct sorted values (the upper value
when the midpoint of two adjacent floats rounds down to the lower one, so no
child is empty), and fits are independent of row order within a node. Each
tree draws its bootstrap rows (n draws with replacement from the n training
rows) and then, per depth, one row of uniforms per open node from its own
generator, from which the node takes its ceil(sqrt(d)) candidate features
(weighted by the attention mask when one is given), so a tree does not
depend on the others grown with it. A node of 2 or more rows may split.
Attention weights are validated and normalized once per fit. Trees are
stored as flat breadth-first node arrays.

An ensemble packs its trees once, when it is built (at fit or at load),
into padded (trees x nodes) tables, and predicts by routing every row
through every tree together: per depth, one gather of each row's split
feature, one compare with the threshold (a value equal to it goes right)
and one step to a child, with leaves pointing to themselves (the table
traversal of Hummingbird, Nakandala et al. 2020, and QuickScorer, Lucchese
et al. 2015). Tree outputs are then added in tree order, so a prediction
is bit for bit the sum a tree-at-a-time walk gives.

Every training setting (trees, depth, mask epochs, whether to train the
mask, seed) is a required argument here: each has its one default in the
config layer, `pipeline.PipelineSettings` and `core.RunConfig`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import DataError, JobTable
from .embedding import AttentiveMask, train_mask

# training rows times candidate features that one `_grow_batch` pass holds:
# `_grow_trees` grows a larger forest in batches of trees, which bounds each
# 8-byte work array of a pass to about 128 KiB
_ENTRY_BLOCK = 1 << 14
# trees times rows that one block of `TreeEnsemble.predict` routes, which
# bounds each of its (trees x rows) work arrays to 512 KiB
_PREDICT_BLOCK = 1 << 16
# the fewest training rows a node needs to split
_MIN_SPLIT_ROWS = 2
# the most node counts a design domain may span: the engines predict and
# hold one objective-table row per node count, for every job context and
# method, so the domain's size is memory. 2**18 = 262,144 is above the node
# count of the largest machine built so far (Fugaku: 158,976 nodes).
MAX_DESIGN_NODES = 1 << 18


@dataclass
class RegressionTree:
    """Flat breadth-first node arrays; feature == -1 marks a leaf, and
    left/right hold the children's node indices."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


@dataclass(frozen=True)
class _PackedForest:
    """Trees padded to `width` nodes and flattened: tree t's node i is entry
    t * width + i. `child[2 * e]` and `child[2 * e + 1]` are entry e's left
    and right children; a leaf's (and a padding entry's) are itself and its
    feature is 0, so every row can take `depth` steps, the deepest leaf's.
    `n_features` is one more than the largest feature a tree splits on."""

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    width: int
    depth: int
    n_features: int

    def leaf_sum(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf values summed over the trees in tree order, from
        (trees x rows) work arrays."""
        X = np.ascontiguousarray(X)
        cells = X.ravel()
        row_start = np.arange(len(X)) * X.shape[1]
        at = np.repeat(np.arange(0, len(self.value), self.width)[:, None], len(X), axis=1)
        for _ in range(self.depth):
            go_right = ~(cells[row_start + self.feature[at]] < self.threshold[at])
            at = self.child[2 * at + go_right]
        acc = np.zeros(len(X))
        # tree by tree: values.sum(axis=0) adds a single column pairwise
        for values in self.value[at]:
            acc += values
        return acc


def _pack(trees: list[RegressionTree]) -> _PackedForest:
    """Pack `trees` for `TreeEnsemble.predict`. A tree with no nodes, with
    node arrays of different lengths, with a feature below -1, or with an
    inner node whose children are not later nodes of the same tree is a
    DataError; so every row reaches a leaf. So are trees one leaf of each
    of which could sum past the largest float."""
    for t, tree in enumerate(trees):
        lengths = [len(getattr(tree, name)) for name in _TREE_FIELDS]
        if min(lengths) != max(lengths) or not lengths[0]:
            raise DataError(f"tree {t} has node arrays of lengths {lengths}")
    sizes = np.array([len(tree.feature) for tree in trees], dtype=np.int64)
    width = int(sizes.max(initial=1))
    owner = np.repeat(np.arange(len(trees)), sizes)
    node = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees] or [np.zeros(0)])
        for name in _TREE_FIELDS)
    inner = feature >= 0
    end = sizes[owner]
    bad = (feature < -1) | (inner & ((left <= node) | (left >= end)
                                     | (right <= node) | (right >= end)))
    if bad.any():
        at = np.flatnonzero(bad)[0]
        raise DataError(f"tree {owner[at]} node {node[at]} has feature {feature[at]} "
                        f"and children {left[at]} and {right[at]}: a leaf has feature "
                        "-1, and an inner node's children are later nodes of its tree")
    # a prediction adds one leaf of each tree in tree order; rounding is
    # monotone, so no such sum overflows when the trees' largest leaf
    # magnitudes, added in that order, stay finite (fmax skips a NaN leaf,
    # which load_surrogate rejects by name)
    largest = np.zeros(len(trees))
    np.fmax.at(largest, owner[~inner], np.abs(value[~inner]))
    if math.isinf(sum(largest.tolist())):
        raise DataError(f"the largest leaf magnitudes of its {len(trees)} trees sum past "
                        "the largest float, so a prediction could overflow")
    entry = owner * width + node
    split = entry[inner]

    def padded(at, values, dtype=float):
        out = np.zeros(len(trees) * width, dtype=dtype)
        out[at] = values
        return out

    is_inner = padded(split, True, bool)
    first = split - node[inner]  # the entry of each inner node's root
    child = np.repeat(np.arange(len(trees) * width), 2)
    child[2 * split] = first + left[inner]
    child[2 * split + 1] = first + right[inner]
    # children are later nodes, so this ends within width steps
    level = np.zeros_like(is_inner)
    level[::width] = is_inner[::width]
    depth = 0
    while level.any():
        reached = np.zeros_like(level)
        reached[child.reshape(-1, 2)[level]] = True
        level = reached & is_inner
        depth += 1
    return _PackedForest(padded(split, feature[inner], np.int64), padded(entry, threshold),
                         child, padded(entry, value), width, depth,
                         int(feature.max(initial=-1)) + 1)


def _rank_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of X and the values they index: X[i, f] ==
    values[f, ranks[i, f]], where values[f] holds column f's distinct values
    in increasing order (padded with inf to the longest column)."""
    ranks = np.empty(X.shape, dtype=np.int64)
    distinct = []
    for f in range(X.shape[1]):
        uniq, ranks[:, f] = np.unique(X[:, f], return_inverse=True)
        distinct.append(uniq)
    values = np.full((X.shape[1], max(map(len, distinct))), np.inf)
    for f, uniq in enumerate(distinct):
        values[f, :len(uniq)] = uniq
    return ranks, values


def _draw_features(u: np.ndarray, k: int, log_weights: np.ndarray | None) -> np.ndarray:
    """The k features each row of uniforms `u` (one column per feature)
    draws without replacement, in draw order.

    Weighted, these are the k smallest keys log(-log u) - log w
    (Efraimidis-Spirakis), distributed as numpy's successive weighted draw;
    unweighted, the k smallest -log u.
    """
    if log_weights is None:
        keys = -np.log(u)
    else:
        keys = np.log(-np.log(u)) - log_weights
    return np.argsort(keys, axis=1, kind="stable")[:, :k]


def _grow_trees(ranks: np.ndarray, values: np.ndarray, y: np.ndarray,
                rows: list[np.ndarray], rngs: list[np.random.Generator], max_depth: int,
                n_sub: int, log_weights: np.ndarray | None) -> list[RegressionTree]:
    """Grow one tree on each rows[t] (training rows, repeats allowed) with
    generator rngs[t], together, one depth at a time, in batches of trees
    that hold at most _ENTRY_BLOCK rows times candidates. `ranks` and
    `values` are the training matrix as `_rank_columns` returns it.

    A node becomes a leaf at max_depth, below _MIN_SPLIT_ROWS rows or
    when pure (its SSE is at most 1e-12 * max(1, sum of y^2)); the others
    at a depth are open. A tree then draws rng.random((its open nodes at
    this depth, d)), one row per open node in breadth-first order, and each
    takes its candidate features from its row (`_draw_features`);
    unweighted draws of every feature draw nothing. So a tree is the same
    whether it grows alone or with the rest of its forest. An open node
    stays a leaf when no candidate gains more than 1e-12 * max(1, SSE).
    Otherwise it splits where the children's summed SSE is least, over
    boundaries between distinct values of its candidates; the first
    candidate in draw order wins within that tolerance, and the first
    boundary within a candidate. The threshold is the midpoint of the two
    values, or the upper one when the midpoint of adjacent floats rounds
    down to the lower. Node sums run in training-row order.
    """
    k = min(n_sub, ranks.shape[1])
    batch = max(1, _ENTRY_BLOCK // (k * max(map(len, rows), default=1)))
    # feature f's ranks are contiguous, so a node's candidates gather flat
    ranks_t = np.ascontiguousarray(ranks.T)
    return [tree for i in range(0, len(rows), batch)
            for tree in _grow_batch(ranks_t, values, y, rows[i:i + batch], rngs[i:i + batch],
                                    max_depth, k, log_weights)]


def _grow_batch(ranks_t, values, y, rows, rngs, max_depth, k, log_weights
                ) -> list[RegressionTree]:
    """`_grow_trees` for one batch of trees, with k candidates per node;
    `ranks_t` is the rank matrix transposed to one row per feature."""
    d, n_rows = ranks_t.shape
    flat_ranks = ranks_t.ravel()
    draw = log_weights is not None or k < d
    n_trees = len(rows)
    # one entry per (tree, training row), grouped by node in training-row order
    row = np.concatenate(rows)
    node = np.repeat(np.arange(n_trees), [len(r) for r in rows])
    node_tree = np.arange(n_trees)
    levels = []  # per depth: tree, feature, threshold, value, first child
    for depth in range(max_depth + 1):
        m = len(node_tree)
        count = np.bincount(node, minlength=m)
        yv = y[row]
        mean = np.bincount(node, yv, minlength=m) / count
        c = yv - mean[node]
        sse = np.bincount(node, c * c, minlength=m)
        total2 = np.bincount(node, yv * yv, minlength=m)
        feature = np.full(m, -1, dtype=np.int64)
        cut = np.zeros(m, dtype=np.int64)  # rank of the last value that goes left
        threshold = np.zeros(m)
        open_ = (count >= _MIN_SPLIT_ROWS) & (sse > 1e-12 * np.maximum(1.0, total2))
        if depth < max_depth and open_.any():
            if draw:
                per_tree = np.bincount(node_tree[open_], minlength=n_trees)
                u = np.concatenate([rngs[t].random((per_tree[t], d))
                                    for t in np.flatnonzero(per_tree)])
                feats = _draw_features(u, k, log_weights)
            else:
                feats = np.broadcast_to(np.arange(d), (int(open_.sum()), d))
            _split_nodes(flat_ranks, n_rows, values, row, node, c, count, sse, open_,
                         feats, feature, cut, threshold)
        inner = feature >= 0
        child = 2 * np.cumsum(inner) - 2  # the left child's index at the next depth
        levels.append((node_tree, feature, threshold, mean, np.where(inner, child, -1)))
        if not inner.any():
            break
        keep = inner[node]
        row, node = row[keep], node[keep]
        dest = child[node] + (flat_ranks[feature[node] * n_rows + row] > cut[node])
        node, regroup = _sort_with_order(dest, 2 * int(inner.sum()))
        row = row[regroup]
        node_tree = np.repeat(node_tree[inner], 2)
    return _assemble(levels, n_trees)


def _split_nodes(flat_ranks, n_rows, values, row, node, c, count, sse, open_, feats,
                 feature, cut, threshold) -> None:
    """Find each open node's best split among its candidates (row i of
    `feats` for the i-th open node; see `_grow_trees`) and write its
    feature, the rank of its last left value and its threshold into
    `feature`, `cut` and `threshold`. Training row r's rank in feature f is
    flat_ranks[f * n_rows + r].

    Every candidate slot of every open node is scored in one pass: a sort
    of the key node * width + rank, then segmented prefix sums. Entries
    with equal keys hold equal values, so nothing depends on their order.
    Entries are grouped by node, so per-node quantities spread to entries
    by repeats. The prefix sums are integer: each node's targets, centered
    on its mean, are scaled by a power of two and rounded so that any sum
    of them fits 63 bits, which makes every node's sums exact and
    independent of the other nodes. With n rows, a left sum L over a rows
    and the node total T, the SSE a split removes is
    (n * L - a * T)^2 / (a * (n - a) * n).
    """
    nodes = np.flatnonzero(open_)
    keep = open_[node]
    er, ec = row[keep], c[keep]
    n = count[nodes]
    size = int(n.sum())
    starts = np.cumsum(n) - n
    width = values.shape[1]
    # |c| < 2**e and |q| <= 2**(62 - bit length of n)
    e = np.frexp(np.maximum.reduceat(np.abs(ec), starts))[1]
    shift = 62 - np.frexp(n.astype(float))[1] - e
    q = np.rint(np.ldexp(ec, np.repeat(shift, n))).astype(np.int64)
    total = np.add.reduceat(q, starts).astype(float)
    a = np.arange(1, size + 1) - np.repeat(starts, n)
    aT = a * np.repeat(total, n)
    n_e = np.repeat(n, n)  # each entry's node size
    ab = a * (n_e - a).astype(float)
    ab[starts + n - 1] = np.inf  # no boundary after a node's last entry

    key = np.repeat(feats.T * n_rows, n, axis=1)  # (slots, entries)
    key += er
    key = flat_ranks[key]
    key += np.repeat(np.arange(len(nodes)) * width, n)
    key, order = _sort_with_order(key, len(nodes) * width)
    left = np.cumsum(q[order], axis=1)  # wraps across nodes; exact within one
    left -= np.repeat(np.where(starts > 0, left[:, starts - 1], 0), n, axis=1)
    score = left.astype(float)
    score *= n_e
    score -= aT
    score *= score
    score /= ab
    score[:, :-1] *= key[:, 1:] != key[:, :-1]  # 0 where no boundary
    best = np.maximum.reduceat(score, starts, axis=1)
    gain = np.ldexp(best / n, -2 * shift)

    tol = 1e-12 * np.maximum(1.0, sse[nodes])
    best_gain = np.zeros(len(nodes))
    slot = np.full(len(nodes), -1)
    for s in range(len(gain)):
        better = gain[s] > best_gain + tol
        best_gain[better] = gain[s][better]
        slot[better] = s
    won = np.flatnonzero(slot >= 0)
    # in each node's winning slot, the first entry that scores the slot's best
    s = np.maximum(slot, 0)
    hit = (score.ravel()[np.repeat(s * size, n) + np.arange(size)]
           == np.repeat(best[s, np.arange(len(nodes))], n))
    hits = np.flatnonzero(hit)
    s, at = slot[won], hits[np.searchsorted(hits, starts[won])]
    f = feats[won, s]
    lo = key[s, at] - won * width
    hi = key[s, at + 1] - won * width
    lo_v, hi_v = values[f, lo], values[f, hi]
    # the sum of two values past half the largest float overflows, and only
    # then is halving first needed: halving a subnormal rounds, so halving
    # first would round differently from (lo_v + hi_v) / 2
    with np.errstate(over="ignore"):
        thr = (lo_v + hi_v) / 2.0
    thr = np.where(np.isfinite(thr), thr, lo_v / 2.0 + hi_v / 2.0)
    feature[nodes[won]] = f
    cut[nodes[won]] = lo
    threshold[nodes[won]] = np.where(thr <= lo_v, hi_v, thr)


def _sort_with_order(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative integer keys, each below `bound`, sorted along the last
    axis, and the stable permutation that sorts them. When key << bits |
    position fits 63 bits, one sort of those packed integers yields both."""
    bits = (key.shape[-1] - 1).bit_length()
    if bound << bits > 1 << 63:
        order = key.argsort(axis=-1, kind="stable")
        return np.take_along_axis(key, order, axis=-1), order
    packed = key << bits
    packed |= np.arange(key.shape[-1])
    packed.sort(axis=-1)
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return packed, order


def _assemble(levels, n_trees: int) -> list[RegressionTree]:
    """Split the per-depth node arrays into one breadth-first RegressionTree
    per tree."""
    offsets = np.cumsum([0] + [len(level[0]) for level in levels])
    tree, feature, threshold, value, child = (np.concatenate(a) for a in zip(*levels))
    child = np.where(child >= 0, child + np.repeat(offsets[1:], np.diff(offsets)), -1)
    perm = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=n_trees)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(len(tree), dtype=np.int64)
    local[perm] = np.arange(len(tree)) - starts[tree[perm]]
    left = np.where(child >= 0, local[child], -1)
    right = np.where(child >= 0, local[child + 1], -1)
    trees = []
    for t in range(n_trees):
        idx = perm[starts[t]:starts[t] + sizes[t]]
        trees.append(RegressionTree(
            feature=feature[idx].astype(np.int32),
            threshold=threshold[idx],
            left=left[idx].astype(np.int32),
            right=right[idx].astype(np.int32),
            value=value[idx],
        ))
    return trees


@dataclass
class TreeEnsemble:
    """The average of its trees; an ensemble of no trees predicts
    base_value, the training mean. The trees are packed for prediction once,
    when the ensemble is built, so they must not change after that."""

    trees: list[RegressionTree]
    base_value: float
    _packed: _PackedForest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._packed = _pack(self.trees)

    @property
    def n_features(self) -> int:
        """The columns an input needs: one more than the largest feature a
        tree splits on."""
        return self._packed.n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError("prediction input must be 2-D")
        if X.shape[1] < self.n_features:
            raise DataError(f"prediction input has {X.shape[1]} columns, but the trees "
                            f"split on feature {self.n_features - 1}")
        if not self.trees:
            return np.full(len(X), self.base_value)
        n_trees = len(self.trees)
        step = max(1, _PREDICT_BLOCK // n_trees)
        acc = np.empty(len(X))
        for lo in range(0, len(X), step):
            acc[lo:lo + step] = self._packed.leaf_sum(X[lo:lo + step])
        return acc / n_trees


def fit_tree_ensemble(X: np.ndarray, y: np.ndarray, n_estimators: int, max_depth: int,
                      seed: int, feature_weights: np.ndarray | None = None) -> TreeEnsemble:
    """Fit a bagged ensemble of `n_estimators` regression trees of depth at
    most `max_depth`: each tree grows on n rows drawn with replacement and
    draws ceil(sqrt(d)) candidate features per split, from a generator
    spawned from `seed`.

    feature_weights, when given, bias the per-split feature subsampling;
    this is how attention masks steer trees, which are otherwise invariant
    to per-column rescaling. They must be finite and positive, one per
    column, and are validated and normalized once here.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 rows to fit, got {n}")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise DataError("training data must be finite")
    # a node holds at most n rows; fitting sums their squares and their
    # squared distances to the node's mean, each distance at most twice the
    # largest magnitude
    largest = float(np.abs(y).max(initial=0.0))
    if math.isinf(4.0 * n * largest * largest):
        raise DataError(f"a target of magnitude {largest!r} is too large to fit: the "
                        f"squares of {n} such targets could overflow a float")
    weights = log_weights = None
    if feature_weights is not None:
        # checked once here, not at every split; a sum that overflows leaves
        # normalized weights of zero
        w = np.asarray(feature_weights, dtype=float)
        if w.shape == (d,) and (np.isfinite(w) & (w > 0)).all():
            weights = w / w.sum()
        if weights is None or not (weights > 0).all():
            raise DataError("feature_weights must be finite and positive "
                            "with one entry per column")
        log_weights = np.log(weights)

    seeds = np.random.SeedSequence(seed).spawn(n_estimators)
    ranks, values = _rank_columns(X)
    rngs = [np.random.default_rng(ss) for ss in seeds]
    rows = [rng.integers(0, n, size=n) for rng in rngs]
    trees = _grow_trees(ranks, values, y, rows, rngs, max_depth,
                        math.ceil(math.sqrt(d)), log_weights)
    return TreeEnsemble(trees, float(y.mean()))


def mape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute percentage error; every truth must be positive, as
    `training_data` requires of a target."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean(np.abs(y_true - y_pred) / y_true))


@dataclass
class SurrogateModel:
    """Frozen per-objective predictor: a tree ensemble over the raw feature
    rows. `mask_theta` records the attention logits whose weights
    d * softmax(theta) drew each split's candidate features (None for
    unweighted draws); prediction does not read it. Records the
    design-variable bounds observed in training."""

    target: str
    feature_names: list[str]
    ensemble: TreeEnsemble
    mask_theta: np.ndarray | None
    design_feature: str
    design_bounds: tuple[int, int]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError(f"surrogate {self.target!r} prediction input must be 2-D, "
                            f"got shape {X.shape}")
        if X.shape[1] != len(self.feature_names):
            raise DataError(
                f"surrogate {self.target!r} expects {len(self.feature_names)} "
                f"features, got {X.shape[1]}"
            )
        return self.ensemble.predict(X)


def surrogate_features(table: JobTable) -> list[str]:
    """Feature columns for surrogate training: feature-role columns plus the
    design variable (node count is itself an input to both predictors)."""
    names = [c.name for c in table.columns if c.role == "feature"]
    names.append(table.design_column().name)
    return names


def training_data(table: JobTable, target: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Feature names, feature matrix and target vector of a fully
    preprocessed table of at least 2 rows whose target values are all
    positive normal floats, whose node counts span a design domain of at
    least two (see `design_bounds`) and whose columns each have a finite
    standard deviation. Training checks the rows it fits before any mask or
    tree, so a training split of one node count writes no model."""
    if table.n_rows < 2:
        raise DataError(f"surrogate training needs at least 2 rows, the table has "
                        f"{table.n_rows}")
    features = surrogate_features(table)
    if target in features:
        raise DataError(f"target {target!r} cannot also be a feature")
    X = table.numeric_matrix(features)
    y = table.numeric_matrix([target])[:, 0]
    if np.isnan(X).any() or np.isnan(y).any():
        raise DataError("surrogate training requires a fully preprocessed table")
    # runtimes and powers are positive: the runtime GP models their logs, and
    # relative errors divide by them, so a subnormal one is refused like the
    # sampler refuses a subnormal loss
    tiny = float(np.finfo(float).tiny)
    too_small = np.flatnonzero(y < tiny)
    if too_small.size:
        row = int(too_small[0])
        kind = "positive" if y[row] <= 0 else f"at least the smallest normal float {tiny!r}"
        raise DataError(f"regression target {target!r} must be {kind}, but row {row} "
                        f"of the {table.n_rows}-row training table holds {float(y[row])!r}")
    design_bounds(table)
    check_finite_spread([*features, target], np.column_stack([X, y]))
    return features, X, y


def check_finite_spread(names: list[str], X: np.ndarray) -> None:
    """A DataError naming the first of the columns `names` of X whose
    standard deviation is not finite. An overflowing spread would reach tree
    fitting, the mask's feature scales and the metrics as inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        stds = X.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(stds))
    if bad.size:
        raise DataError(f"column {names[int(bad[0])]!r} has no finite standard deviation: "
                        "its spread overflows a float")


def design_bounds(table: JobTable) -> tuple[int, int]:
    """The least and greatest node counts of the training rows, which
    `check_design_bounds` must accept: rows of one node count leave the
    search nothing to choose, so they are a DataError."""
    design = table.design_column().name
    nodes = table.numeric_matrix([design])[:, 0]
    # integral node counts become ints, so that 0.5 or 1e-320 fails the check
    bounds = tuple(int(v) if v.is_integer() else float(v) for v in (nodes.min(), nodes.max()))
    check_design_bounds(bounds, f"design column {design!r} of the training rows")
    return bounds


def check_design_bounds(bounds: tuple, where: str) -> None:
    """A DataError naming `where` unless `bounds` is two integers lo, hi
    with 1 <= lo < hi that span at most MAX_DESIGN_NODES node counts."""
    if not (len(bounds) == 2 and all(type(b) is int for b in bounds)
            and 1 <= bounds[0] <= bounds[1]):
        raise DataError(f"{where}: design bounds {list(bounds)} are not two integers "
                        "lo, hi with 1 <= lo < hi")
    lo, hi = bounds
    if lo == hi:
        raise DataError(f"{where}: design bounds [{lo}, {hi}] span one node count; a "
                        "design domain needs at least 2")
    if hi - lo + 1 > MAX_DESIGN_NODES:
        raise DataError(f"{where}: design bounds [{lo:.10g}, {hi:.10g}] span more than "
                        f"{MAX_DESIGN_NODES} node counts")


def fit_feature_mask(X: np.ndarray, y: np.ndarray, epochs: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray, AttentiveMask]:
    """Standardize the features and train the attentive mask on them against
    the standardized target: the attention weights do not depend on the
    target's scale, so `train_mask`'s one learning rate suits any target.
    Returns the feature means, the feature scales (the standard deviations,
    1 for a constant column) and the mask."""
    X = np.asarray(X, dtype=float)
    scales = X.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    means = X.mean(axis=0)
    y_std = float(y.std()) or 1.0
    mask = train_mask((X - means) / scales, (y - y.mean()) / y_std, epochs, seed)
    return means, scales, mask


def train_objective_surrogate(table: JobTable, target: str, n_estimators: int,
                              max_depth: int, mask_epochs: int, use_embedding: bool,
                              seed: int) -> SurrogateModel:
    """Train one objective predictor from a fully preprocessed table.

    The trees (see `fit_tree_ensemble`) split the raw features. With
    use_embedding, an attentive mask is trained first for `mask_epochs`
    epochs (see `fit_feature_mask`), and its weights bias each
    split's feature draw toward high-attention columns: a positive
    per-column rescaling never changes which split wins, so the draw is the
    only place the mask acts. The design bounds are the least and greatest
    node counts of the training rows (see `check_design_bounds`).
    """
    features, X, y = training_data(table, target)
    mask = fit_feature_mask(X, y, mask_epochs, seed)[2] if use_embedding else None
    ensemble = fit_tree_ensemble(X, y, n_estimators, max_depth, seed,
                                 feature_weights=None if mask is None else mask.m)
    return SurrogateModel(
        target=target,
        feature_names=features,
        ensemble=ensemble,
        mask_theta=None if mask is None else mask.theta,
        design_feature=table.design_column().name,
        design_bounds=design_bounds(table),
    )


def _tree_to_dict(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_dict(d: dict) -> RegressionTree:
    return RegressionTree(
        feature=np.asarray(d["feature"], dtype=np.int32),
        threshold=np.asarray(d["threshold"], dtype=float),
        left=np.asarray(d["left"], dtype=np.int32),
        right=np.asarray(d["right"], dtype=np.int32),
        value=np.asarray(d["value"], dtype=float),
    )


def _write_sorted_json(fh, obj) -> None:
    """Write to `fh` the text json.dumps(obj, sort_keys=True) gives, one dict
    value at a time; an iterator stands for a list whose items are rendered
    and written one at a time, so the largest string held is one item's."""
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_sorted_json(fh, obj[key])
        fh.write("}")
    elif isinstance(obj, Iterator):
        fh.write("[")
        for i, item in enumerate(obj):
            fh.write(", " if i else "")
            fh.write(json.dumps(item, sort_keys=True))
        fh.write("]")
    else:
        fh.write(json.dumps(obj, sort_keys=True))


def save_surrogate(model: SurrogateModel, path: str | Path) -> None:
    """Write `model` as JSON, one tree at a time: the bytes are those of
    json.dumps(payload, sort_keys=True), but the file never exists as one
    string, so writing a forest holds one tree's text, not the forest's."""
    payload = {
        "target": model.target,
        "feature_names": model.feature_names,
        "design_feature": model.design_feature,
        "design_bounds": list(model.design_bounds),
        "mask": None if model.mask_theta is None else {"theta": model.mask_theta.tolist()},
        "ensemble": {
            "base_value": model.ensemble.base_value,
            "trees": map(_tree_to_dict, model.ensemble.trees),
        },
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        _write_sorted_json(fh, payload)


def load_surrogate(path: str | Path) -> SurrogateModel:
    """Read a model `save_surrogate` wrote. A file that cannot be read, is
    not valid JSON (malformed or truncated), was written in the earlier
    format whose trees split standardized features, lacks a field, holds a
    tree index too large for its integer type, a mask theta whose length is
    not the number of feature names, damaged trees (see `_pack`, or a split
    on a feature past the last name), a number that is not finite, a design
    feature that is not one of the feature names, or design bounds
    `check_design_bounds` rejects is a DataError naming it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        # every file written while trees split standardized features holds it
        if "scaler_mean" in payload:
            raise DataError("holds 'scaler_mean': the model-file format changed, and its "
                            "trees split standardized features; train the model again")
        model = _surrogate_from_payload(payload)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"unreadable surrogate model {path}: {exc!r}") from exc
    except DataError as exc:
        raise DataError(f"surrogate model {path}: {exc}") from exc
    d = len(model.feature_names)
    wrong = []
    if model.mask_theta is not None and model.mask_theta.shape != (d,):
        wrong.append(f"theta has shape {model.mask_theta.shape}")
    if model.ensemble.n_features > d:
        wrong.append(f"a tree splits on feature {model.ensemble.n_features - 1}")
    if wrong:
        raise DataError(f"surrogate model {path} names {d} features, but "
                        + "; ".join(wrong))
    trees = model.ensemble.trees
    numbers = [] if model.mask_theta is None else [("theta", model.mask_theta)]
    numbers += [("base_value", model.ensemble.base_value)]
    numbers += [(f"tree {t} {name}", getattr(tree, name))
                for t, tree in enumerate(trees) for name in ("threshold", "value")]
    nonfinite = next((name for name, v in numbers if not np.isfinite(v).all()), None)
    if nonfinite is not None:
        raise DataError(f"surrogate model {path}: {nonfinite} holds a value that is not finite")
    if model.design_feature not in model.feature_names:
        raise DataError(f"surrogate model {path}: design feature "
                        f"{model.design_feature!r} is not one of its feature names")
    check_design_bounds(model.design_bounds, f"surrogate model {path}")
    return model


def _surrogate_from_payload(payload: dict) -> SurrogateModel:
    mask = payload["mask"]
    ens = payload["ensemble"]
    ensemble = TreeEnsemble(
        trees=[_tree_from_dict(t) for t in ens["trees"]],
        base_value=float(ens["base_value"]),
    )
    return SurrogateModel(
        target=payload["target"],
        feature_names=list(payload["feature_names"]),
        ensemble=ensemble,
        mask_theta=None if mask is None else np.asarray(mask["theta"], dtype=float),
        design_feature=payload["design_feature"],
        design_bounds=tuple(payload["design_bounds"]),
    )
