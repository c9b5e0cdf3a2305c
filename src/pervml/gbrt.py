"""Regularized gradient-boosted regression trees, trained second-order.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct values of every candidate column is scored (the lower value where
the midpoint rounds out of the gap), and the split with the largest
regularized loss reduction wins. Leaf values come from the closed
form -soft_threshold(G, alpha) / (H + lambda); a split is kept only when its
gain (which already subtracts the per-leaf penalty gamma) is positive.
Squared-error loss throughout: gradient y_hat - y and hessian 1, so a
node's hessian sum H is its row count and no hessian array is kept.

Each tree is one node table (`Tree`): parallel lists `feature`, `threshold`,
`gain`, `cover` (row count), `value`, `left` and `right`, numbered in
depth-first pre-order with the left child first. The root is node 0, an
internal node's left child is the next node and its right child follows the
left subtree, so every child's number is greater than its parent's. A leaf
has feature -1, its value, and children -1; an internal node has value 0.
Pre-order lets growth, prediction, importance and the nested model JSON each
work from one loop or one explicit stack, visiting nodes in the order a
recursive walk would, so sums over nodes keep their order.

A fit's features never change, so `fit` sorts each column once with a
stable sort (`presort`): XGBoost's pre-sorted column block (Chen & Guestrin,
KDD 2016, section 4.1) at this size. Growth then works on Python lists: a
node holds its rows in ascending order and, for each candidate column, the
same rows in that column's order; a split partitions all of them with the
threshold test, which keeps every list in order. No node sorts, slices an
array or calls numpy, and the split scan reads the orders directly. A stable
order restricted to a node's rows is the stable sort of those rows, so the
trees are those a per-node sort gives, bit for bit; a leaf sums its
gradients as numpy's pairwise sum would (`_pairwise_sum`). Sampled rows take
their prediction update from the leaf they were partitioned into; only the
rows that subsampling left out walk the new tree.

While the training predictions keep their bits, so do the gradients, so a
tree is a pure function of its round's draw of rows and columns. `fit`
therefore keeps each tree that changed no prediction's bits under its
draw, and a later round with the same draw appends a copy of it and grows
nothing. A tree that changes any prediction empties the store, since the
gradients have moved. A draw-free fit (subsample = colsample_bytree = 1)
has one draw, so it stops growing at its first tree that changes no
prediction; a fit that draws only columns stops once each of its few
column subsets has grown such a tree. The test is on the bits, not on ==,
because adding a leaf of 0.0 turns a prediction of -0.0 into 0.0.

A fit's random draws read neither the data nor the gradients: round k's
sampled rows and columns are the k-th draws of `default_rng(seed)`, so they
are a pure function of (seed, n, d, subsample, colsample_bytree) and the
number of rounds. `_sample_schedule` makes them all at once and keeps the
last few schedules, as tuples no fit can change. Grid search fits many
settings and folds with the same seed, rates and row count, and they share
one schedule instead of each drawing its own; the trees are the same bit
for bit.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .modelio import ModelIOError, check_fields, read_model, typed, write_model


@dataclass(frozen=True)
class GbrtParams:
    n_estimators: int = 100
    max_depth: int = 5
    eta: float = 0.3
    gamma: float = 0.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    base_score: float = 0.5
    seed: int = 42

    def __post_init__(self):
        check_fields(self)
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if self.gamma < 0 or self.reg_lambda < 0 or self.reg_alpha < 0:
            raise ValueError("gamma, reg_lambda, reg_alpha must be >= 0")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not 0 < self.colsample_bytree <= 1:
            raise ValueError("colsample_bytree must be in (0, 1]")

    def fit_key(self):
        """(params of the fit, stage): n_estimators = k is stage k of a fit with
        more trees and otherwise equal params (see `staged_predict`)."""
        return replace(self, n_estimators=0), self.n_estimators


@dataclass
class Tree:
    """One regression tree as a pre-order node table (see the module docstring)."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)
    cover: list[float] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)


def _add_node(
    tree: Tree, parent: int, feature=-1, threshold=0.0, gain=0.0, cover=0.0, value=0.0
) -> int:
    """Append the next node in pre-order; `parent` >= 0 marks a right child."""
    node = len(tree.feature)
    if parent >= 0:
        tree.right[parent] = node
    tree.feature.append(feature)
    tree.threshold.append(threshold)
    tree.gain.append(gain)
    tree.cover.append(cover)
    tree.value.append(value)
    tree.left.append(node + 1 if feature >= 0 else -1)
    tree.right.append(-1)
    return node


@dataclass
class TreeEnsemble:
    """An additive stack of regression trees over normalized features.

    Leaf values are already scaled by the learning rate at fit time, so
    prediction is base_score plus a plain sum over trees.
    """

    base_score: float
    eta: float
    feature_names: tuple[str, ...]
    trees: list[Tree] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict(self, X) -> np.ndarray:
        """base_score plus every tree: the last stage of `staged_predict`."""
        for out in self.staged_predict(X):
            pass
        return out

    def staged_predict(self, X):
        """Predictions after 0, 1, ..., len(trees) trees, each a new array.

        The first k trees of an ensemble are the ensemble `fit` grows with
        n_estimators = k, so stage k is that smaller model's prediction,
        bit for bit; `predict` is the last stage.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature column(s), got shape {X.shape}"
            )
        rows = X.tolist()
        out = np.full(X.shape[0], self.base_score, dtype=float)
        yield out
        for tree in self.trees:
            out = out + predict_tree(tree, rows)
            yield out


def _soft_threshold(value: float, alpha: float) -> float:
    return math.copysign(max(abs(value) - alpha, 0.0), value)


def leaf_weight(grad_sum: float, count: float, params: GbrtParams) -> float:
    """Optimal leaf value under the L1/L2-regularized second-order objective."""
    return -_soft_threshold(grad_sum, params.reg_alpha) / (count + params.reg_lambda)


def presort(X) -> tuple[list[list[float]], list[list[int]]]:
    """The columns of X as lists, and for each column every row number in
    ascending order of its value. The sort is stable, so tied values (0.0
    and -0.0 among them) keep ascending row order."""
    cols = np.asarray(X, dtype=float).T.tolist()
    return cols, [sorted(range(len(col)), key=col.__getitem__) for col in cols]


def _pairwise_sum(values: list) -> float:
    """`float(np.sum(values))` for float64 values, bit for bit, on Python floats.

    numpy sums fewer than 8 values left to right from 0.0; up to 128 values
    with 8 interleaved accumulators combined pairwise, then the remainder
    left to right; longer runs by splitting them at a multiple of 8 near
    the middle. The reduction adds the result to 0.0, so a sum of only
    -0.0 values is 0.0.
    """
    return 0.0 + _pairwise_block(values, 0, len(values))


def _pairwise_block(v: list, lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += v[i]
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_block(v, lo, half) + _pairwise_block(v, lo + half, n - half)
    r0, r1, r2, r3, r4, r5, r6, r7 = v[lo : lo + 8]
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        r0 += v[i]
        r1 += v[i + 1]
        r2 += v[i + 2]
        r3 += v[i + 3]
        r4 += v[i + 4]
        r5 += v[i + 5]
        r6 += v[i + 6]
        r7 += v[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        total += v[i]
    return total


def build_tree(cols, orders, rows, g, params: GbrtParams, columns=None):
    """Grow one tree by exact greedy search, depth first from an explicit stack.

    cols and orders are `presort` of the fit's features; rows are the rows
    the tree is grown on, in ascending order; g holds every row's gradient.
    columns are the candidate columns in ascending index order, so
    tie-breaking stays by original index; None means every column.

    Each node carries its rows and, for each candidate column, its rows in
    that column's order. A split partitions every one of these lists with
    the threshold test, which keeps each in its order, so no node sorts.
    Returns the tree and its leaves as (node, rows) pairs.
    """
    if not rows:
        raise ValueError("need at least one sample")
    if columns is None:
        columns = range(len(cols))
    tree_cols = [cols[c] for c in columns]
    if len(rows) == len(g):
        node_orders = [orders[c] for c in columns]
    else:
        sampled = [False] * len(g)
        for r in rows:
            sampled[r] = True
        node_orders = [[r for r in orders[c] if sampled[r]] for c in columns]

    tree = Tree()
    leaves = []
    # (rows, their orders, depth, parent if this is a right child else -1);
    # the left child is pushed last so it is numbered next (pre-order).
    stack = [(rows, node_orders, 0, -1)]
    while stack:
        rows, node_orders, depth, parent = stack.pop()
        gain, col_local = 0.0, -1
        if depth < params.max_depth and len(rows) >= 2:
            gain, col_local, threshold = _kernels.best_split_kernel(
                tree_cols, node_orders, rows, g,
                params.reg_lambda, params.reg_alpha, params.gamma,
            )
        if col_local < 0 or gain <= 0.0:
            value = leaf_weight(_pairwise_sum([g[r] for r in rows]), float(len(rows)), params)
            leaves.append((_add_node(tree, parent, value=value), rows))
            continue
        node = _add_node(tree, parent, columns[col_local], threshold, gain, float(len(rows)))
        col = tree_cols[col_local]
        lists = [rows, *node_orders]
        # Features and thresholds are never NaN, so > is the complement of <=.
        right = [[r for r in part if col[r] > threshold] for part in lists]
        left = [[r for r in part if col[r] <= threshold] for part in lists]
        stack.append((right[0], right[1:], depth + 1, node))
        stack.append((left[0], left[1:], depth + 1, -1))
    return tree, leaves


def predict_tree(tree: Tree, rows) -> list[float]:
    """Each row's leaf value; rows are sequences of feature values (lists)."""
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    out = []
    for row in rows:
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        out.append(value[node])
    return out


def _copy_tree(tree: Tree) -> Tree:
    return Tree(**{name: list(nodes) for name, nodes in vars(tree).items()})


@functools.lru_cache(maxsize=32)
def _sample_schedule(seed, n, d, subsample, colsample_bytree, rounds):
    """Every round's (sampled rows, left-out rows, candidate columns).

    One `default_rng(seed)` makes, each round, ceil(subsample * n) row draws
    without replacement when subsample < 1, then ceil(colsample_bytree * d)
    column draws when colsample_bytree < 1. Rows and columns are sorted
    ascending. Everything is a tuple, so the schedule a fit gets from the
    cache is safe to share with every other fit of the same key.
    """
    rng = np.random.default_rng(seed)
    all_rows, all_cols = tuple(range(n)), tuple(range(d))
    n_rows = math.ceil(subsample * n)
    n_cols = math.ceil(colsample_bytree * d)
    schedule = []
    for _ in range(rounds):
        rows, left_out, columns = all_rows, (), all_cols
        if subsample < 1.0:
            rows = tuple(sorted(rng.choice(n, size=n_rows, replace=False).tolist()))
            sampled = set(rows)
            left_out = tuple(r for r in all_rows if r not in sampled)
        if colsample_bytree < 1.0:
            columns = tuple(sorted(rng.choice(d, size=n_cols, replace=False).tolist()))
        schedule.append((rows, left_out, columns))
    return tuple(schedule)


def fit(X, y, params: GbrtParams, feature_names=None) -> TreeEnsemble:
    """Additive training: each round fits a tree to the current gradients.

    Row subsampling draws ceil(subsample * n) rows without replacement per
    tree, and column subsampling ceil(colsample_bytree * d) columns;
    out-of-sample rows still receive the prediction update so the next
    round's gradients are consistent. The draws depend only on the seed,
    the shape and the rates (`_sample_schedule`), so equal params give
    equal trees on equal data.

    Columns are sorted once per fit, and a round whose draw already grew a
    tree that changed no prediction's bits, with no prediction changed
    since, appends a copy of that tree instead of growing it again (see the
    module docstring); neither changes a bit of the trees.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if y.shape != (X.shape[0],):
        raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if not np.isfinite(y).all():
        raise ValueError("target must be finite")
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise ValueError("feature_names length must match column count")

    ensemble = TreeEnsemble(
        base_score=params.base_score, eta=params.eta, feature_names=feature_names
    )
    cols, orders = presort(X)
    X_rows = X.tolist()
    y = y.tolist()
    preds = [params.base_score] * n
    if params.subsample < 1.0 or params.colsample_bytree < 1.0:
        schedule = _sample_schedule(
            params.seed, n, d, params.subsample, params.colsample_bytree,
            params.n_estimators,
        )
    else:
        schedule = [(range(n), (), None)] * params.n_estimators
    bits = struct.Struct(f"{n}d").pack
    preds_bits = bits(*preds)
    # (rows, columns) -> the tree that draw grew from the current gradients,
    # if it left every prediction's bits unchanged; emptied when one changes.
    fixed = {}
    for rows, left_out, columns in schedule:
        draw = rows, columns
        tree = fixed.get(draw)
        if tree is not None:
            ensemble.trees.append(_copy_tree(tree))
            continue
        g = [p - t for p, t in zip(preds, y)]
        tree, leaves = build_tree(cols, orders, rows, g, params, columns)
        value = tree.value = [v * params.eta for v in tree.value]
        ensemble.trees.append(tree)
        new = preds[:]
        for node, leaf_rows in leaves:
            v = value[node]
            for r in leaf_rows:
                new[r] += v
        if left_out:
            for r, v in zip(left_out, predict_tree(tree, [X_rows[r] for r in left_out])):
                new[r] += v
        new_bits = bits(*new)
        if new_bits == preds_bits:
            fixed[draw] = tree
        else:
            fixed.clear()
            preds, preds_bits = new, new_bits
    return ensemble


def _tree_to_dict(tree: Tree) -> dict:
    """Nested JSON object of a tree, built from the last node back to the root."""
    nodes: list = [None] * len(tree.feature)
    for i in reversed(range(len(nodes))):
        if tree.feature[i] < 0:
            nodes[i] = {"weight": tree.value[i]}
        else:
            nodes[i] = {
                "feature": tree.feature[i],
                "threshold": tree.threshold[i],
                "gain": tree.gain[i],
                "cover": tree.cover[i],
                "left": nodes[tree.left[i]],
                "right": nodes[tree.right[i]],
            }
    return nodes[0]


def _tree_from_dict(obj, n_features: int) -> Tree:
    """Number a nested JSON tree in pre-order, left child first, from a stack."""
    tree = Tree()
    stack = [(obj, -1)]
    while stack:
        obj, parent = stack.pop()
        if not isinstance(obj, dict):
            raise ModelIOError("tree node must be an object")
        if "weight" in obj:
            _add_node(tree, parent, value=typed(obj["weight"], float, "weight"))
            continue
        feature = typed(obj["feature"], int, "split feature")
        if not 0 <= feature < n_features:
            raise ModelIOError(f"split feature {feature} out of range for {n_features} feature(s)")
        split = (typed(obj[key], float, key) for key in ("threshold", "gain", "cover"))
        node = _add_node(tree, parent, feature, *split)
        stack.append((obj["right"], node))
        stack.append((obj["left"], -1))
    return tree


def save_model(model: TreeEnsemble, path):
    write_model(
        path,
        {
            "model_type": "gbrt",
            "base_score": model.base_score,
            "eta": model.eta,
            "feature_names": list(model.feature_names),
            "trees": [_tree_to_dict(tree) for tree in model.trees],
        },
    )


def _ensemble_from_dict(payload: dict) -> TreeEnsemble:
    feature_names = tuple(typed(payload["feature_names"], list[str], "feature_names"))
    return TreeEnsemble(
        base_score=typed(payload["base_score"], float, "base_score"),
        eta=typed(payload["eta"], float, "eta"),
        feature_names=feature_names,
        trees=[_tree_from_dict(t, len(feature_names)) for t in payload["trees"]],
    )


def load_model(path) -> TreeEnsemble:
    return read_model(path, "gbrt", _ensemble_from_dict)
