"""Regularized gradient-boosted regression trees, trained second-order.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct values of every candidate column is scored (the lower value where
the midpoint rounds out of the gap), and the split with the largest
regularized loss reduction wins. Leaf values come from the closed
form -soft_threshold(G, alpha) / (H + lambda); a split is kept only when its
gain (which already subtracts the per-leaf penalty gamma) is positive.
Squared-error loss throughout: gradient y_hat - y and hessian 1, so a
node's hessian sum H is its row count and no hessian array is kept.

Each tree is one node table (`Tree`): six parallel lists `feature`,
`threshold`, `gain`, `cover` (row count), `value` and `right`, numbered in
depth-first pre-order with the left child first. The root is node 0, an
internal node's left child is node + 1 (so no list stores it) and its right
child follows the left subtree, so every child's number is greater than its
parent's. A leaf has feature -1 and right -1; an internal node has value 0.
Pre-order lets growth, prediction, importance and the nested model JSON each
work from one loop or one explicit stack, visiting nodes in the order a
recursive walk would, so sums over nodes keep their order.

`fit` and `predict` check X and y with `modelio.check_inputs`, the one input
rule of both model families.

A fit's features never change, so `fit` sorts each column once with a
stable sort (`presort`): XGBoost's pre-sorted column block (Chen & Guestrin,
KDD 2016, section 4.1) at this size. Every boosting round then runs in C
(`_gbrt.c`), in one call per fit, on integer row lists: a node holds its
rows in ascending order and, for each candidate column, the same rows in
that column's order; a split partitions all of them stably with the
threshold test, which keeps every list in order. No node sorts, and the
split scan reads the orders directly. A stable order restricted to a
node's rows is the stable sort of those rows, so the trees are those a
per-node sort gives, bit for bit; a leaf sums its gradients as numpy's
pairwise sum would. The rows that subsampling left out ride along: each
split partitions them with the same threshold test `predict_tree`
applies, so they end in the leaf a walk of the new tree would reach
(XGBoost's prediction cache, updated from the row partition of growth).
Every row takes its prediction update from its leaf, and `fit` walks no
tree. Python keeps the input check, the presort, the draws and the `Tree`
lists built from the node tables the call returns. `build_tree` grows one
tree with the same C grower.

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
last few schedules, as read-only arrays no fit can change. Grid search
fits many settings and folds with the same seed, rates and row count, and
they share one schedule instead of each drawing its own; the trees are the
same bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .modelio import ModelIOError, check_fields, check_inputs, read_model, typed, write_model


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
        more trees and otherwise equal params (see `stage_predictions`)."""
        return replace(self, n_estimators=0), self.n_estimators


@dataclass
class Tree:
    """One regression tree as a pre-order node table (see the module docstring)."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)
    cover: list[float] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
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
        X, _ = check_inputs(X, None, self.n_features)
        rows = X.tolist()
        out = np.full(X.shape[0], self.base_score, dtype=float)
        yield out
        for tree in self.trees:
            out = out + predict_tree(tree, rows)
            yield out


def presort(X) -> tuple[np.ndarray, np.ndarray]:
    """The columns of X as the rows of a C-ordered float64 array, and for each
    column every row number in ascending order of its value. The sort is
    stable, so tied values (0.0 and -0.0 among them) keep ascending row order."""
    cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return cols, np.argsort(cols, axis=1, kind="stable").astype(np.int64, copy=False)


def _trees(links, nodes, spans) -> list[Tree]:
    """Trees from node tables: links holds feature and right, nodes threshold,
    gain, cover and value, and each span is one tree's [start, stop) in them."""
    feature, right = links.tolist()
    threshold, gain, cover, value = nodes.tolist()
    return [
        Tree(feature[a:b], threshold[a:b], gain[a:b], cover[a:b], value[a:b], right[a:b])
        for a, b in spans
    ]


def _nodes_written(size: int) -> int:
    """The node count a compiled grower returned, or the error it stands for."""
    if size == -2:
        raise MemoryError("gbrt could not allocate its work space")
    if size < 0:
        raise RuntimeError("gbrt grew more nodes than its node table holds")
    return size


def build_tree(cols, orders, rows, g, params: GbrtParams, columns=None, left_out=()):
    """Grow one tree by exact greedy search, depth first, as `fit` grows each.

    cols and orders are `presort` of the fit's features; rows are the rows
    the tree is grown on, in ascending order; g holds every row's gradient.
    columns are the candidate columns in ascending index order, so
    tie-breaking stays by original index; None means every column.
    left_out are rows the tree is not grown on, ascending; growth only
    routes them.

    Each node carries its rows, its left-out rows and, for each candidate
    column, its rows in that column's order. A split partitions every one
    of these lists with the threshold test that `predict_tree` applies,
    which keeps each in its order, so no node sorts and a left-out row
    ends in the leaf that `predict_tree` would send it to. Returns the tree,
    leaf values not yet scaled by eta, and its leaves as (node, rows,
    left-out rows) triples. The grower is C (`_gbrt.c`), the one `fit` runs.
    """
    if len(rows) == 0:
        raise ValueError("need at least one sample")
    g = np.ascontiguousarray(g, dtype=np.float64)
    n = len(g)
    cols = np.ascontiguousarray(cols, dtype=np.float64).reshape(-1, n)
    columns = _kernels.indices(
        range(len(cols)) if columns is None else columns, len(cols), "columns"
    )
    rows = _kernels.indices(rows, n, "rows")
    left_out = _kernels.indices(left_out, n, "left_out")
    orders = _kernels.indices(orders, n, "orders").reshape(cols.shape)
    # The grower cuts each order down to the rows by flagging them, so an
    # order must hold every row once and rows and left_out no row twice.
    if not (
        (np.diff(rows) > 0).all()
        and (np.diff(left_out) > 0).all()
        and (np.sort(orders, axis=1) == np.arange(n)).all()
    ):
        raise ValueError("rows and left_out must ascend and each order must hold every row once")
    capacity = 2 * len(rows) - 1  # every leaf holds a row
    links = np.empty((2, capacity), dtype=np.int64)
    nodes = np.empty((4, capacity))
    leaf_of = np.empty(n, dtype=np.int64)
    size = _nodes_written(_kernels.library().pervml_gbrt_grow(
        n, cols.ctypes.data, orders.ctypes.data, g.ctypes.data,
        len(rows), rows.ctypes.data, len(left_out), left_out.ctypes.data,
        len(columns), columns.ctypes.data, min(params.max_depth, _kernels.INT64_MAX),
        params.gamma, params.reg_lambda, params.reg_alpha,
        capacity, links.ctypes.data, nodes.ctypes.data, leaf_of.ctypes.data,
    ))
    (tree,) = _trees(links[:, :size], nodes[:, :size], [(0, size)])
    leaf_of, rows, left_out = leaf_of.tolist(), rows.tolist(), left_out.tolist()
    leaves = [
        (node, [r for r in rows if leaf_of[r] == node], [r for r in left_out if leaf_of[r] == node])
        for node, feature in enumerate(tree.feature)
        if feature < 0
    ]
    return tree, leaves


def predict_tree(tree: Tree, rows) -> list[float]:
    """Each row's leaf value; rows are sequences of feature values (lists)."""
    feature, threshold, right, value = tree.feature, tree.threshold, tree.right, tree.value
    out = []
    for row in rows:
        node = 0
        while feature[node] >= 0:
            node = node + 1 if row[feature[node]] <= threshold[node] else right[node]
        out.append(value[node])
    return out


@functools.lru_cache(maxsize=32)
def _sample_schedule(seed, n, d, subsample, colsample_bytree, rounds):
    """Every draw's sampled rows and candidate columns, and each round's draw.

    One `default_rng(seed)`, made only when a rate is below 1, draws each
    round ceil(subsample * n) rows without replacement when subsample < 1,
    then ceil(colsample_bytree * d) columns when colsample_bytree < 1. Rows
    and columns are sorted ascending, and rounds that draw the same rows and
    columns share one draw. Returns (rows, columns, draw): row i of rows and
    of columns is draw i's, and draw[k] is round k's draw. The arrays are
    read-only, so the schedule a fit gets from the cache is safe to share
    with every fit of the same key.
    """
    rng = np.random.default_rng(seed) if min(subsample, colsample_bytree) < 1.0 else None
    n_rows = math.ceil(subsample * n)
    n_cols = math.ceil(colsample_bytree * d)
    draws = {}  # (rows, columns) -> draw id, in order of first use
    draw = []
    for _ in range(rounds):
        rows, columns = range(n), range(d)
        if subsample < 1.0:
            rows = sorted(rng.choice(n, size=n_rows, replace=False).tolist())
        if colsample_bytree < 1.0:
            columns = sorted(rng.choice(d, size=n_cols, replace=False).tolist())
        draw.append(draws.setdefault((tuple(rows), tuple(columns)), len(draws)))
    schedule = (
        np.array([rows for rows, _ in draws], dtype=np.int64).reshape(len(draws), n_rows),
        np.array([columns for _, columns in draws], dtype=np.int64).reshape(len(draws), n_cols),
        np.array(draw, dtype=np.int64),
    )
    for part in schedule:
        part.flags.writeable = False
    return schedule


def fit(X, y, params: GbrtParams, feature_names=None) -> TreeEnsemble:
    """Additive training: each round fits a tree to the current gradients.

    Each round's rows and columns come from `_sample_schedule`, so equal
    params give equal trees on equal data; the rows a round leaves out still
    receive its prediction update, from the leaf growth routed them to, so
    the next round's gradients are consistent.

    Columns are sorted once per fit, and a round whose draw already grew a
    tree that changed no prediction's bits, with no prediction changed
    since, appends a copy of that tree instead of growing it again (see the
    module docstring); neither changes a bit of the trees.
    """
    X, y = check_inputs(X, y, None)
    d = X.shape[1]
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise ValueError("feature_names length must match column count")
    trees, _ = _boost(X, y, params)
    return TreeEnsemble(params.base_score, params.eta, feature_names, trees)


def stage_predictions(X, y, key: GbrtParams, stages, X_new) -> list[np.ndarray]:
    """Predictions on X_new of `fit(X, y, replace(key, n_estimators=k))` for
    each k of stages, in order: one fit of max(stages) trees, read from
    `staged_predict`, bit for bit what each fit alone gives."""
    staged = list(fit(X, y, replace(key, n_estimators=max(stages))).staged_predict(X_new))
    return [staged[k] for k in stages]


def _boost(X, y, params: GbrtParams) -> tuple[list[Tree], list[bool]]:
    """Every round's tree, and whether the round grew it rather than copying
    an earlier round's; X and y have passed `check_inputs`. All the rounds
    run in one call to C (`_gbrt.c`)."""
    n, d = X.shape
    cols, orders = presort(X)
    y = np.ascontiguousarray(y)
    rows, columns, draw = _sample_schedule(
        params.seed, n, d, params.subsample, params.colsample_bytree, params.n_estimators
    )
    rounds, n_rows = len(draw), rows.shape[1]
    # A tree has at most one leaf per row, and a tree of depth D at most
    # 2**D leaves; only grown trees take nodes.
    capacity = rounds * min(2 * n_rows - 1, 2 ** min(params.max_depth + 1, 63) - 1)
    links = np.empty((2, capacity), dtype=np.int64)
    nodes = np.empty((4, capacity))
    spans = np.empty((rounds, 2), dtype=np.int64)
    grown = np.empty(rounds, dtype=np.int8)
    size = _nodes_written(_kernels.library().pervml_gbrt_fit(
        n, cols.ctypes.data, orders.ctypes.data, y.ctypes.data,
        n_rows, rows.ctypes.data, columns.shape[1], columns.ctypes.data, len(rows),
        rounds, draw.ctypes.data, min(params.max_depth, _kernels.INT64_MAX),
        params.eta, params.gamma, params.reg_lambda, params.reg_alpha, params.base_score,
        capacity, links.ctypes.data, nodes.ctypes.data, spans.ctypes.data, grown.ctypes.data,
    ))
    return _trees(links[:, :size], nodes[:, :size], spans.tolist()), grown.astype(bool).tolist()


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
                "left": nodes[i + 1],
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
