"""Regularized gradient-boosted regression trees, trained second-order.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct values of every candidate column is scored (the lower value where
the midpoint rounds out of the gap), and the split with the largest
regularized loss reduction wins. Leaf values come from the closed
form -soft_threshold(G, alpha) / (H + lambda); a split is kept only when its
gain (which already subtracts the per-leaf penalty gamma) is positive.
Squared-error loss throughout: gradient y_hat - y and hessian 1, so a
node's hessian sum H is its row count and no hessian array is kept.

An ensemble is its node tables (`TreeEnsemble`): `links` holds each node's
`feature` and `right`, `nodes` its `threshold`, `gain`, `cover` (row count)
and `value`, and `spans` one [start, stop) range of them per round. Within
its span a tree is numbered in depth-first pre-order, left child first: the
root is node 0, an internal node's left child is node + 1 (so no table
stores it) and its right child follows the left subtree, so every child's
number is greater than its parent's. A leaf has feature -1 and right -1; an
internal node has value 0. Pre-order lets growth, prediction, importance
and the nested model JSON each work from one loop or one explicit stack,
visiting nodes in the order a recursive walk would, so sums over nodes keep
their order. Prediction, too, walks the tables in C; `Tree` copies one span
out as lists, for inspection only.

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
split partitions them with the same threshold test prediction applies,
so they end in the leaf a walk of the new tree would reach (XGBoost's
prediction cache, updated from the row partition of growth). Every row
takes its prediction update from its leaf, and `fit` walks no tree. Python
keeps the input check, the presort and the draws; the ensemble keeps the
node tables the call returns. `build_tree` is one round of that call.

While the training predictions keep their bits, so do the gradients, so a
tree is a pure function of its round's draw of rows and columns. `fit`
therefore keeps each tree that changed no prediction's bits under its
draw, and a later round with the same draw points at that tree's span and
grows nothing. A tree that changes any prediction empties the store, since
the gradients have moved. A draw-free fit (subsample = colsample_bytree = 1)
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
        """The params of the fit that serves every n_estimators: the first k
        trees of a fit are the fit with n_estimators = k and otherwise equal
        params (see `stage_predictions`)."""
        return replace(self, n_estimators=0)


@dataclass
class Tree:
    """One tree's span of the node tables, copied out as lists (see the
    module docstring); nothing fits, predicts or scores with one."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    gain: list[float] = field(default_factory=list)
    cover: list[float] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    right: list[int] = field(default_factory=list)


def _tree(links, nodes, start, stop) -> Tree:
    feature, right = links[:, start:stop].tolist()
    return Tree(feature, *nodes[:, start:stop].tolist(), right)


@dataclass(frozen=True)
class TreeEnsemble:
    """An additive stack of regression trees over normalized features, as
    node tables (module docstring) kept as read-only C-ordered copies. Leaf
    values are already scaled by the learning rate at fit time, so
    prediction is base_score plus a plain sum over rounds.
    """

    base_score: float
    eta: float
    feature_names: tuple[str, ...]
    links: np.ndarray
    nodes: np.ndarray
    spans: np.ndarray

    def __post_init__(self):
        for name, dtype in (("links", np.int64), ("nodes", np.float64), ("spans", np.int64)):
            table = np.array(getattr(self, name), dtype=dtype, order="C")
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        links, nodes, spans = self.links.shape, self.nodes.shape, self.spans.shape
        if links != (2, *links[1:2]) or nodes != (4, *links[1:2]) or spans[1:] != (2,):
            raise ValueError("node tables must be links (2, n), nodes (4, n), spans (rounds, 2)")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def trees(self) -> list[Tree]:
        """Each round's tree, copied out of the tables."""
        return [_tree(self.links, self.nodes, a, b) for a, b in self.spans.tolist()]

    def predict(self, X) -> np.ndarray:
        """base_score plus every round: the last stage of `predict_stages`."""
        return self.predict_stages(X, [len(self.spans)])[0]

    def predict_stages(self, X, stages) -> np.ndarray:
        """One row per stage k of stages (in [0, rounds], any order, repeats
        allowed): base_score plus the leaf values of rounds 0..k-1, added in
        round order. The first k rounds are the ensemble `fit` grows with
        n_estimators = k, so stage k is that model's prediction, bit for bit.
        One call to C walks every row; tables that would lead it outside
        themselves raise ValueError.
        """
        X = np.ascontiguousarray(check_inputs(X, None, self.n_features)[0])
        stages = _kernels.indices(stages, len(self.spans) + 1, "stages")
        out = np.empty((len(stages), len(X)))
        if _kernels.library().pervml_gbrt_predict(
            *X.shape, X.ctypes.data, self.links.shape[1], self.links.ctypes.data,
            self.nodes.ctypes.data, self.spans.ctypes.data, self.base_score,
            len(stages), stages.ctypes.data, out.ctypes.data,
        ):
            raise ValueError("a span, split feature or child number lies outside the node tables")
        return out


def presort(X) -> tuple[np.ndarray, np.ndarray]:
    """The columns of X as the rows of a C-ordered float64 array, and for each
    column every row number in ascending order of its value. The sort is
    stable, so tied values (0.0 and -0.0 among them) keep ascending row order."""
    cols = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return cols, np.argsort(cols, axis=1, kind="stable").astype(np.int64, copy=False)


def _nodes_written(size: int) -> int:
    """The node count the compiled fit returned, or the error it stands for."""
    if size == -2:
        raise MemoryError("gbrt could not allocate its work space")
    if size < 0:
        raise RuntimeError("gbrt grew more nodes than its node table holds")
    return size


def build_tree(cols, orders, rows, g, params: GbrtParams, columns=None, left_out=()):
    """Grow one tree by exact greedy search, depth first, as `fit` grows each.

    cols and orders are `presort` of the fit's features; rows are the rows
    the tree is grown on, ascending; g holds every row's gradient. columns
    are the candidate columns, ascending so that ties go to the lower index;
    None means every column. left_out are rows the tree is not grown on,
    ascending; growth only routes them.

    A split partitions a node's rows, left-out rows and column orders with
    the threshold test that prediction applies, so no node sorts and a
    left-out row ends in the leaf prediction would send it to. Returns the
    tree, leaf values not yet scaled by eta, and its leaves as (node, rows,
    left-out rows) triples. The tree is one round of `fit`'s C call, on
    targets y = -g from base score 0.0 with eta 1.0: the round's gradients
    0.0 - y are g but for -0.0, which becomes 0.0, and no sum (each starts
    from 0.0) or gain (each reads |G|) tells the two apart.
    """
    if len(rows) == 0:
        raise ValueError("need at least one sample")
    y = -np.ascontiguousarray(g, dtype=np.float64)
    n = len(y)
    cols = np.ascontiguousarray(cols, dtype=np.float64).reshape(-1, n)
    columns = _kernels.indices(
        range(len(cols)) if columns is None else columns, len(cols), "columns"
    )
    rows = _kernels.indices(rows, n, "rows")
    left_out = _kernels.indices(left_out, n, "left_out")
    orders = _kernels.indices(orders, n, "orders").reshape(cols.shape)
    # The fit cuts each order down to the rows by flagging them, so an order
    # must hold every row once and rows, like left_out, no row twice.
    if not (
        (np.diff(rows) > 0).all()
        and (np.diff(left_out) > 0).all()
        and (np.sort(orders, axis=1) == np.arange(n)).all()
    ):
        raise ValueError("rows and left_out must ascend and each order must hold every row once")
    capacity = 2 * len(rows) - 1  # every leaf holds a row
    links = np.empty((2, capacity), dtype=np.int64)
    nodes = np.empty((4, capacity))
    spans, draw = np.empty(2, dtype=np.int64), np.zeros(1, dtype=np.int64)
    leaf_of = np.empty(n, dtype=np.int64)
    size = _nodes_written(_kernels.library().pervml_gbrt_fit(
        n, cols.ctypes.data, orders.ctypes.data, y.ctypes.data,
        len(rows), rows.ctypes.data, len(columns), columns.ctypes.data, 1,
        1, draw.ctypes.data, min(params.max_depth, _kernels.INT64_MAX),
        1.0, params.gamma, params.reg_lambda, params.reg_alpha, 0.0,
        capacity, links.ctypes.data, nodes.ctypes.data, spans.ctypes.data, leaf_of.ctypes.data,
    ))
    tree = _tree(links, nodes, 0, size)
    leaf_of, rows, left_out = leaf_of.tolist(), rows.tolist(), left_out.tolist()
    leaves = [
        (node, [r for r in rows if leaf_of[r] == node], [r for r in left_out if leaf_of[r] == node])
        for node, feature in enumerate(tree.feature)
        if feature < 0
    ]
    return tree, leaves


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

    Columns are sorted once per fit, and a round that repeats an earlier
    tree points at its span instead of growing it (module docstring);
    neither changes a bit of the trees. All the rounds run in one C call.
    """
    X, y = check_inputs(X, y, None)
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise ValueError("feature_names length must match column count")
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
    size = _nodes_written(_kernels.library().pervml_gbrt_fit(
        n, cols.ctypes.data, orders.ctypes.data, y.ctypes.data,
        n_rows, rows.ctypes.data, columns.shape[1], columns.ctypes.data, len(rows),
        rounds, draw.ctypes.data, min(params.max_depth, _kernels.INT64_MAX),
        params.eta, params.gamma, params.reg_lambda, params.reg_alpha, params.base_score,
        capacity, links.ctypes.data, nodes.ctypes.data, spans.ctypes.data, None,
    ))
    return TreeEnsemble(
        params.base_score, params.eta, feature_names, links[:, :size], nodes[:, :size], spans
    )


def stage_predictions(X, y, members: list[GbrtParams], X_new) -> np.ndarray:
    """Predictions on X_new of `fit(X, y, params)` for each params of members,
    which share one `fit_key`, as one C-contiguous (members x rows) array
    whose row i is members[i]'s: one fit of the most trees, read at every
    member's n_estimators in one walk, bit for bit what each fit alone gives."""
    model = fit(X, y, max(members, key=lambda params: params.n_estimators))
    return model.predict_stages(X_new, [params.n_estimators for params in members])


def _tree_to_dict(tables, start: int, stop: int) -> dict:
    """Nested JSON object of the tree in [start, stop) of the tables (feature,
    right, threshold, gain, cover and value lists), built from the last node."""
    feature, right, threshold, gain, cover, value = tables
    nodes: list = [None] * (stop - start)
    for i in reversed(range(stop - start)):
        at = start + i
        if feature[at] < 0:
            nodes[i] = {"weight": value[at]}
        else:
            nodes[i] = {
                "feature": feature[at], "threshold": threshold[at], "gain": gain[at],
                "cover": cover[at], "left": nodes[i + 1], "right": nodes[right[at]],
            }
    return nodes[0]


def _tables_from_dicts(trees, n_features: int):
    """Node tables and spans of nested JSON trees, each tree numbered in
    pre-order, left child first, from a stack."""
    links, nodes, spans = [], [], []
    for obj in trees:
        start = len(links)
        stack = [(obj, -1)]
        while stack:
            obj, parent = stack.pop()
            if not isinstance(obj, dict):
                raise ModelIOError("tree node must be an object")
            node = len(links) - start
            if parent >= 0:
                links[start + parent][1] = node
            if "weight" in obj:
                links.append([-1, -1])
                nodes.append((0.0, 0.0, 0.0, typed(obj["weight"], float, "weight")))
                continue
            feature = typed(obj["feature"], int, "split feature")
            if not 0 <= feature < n_features:
                raise ModelIOError(
                    f"split feature {feature} out of range for {n_features} feature(s)"
                )
            split = (typed(obj[key], float, key) for key in ("threshold", "gain", "cover"))
            links.append([feature, -1])
            nodes.append((*split, 0.0))
            stack += [(obj["right"], node), (obj["left"], -1)]
        spans.append((start, len(links)))
    return (
        np.array(links, dtype=np.int64).reshape(-1, 2).T,
        np.array(nodes, dtype=np.float64).reshape(-1, 4).T,
        np.array(spans, dtype=np.int64).reshape(-1, 2),
    )


def save_model(model: TreeEnsemble, path):
    tables = [*model.links.tolist(), *model.nodes.tolist()]
    write_model(
        path,
        {
            "model_type": "gbrt",
            "base_score": model.base_score,
            "eta": model.eta,
            "feature_names": list(model.feature_names),
            "trees": [_tree_to_dict(tables, a, b) for a, b in model.spans.tolist()],
        },
    )


def _ensemble_from_dict(payload: dict) -> TreeEnsemble:
    feature_names = tuple(typed(payload["feature_names"], list[str], "feature_names"))
    return TreeEnsemble(
        typed(payload["base_score"], float, "base_score"),
        typed(payload["eta"], float, "eta"),
        feature_names,
        *_tables_from_dicts(payload["trees"], len(feature_names)),
    )


def load_model(path) -> TreeEnsemble:
    return read_model(path, "gbrt", _ensemble_from_dict)
