"""Regularized gradient-boosted regression trees, trained second-order.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct values of every candidate column is scored, and the split with the
largest regularized loss reduction wins. Leaf values come from the closed
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
"""

from __future__ import annotations

import math
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
        out = np.full(X.shape[0], self.base_score, dtype=float)
        yield out
        for tree in self.trees:
            out = out + predict_tree(tree, X)
            yield out


def _soft_threshold(value: float, alpha: float) -> float:
    return math.copysign(max(abs(value) - alpha, 0.0), value)


def leaf_weight(grad_sum: float, count: float, params: GbrtParams) -> float:
    """Optimal leaf value under the L1/L2-regularized second-order objective."""
    return -_soft_threshold(grad_sum, params.reg_alpha) / (count + params.reg_lambda)


def build_tree(X, g, params: GbrtParams, rng=None) -> Tree:
    """Grow one tree by exact greedy search, depth first from an explicit stack.

    When colsample_bytree < 1 and an rng is given, the tree sees only a
    random draw of ceil(colsample_bytree * d) columns (without replacement,
    kept in ascending index order so tie-breaking stays by original index).
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if X.shape[0] != g.shape[0]:
        raise ValueError("X and g must agree on sample count")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    d = X.shape[1]
    if params.colsample_bytree < 1.0 and rng is not None:
        n_cols = math.ceil(params.colsample_bytree * d)
        columns = np.sort(rng.choice(d, size=n_cols, replace=False))
    else:
        columns = np.arange(d)

    tree = Tree()
    # (rows, gradients, depth, parent if this is a right child else -1);
    # the left child is pushed last so it is numbered next (pre-order).
    stack = [(X, g, 0, -1)]
    while stack:
        X, g, depth, parent = stack.pop()
        gain, col_local = 0.0, -1
        if depth < params.max_depth and X.shape[0] >= 2:
            gain, col_local, threshold = _kernels.best_split_kernel(
                X[:, columns].T, g, params.reg_lambda, params.reg_alpha, params.gamma
            )
        if col_local < 0 or gain <= 0.0:
            value = leaf_weight(float(g.sum()), float(len(g)), params)
            _add_node(tree, parent, value=value)
            continue
        feature = int(columns[col_local])
        node = _add_node(
            tree, parent, feature, float(threshold), float(gain), float(len(g))
        )
        mask = X[:, feature] <= threshold
        stack.append((X[~mask], g[~mask], depth + 1, node))
        stack.append((X[mask], g[mask], depth + 1, -1))
    return tree


def predict_tree(tree: Tree, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    feature, threshold = tree.feature, tree.threshold
    left, right, value = tree.left, tree.right, tree.value
    out = []
    for row in X.tolist():
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        out.append(value[node])
    return np.array(out, dtype=float)


def fit(X, y, params: GbrtParams, feature_names=None) -> TreeEnsemble:
    """Additive training: each round fits a tree to the current gradients.

    Row subsampling draws ceil(subsample * n) rows without replacement per
    tree; out-of-sample rows still receive the prediction update so the next
    round's gradients are consistent. Deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if y.shape != (X.shape[0],):
        raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    feature_names = tuple(feature_names)
    if len(feature_names) != d:
        raise ValueError("feature_names length must match column count")

    rng = np.random.default_rng(params.seed)
    ensemble = TreeEnsemble(
        base_score=params.base_score, eta=params.eta, feature_names=feature_names
    )
    preds = np.full(n, params.base_score, dtype=float)
    for _ in range(params.n_estimators):
        g = preds - y
        if params.subsample < 1.0:
            n_rows = math.ceil(params.subsample * n)
            rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        else:
            rows = np.arange(n)
        tree = build_tree(X[rows], g[rows], params, rng)
        tree.value = [v * params.eta for v in tree.value]
        ensemble.trees.append(tree)
        preds += predict_tree(tree, X)
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
