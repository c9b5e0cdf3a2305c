"""Regularized gradient-boosted regression trees, trained second-order.

Trees are grown by exact greedy search: every midpoint between consecutive
distinct values of every candidate column is scored, and the split with the
largest regularized loss reduction wins. Leaf values come from the closed
form -soft_threshold(G, alpha) / (H + lambda); a split is kept only when its
gain (which already subtracts the per-leaf penalty gamma) is positive.
Squared-error loss throughout: gradient y_hat - y, hessian 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .modelio import ModelIOError, read_model, write_model


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


@dataclass(frozen=True)
class GradStats:
    """Accumulated first/second derivatives over a set of samples."""

    grad_sum: float
    hess_sum: float
    count: int

    @classmethod
    def from_arrays(cls, g, h) -> "GradStats":
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        return cls(grad_sum=float(g.sum()), hess_sum=float(h.sum()), count=g.size)


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1, weight set)."""

    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    cover: float = 0.0
    weight: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class TreeEnsemble:
    """An additive stack of regression trees over normalized features.

    Leaf weights are already scaled by the learning rate at fit time, so
    prediction is base_score plus a plain sum over trees.
    """

    base_score: float
    eta: float
    feature_names: tuple[str, ...]
    trees: list[TreeNode] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature column(s), got shape {X.shape}"
            )
        out = np.full(X.shape[0], self.base_score, dtype=float)
        for root in self.trees:
            out += predict_tree(root, X)
        return out


def grad_hess(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    """Squared-error derivatives: g = y_hat - y, h = 1."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    return y_hat - y, np.ones_like(y)


def _soft_threshold(value: float, alpha: float) -> float:
    return math.copysign(max(abs(value) - alpha, 0.0), value)


def leaf_weight(stats: GradStats, params: GbrtParams) -> float:
    """Optimal leaf value under the L1/L2-regularized second-order objective."""
    return -_soft_threshold(stats.grad_sum, params.reg_alpha) / (
        stats.hess_sum + params.reg_lambda
    )


def split_gain(left: GradStats, right: GradStats, params: GbrtParams) -> float:
    """Regularized loss reduction of a split, minus the per-leaf penalty gamma.

    Uses the same expression, in the same operation order, as the split
    kernel so that enumerating candidates through this function reproduces
    the kernel's scores exactly.
    """
    gl, hl = left.grad_sum, left.hess_sum
    gr, hr = right.grad_sum, right.hess_sum
    alpha = params.reg_alpha
    lam = params.reg_lambda
    tl = max(abs(gl) - alpha, 0.0)
    tr = max(abs(gr) - alpha, 0.0)
    tp = max(abs(gl + gr) - alpha, 0.0)
    return (
        0.5 * (tl * tl / (hl + lam) + tr * tr / (hr + lam) - tp * tp / (hl + hr + lam))
        - params.gamma
    )


def _grow(X, g, h, params: GbrtParams, columns: np.ndarray, depth: int) -> TreeNode:
    n = X.shape[0]
    cover = float(h.sum())
    if depth >= params.max_depth or n < 2:
        return TreeNode(weight=leaf_weight(GradStats.from_arrays(g, h), params))
    xt = np.ascontiguousarray(X[:, columns].T)
    gain, col_local, threshold = _kernels.best_split_kernel(
        xt, g, h, params.reg_lambda, params.reg_alpha, params.gamma
    )
    if col_local < 0 or gain <= 0.0:
        return TreeNode(weight=leaf_weight(GradStats.from_arrays(g, h), params))
    feature = int(columns[col_local])
    mask = X[:, feature] <= threshold
    node = TreeNode(
        feature=feature,
        threshold=float(threshold),
        gain=float(gain),
        cover=cover,
        left=_grow(X[mask], g[mask], h[mask], params, columns, depth + 1),
        right=_grow(X[~mask], g[~mask], h[~mask], params, columns, depth + 1),
    )
    return node


def build_tree(X, g, h, params: GbrtParams, rng=None) -> TreeNode:
    """Grow one tree by exact greedy search.

    When colsample_bytree < 1 and an rng is given, the tree sees only a
    random draw of ceil(colsample_bytree * d) columns (without replacement,
    kept in ascending index order so tie-breaking stays by original index).
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if not (X.shape[0] == g.shape[0] == h.shape[0]):
        raise ValueError("X, g, h must agree on sample count")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    d = X.shape[1]
    if params.colsample_bytree < 1.0 and rng is not None:
        n_cols = math.ceil(params.colsample_bytree * d)
        columns = np.sort(rng.choice(d, size=n_cols, replace=False))
    else:
        columns = np.arange(d)
    return _grow(X, g, h, params, columns, depth=0)


def predict_tree(root: TreeNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0], dtype=float)
    for i in range(X.shape[0]):
        node = root
        while not node.is_leaf:
            node = node.left if X[i, node.feature] <= node.threshold else node.right
        out[i] = node.weight
    return out


def _scale_leaves(node: TreeNode, factor: float):
    if node.is_leaf:
        node.weight *= factor
    else:
        _scale_leaves(node.left, factor)
        _scale_leaves(node.right, factor)


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
        g, h = grad_hess(y, preds)
        if params.subsample < 1.0:
            n_rows = math.ceil(params.subsample * n)
            rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        else:
            rows = np.arange(n)
        root = build_tree(X[rows], g[rows], h[rows], params, rng)
        _scale_leaves(root, params.eta)
        ensemble.trees.append(root)
        preds += predict_tree(root, X)
    return ensemble


def predict(model: TreeEnsemble, X) -> np.ndarray:
    return model.predict(X)


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "gain": node.gain,
        "cover": node.cover,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(obj, n_features: int) -> TreeNode:
    if not isinstance(obj, dict):
        raise ModelIOError("tree node must be an object")
    if "weight" in obj:
        return TreeNode(weight=float(obj["weight"]))
    try:
        feature = int(obj["feature"])
        if not 0 <= feature < n_features:
            raise ModelIOError(
                f"split feature {feature} out of range for {n_features} feature(s)"
            )
        return TreeNode(
            feature=feature,
            threshold=float(obj["threshold"]),
            gain=float(obj["gain"]),
            cover=float(obj["cover"]),
            left=_node_from_dict(obj["left"], n_features),
            right=_node_from_dict(obj["right"], n_features),
        )
    except KeyError as exc:
        raise ModelIOError(f"tree node missing field {exc}") from exc


def save_model(model: TreeEnsemble, path):
    write_model(
        path,
        {
            "model_type": "gbrt",
            "base_score": model.base_score,
            "eta": model.eta,
            "feature_names": list(model.feature_names),
            "trees": [_node_to_dict(root) for root in model.trees],
        },
    )


def load_model(path) -> TreeEnsemble:
    payload = read_model(path, expected_type="gbrt")
    try:
        feature_names = tuple(payload["feature_names"])
        return TreeEnsemble(
            base_score=float(payload["base_score"]),
            eta=float(payload["eta"]),
            feature_names=feature_names,
            trees=[_node_from_dict(t, len(feature_names)) for t in payload["trees"]],
        )
    except (KeyError, TypeError) as exc:
        raise ModelIOError(f"{path}: malformed model payload ({exc})") from exc
