"""Epsilon-insensitive support vector regression with an SMO dual solver.

The solver works on the signed dual coefficients beta = alpha - alpha*
(box [-C, C], sum zero) and repeatedly optimizes the maximal violating pair
exactly; see _kernels.smo_solve. The bias comes from the free (strictly
inside the box) support vectors, or from the midpoint of the feasible bias
interval when none are free. Residuals smaller than epsilon cost nothing,
so points strictly inside the tube end with a zero coefficient and are
dropped from the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .modelio import ModelIOError, check_fields, field_types, read_model, typed, write_model

# The kernels, each with the SvrParams fields its formula reads.
KERNEL_FIELDS = {
    "linear": (),
    "polynomial": ("gamma", "degree", "coef0"),
    "rbf": ("gamma",),
    "sigmoid": ("gamma", "coef0"),
}


class SvrConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SvrParams:
    C: float = 1.0
    epsilon: float = 0.1
    kernel: str = "rbf"
    gamma: float = 0.1
    degree: int = 3
    coef0: float = 0.0
    tol: float = 1e-3
    max_passes: int = 10_000

    def __post_init__(self):
        check_fields(self)
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.kernel not in KERNEL_FIELDS:
            raise ValueError(f"kernel must be one of {tuple(KERNEL_FIELDS)}")
        if self.kernel == "rbf" and self.gamma <= 0:
            raise ValueError("gamma must be > 0 for the rbf kernel")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")

    def fit_key(self):
        """(params of the fit, stage 0): every kernel field this kernel never
        reads is reset to its default, so the settings that fit one model agree."""
        unread = {name for names in KERNEL_FIELDS.values() for name in names}
        unread -= set(KERNEL_FIELDS[self.kernel])
        return replace(self, **{name: getattr(SvrParams, name) for name in unread}), 0


def gram_matrix(params: SvrParams, X1, X2) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X1[i], X2[j])."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(f"dimension mismatch: {X1.shape} vs {X2.shape}")
    if params.kernel == "linear":
        return X1 @ X2.T
    if params.kernel == "polynomial":
        return (params.gamma * (X1 @ X2.T) + params.coef0) ** params.degree
    if params.kernel == "sigmoid":
        return np.tanh(params.gamma * (X1 @ X2.T) + params.coef0)
    sq = (
        (X1 * X1).sum(axis=1)[:, None]
        + (X2 * X2).sum(axis=1)[None, :]
        - 2.0 * (X1 @ X2.T)
    )
    return np.exp(-params.gamma * np.maximum(sq, 0.0))


@dataclass
class SvrModel:
    support_vectors: np.ndarray  # (m, d)
    dual_coefs: np.ndarray  # (m,) signed, each in [-C, C] \ {0}
    bias: float
    params: SvrParams
    n_features: int
    converged: bool = True
    n_iter: int = 0

    def staged_predict(self, X) -> list[np.ndarray]:
        """The one stage an SVR has: `predict`."""
        return [self.predict(X)]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature column(s), got shape {X.shape}"
            )
        if self.dual_coefs.size == 0:
            return np.full(X.shape[0], self.bias, dtype=float)
        K = gram_matrix(self.params, X, self.support_vectors)
        return K @ self.dual_coefs + self.bias


def fit(X, y, params: SvrParams, feature_names=None) -> SvrModel:
    """Solve the dual to tolerance and assemble the support-vector expansion.

    If the iteration cap is hit first, the best-effort model is returned
    with converged=False and an SvrConvergenceWarning carrying the residual.
    A non-finite target, or a kernel matrix that overflows to inf or NaN,
    raises ValueError.
    feature_names is accepted so that every family fits through the same
    call; an SVR model keeps no names.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if y.shape != (X.shape[0],):
        raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("target must be finite")

    with np.errstate(over="ignore", invalid="ignore"):
        K = gram_matrix(params, X, X)
    if not np.isfinite(K).all():
        raise ValueError(f"{params.kernel} kernel matrix is not finite (overflow)")
    beta, max_up, min_low, n_iter, converged = _kernels.smo_solve(
        K, y, float(params.C), float(params.epsilon), float(params.tol), int(params.max_passes)
    )
    if not converged:
        warnings.warn(
            f"SMO hit the iteration cap ({params.max_passes}); "
            f"residual {max_up - min_low:.3e} > tol {params.tol:g}",
            SvrConvergenceWarning,
            stacklevel=2,
        )

    free = (beta != 0.0) & (np.abs(beta) < params.C)
    if free.any():
        e = y - K @ beta
        bias = float(
            np.mean(e[free] - params.epsilon * np.sign(beta[free]))
        )
    else:
        # Midpoint of the feasible bias interval [min_low, max_up].
        bias = 0.5 * (max_up + min_low)

    keep = beta != 0.0
    return SvrModel(
        support_vectors=X[keep].copy(),
        dual_coefs=beta[keep].copy(),
        bias=float(bias),
        params=params,
        n_features=X.shape[1],
        converged=bool(converged),
        n_iter=int(n_iter),
    )


# The model file's "kernel" section: each SvrParams field under its key, kind first.
_KERNEL_KEYS = {"kernel": "kind"} | {n: n for n in field_types(SvrParams) if n != "kernel"}


def save_model(model: SvrModel, path):
    write_model(
        path,
        {
            "model_type": "svr",
            "kernel": {key: getattr(model.params, name) for name, key in _KERNEL_KEYS.items()},
            "n_features": model.n_features,
            "support_vectors": [list(row) for row in model.support_vectors],
            "dual_coefs": list(model.dual_coefs),
            "bias": model.bias,
            "solver": {"converged": model.converged, "n_iter": model.n_iter},
        },
    )


def _model_from_dict(payload: dict) -> SvrModel:
    kernel, types = payload["kernel"], field_types(SvrParams)
    params = SvrParams(
        **{name: typed(kernel[key], types[name], key) for name, key in _KERNEL_KEYS.items()}
    )
    n_features = typed(payload["n_features"], int, "n_features")
    rows = [typed(row, list[float], "support vector") for row in payload["support_vectors"]]
    sv = np.array(rows, dtype=float).reshape(-1, n_features)
    dual_coefs = np.array(typed(payload["dual_coefs"], list[float], "dual_coefs"), dtype=float)
    if dual_coefs.shape != (len(sv),):
        raise ModelIOError(f"{dual_coefs.size} dual coefficient(s) for {len(sv)} support vector(s)")
    solver = typed(payload.get("solver", {}), dict, "solver")
    return SvrModel(
        support_vectors=sv,
        dual_coefs=dual_coefs,
        bias=typed(payload["bias"], float, "bias"),
        params=params,
        n_features=n_features,
        converged=typed(solver.get("converged", True), bool, "converged"),
        n_iter=typed(solver.get("n_iter", 0), int, "n_iter"),
    )


def load_model(path) -> SvrModel:
    return read_model(path, "svr", _model_from_dict)
