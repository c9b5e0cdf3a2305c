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
from .modelio import ModelIOError, check_fields, check_inputs, field_types, read_model
from .modelio import typed, write_model

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
        if self.degree < 0:
            # (gamma x.y + coef0) ** -1 is not a kernel; LIBSVM rejects it too.
            raise ValueError("degree must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")

    def fit_key(self):
        """The params of the fit that serves every C: C and the kernel fields
        this kernel never reads at their defaults (see `stage_predictions`)."""
        unread = {name for names in KERNEL_FIELDS.values() for name in names}
        unread -= set(KERNEL_FIELDS[self.kernel])
        return replace(self, **{name: getattr(SvrParams, name) for name in unread | {"C"}})


def gram_matrix(params: SvrParams, X1, X2) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X1[i], X2[j])."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
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
    converged: bool = True
    n_iter: int = 0

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    def predict(self, X) -> np.ndarray:
        X, _ = check_inputs(X, None, self.n_features)
        if self.dual_coefs.size == 0:
            return np.full(X.shape[0], self.bias, dtype=float)
        K = gram_matrix(self.params, X, self.support_vectors)
        return K @ self.dual_coefs + self.bias


def fit(X, y, params: SvrParams, feature_names=None) -> SvrModel:
    """Solve the dual to tolerance and assemble the support-vector expansion.

    If the iteration cap is hit first, the best-effort model is returned
    with converged=False and an SvrConvergenceWarning carrying the residual.
    Inputs that `modelio.check_inputs` rejects, or a kernel matrix that
    overflows to inf or NaN, raise ValueError.
    feature_names is accepted so that every family fits through the same
    call; an SVR model keeps no names.
    """
    return _fit_path(X, y, [params])[0]


def stage_predictions(X, y, members: list[SvrParams], X_new) -> np.ndarray:
    """Predictions on X_new of `fit(X, y, params)` for each params of members,
    which share one `fit_key`, as one C-contiguous (members x rows) array
    whose row i is members[i]'s: one fit per distinct C, along one path
    (`_fit_path`); members of equal C differ only in fields no fit reads."""
    path = {}
    for params in members:
        path.setdefault(params.C, params)
    models = _fit_path(X, y, list(path.values()))
    predictions = {C: model.predict(X_new) for C, model in zip(path, models)}
    return np.stack([predictions[params.C] for params in members])


def _fit_path(X, y, path: list[SvrParams]) -> list[SvrModel]:
    """The model of each params of path, which differ only in C, bit for bit
    the model a fit of those params alone gives: the Gram matrix is built
    once, and each C's SMO run starts cold on it (`_kernels.smo_solve`).
    """
    X, y = check_inputs(X, y, None)
    with np.errstate(over="ignore", invalid="ignore"):
        K = gram_matrix(path[0], X, X)
    if not np.isfinite(K).all():
        raise ValueError(f"{path[0].kernel} kernel matrix is not finite (overflow)")
    models = []
    for params in path:
        beta, max_up, min_low, n_iter, converged = _kernels.smo_solve(
            K, y, float(params.C), float(params.epsilon), float(params.tol),
            int(params.max_passes),
        )
        if not converged:
            warnings.warn(
                f"SMO hit the iteration cap ({params.max_passes}); "
                f"residual {max_up - min_low:.3e} > tol {params.tol:g}",
                SvrConvergenceWarning,
                stacklevel=3,
            )
        free = (beta != 0.0) & (np.abs(beta) < params.C)
        if free.any():
            e = y - K @ beta
            bias = float(np.mean(e[free] - params.epsilon * np.sign(beta[free])))
        else:
            # Midpoint of the feasible bias interval [min_low, max_up].
            bias = 0.5 * (max_up + min_low)
        keep = beta != 0.0
        models.append(SvrModel(X[keep], beta[keep], bias, params, converged, n_iter))
    return models


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
    if any(len(row) != n_features for row in rows):
        raise ModelIOError(f"support vectors must hold n_features = {n_features} value(s) each")
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
        converged=typed(solver.get("converged", True), bool, "converged"),
        n_iter=typed(solver.get("n_iter", 0), int, "n_iter"),
    )


def load_model(path) -> SvrModel:
    return read_model(path, "svr", _model_from_dict)
