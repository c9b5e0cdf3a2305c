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
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .modelio import ModelIOError, float_field, float_list, integer_field
from .modelio import read_model, write_model

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")


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
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"kernel must be one of {KERNEL_KINDS}")
        if self.kernel == "rbf" and self.gamma <= 0:
            raise ValueError("gamma must be > 0 for the rbf kernel")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


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
    feature_names is accepted so that every family fits through the same
    call; an SVR model keeps no names.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if y.shape != (X.shape[0],):
        raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")

    K = gram_matrix(params, X, X)
    beta, max_up, min_low, n_iter, converged = _kernels.smo_solve(
        np.ascontiguousarray(K),
        np.ascontiguousarray(y),
        float(params.C),
        float(params.epsilon),
        float(params.tol),
        int(params.max_passes),
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


def kkt_violation(model: SvrModel, X, y, params: SvrParams | None = None) -> float:
    """Largest violation of the epsilon-optimality conditions on (X, y).

    Training rows are matched to support vectors by value to recover their
    coefficients (rows absent from the model have coefficient zero). The
    sum-to-zero equality residual is included in the maximum.
    """
    if params is None:
        params = model.params
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    coef_by_row: dict[bytes, list[float]] = {}
    for sv, coef in zip(model.support_vectors, model.dual_coefs):
        coef_by_row.setdefault(np.ascontiguousarray(sv).tobytes(), []).append(coef)
    beta = np.zeros(X.shape[0])
    for i in range(X.shape[0]):
        stack = coef_by_row.get(np.ascontiguousarray(X[i]).tobytes())
        if stack:
            beta[i] = stack.pop(0)

    residual = model.predict(X) - y
    C, eps = params.C, params.epsilon
    worst = abs(float(beta.sum()))
    for i in range(X.shape[0]):
        b, r = beta[i], residual[i]
        if b == 0.0:
            viol = max(0.0, abs(r) - eps)
        elif b >= C:
            viol = max(0.0, r + eps)
        elif b > 0.0:
            viol = abs(r + eps)
        elif b <= -C:
            viol = max(0.0, eps - r)
        else:
            viol = abs(r - eps)
        worst = max(worst, viol)
    return worst


def save_model(model: SvrModel, path):
    write_model(
        path,
        {
            "model_type": "svr",
            "kernel": {
                "kind": model.params.kernel,
                "C": model.params.C,
                "epsilon": model.params.epsilon,
                "gamma": model.params.gamma,
                "degree": model.params.degree,
                "coef0": model.params.coef0,
                "tol": model.params.tol,
                "max_passes": model.params.max_passes,
            },
            "n_features": model.n_features,
            "support_vectors": [list(row) for row in model.support_vectors],
            "dual_coefs": list(model.dual_coefs),
            "bias": model.bias,
            "solver": {"converged": model.converged, "n_iter": model.n_iter},
        },
    )


def load_model(path) -> SvrModel:
    payload = read_model(path, expected_type="svr")
    try:
        kernel = payload["kernel"]
        params = SvrParams(
            C=float_field(kernel["C"], "C"),
            epsilon=float_field(kernel["epsilon"], "epsilon"),
            kernel=str(kernel["kind"]),
            gamma=float_field(kernel["gamma"], "gamma"),
            degree=integer_field(kernel["degree"], "degree"),
            coef0=float_field(kernel["coef0"], "coef0"),
            tol=float_field(kernel["tol"], "tol"),
            max_passes=integer_field(kernel["max_passes"], "max_passes"),
        )
        n_features = integer_field(payload["n_features"], "n_features")
        rows = [float_list(row, "support vector") for row in payload["support_vectors"]]
        sv = np.array(rows, dtype=float).reshape(-1, n_features)
        dual_coefs = np.array(float_list(payload["dual_coefs"], "dual_coefs"), dtype=float)
        if dual_coefs.shape != (len(sv),):
            raise ModelIOError(
                f"{path}: {dual_coefs.size} dual coefficient(s) "
                f"for {len(sv)} support vector(s)"
            )
        solver = payload.get("solver", {})
        if not isinstance(solver, dict):
            raise ModelIOError(f"solver must be an object, got {solver!r}")
        converged = solver.get("converged", True)
        if not isinstance(converged, bool):
            raise ModelIOError(f"converged must be true or false, got {converged!r}")
        return SvrModel(
            support_vectors=sv,
            dual_coefs=dual_coefs,
            bias=float_field(payload["bias"], "bias"),
            params=params,
            n_features=n_features,
            converged=converged,
            n_iter=integer_field(solver.get("n_iter", 0), "n_iter"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelIOError):
            raise
        raise ModelIOError(f"{path}: malformed model payload ({exc})") from exc
