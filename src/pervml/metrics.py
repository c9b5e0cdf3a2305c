"""Regression evaluation measures, computed in the caller's (physical) units.

Cross validation scores its folds itself, in arrays (`tuning`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAPE_GUARD = 1e-12


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined for constant or too-short vectors."""


def _pair(y, y_hat):
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty vectors")
    return y, y_hat


def pearson(x, y) -> float:
    """Signed product-moment correlation in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise UndefinedCorrelationError("need at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx * dx).mean() * (dy * dy).mean())
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant vector")
    r = (dx * dy).mean() / denom
    return float(np.clip(r, -1.0, 1.0))


def r_squared(y, y_hat) -> float:
    """Squared Pearson correlation between observed and estimated values.

    This is the square of the correlation coefficient, not 1 - SSres/SStot;
    the two differ for biased predictors.
    """
    y, y_hat = _pair(y, y_hat)
    r = pearson(y_hat, y)
    return min(r * r, 1.0)


def rmse(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    d = y - y_hat
    return float(np.sqrt((d * d).mean()))


def mae(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    return float(np.abs(y - y_hat).mean())


def mape(y, y_hat) -> float:
    """Mean absolute percentage error as a fraction (not scaled by 100).

    Denominators smaller than MAPE_GUARD are replaced by it, keeping the
    result finite when an observed value is zero.
    """
    y, y_hat = _pair(y, y_hat)
    denom = np.maximum(np.abs(y), MAPE_GUARD)
    return float((np.abs(y - y_hat) / denom).mean())


@dataclass(frozen=True)
class EvalReport:
    """The four headline measures for one model on one data split.

    r2 is None when the correlation is undefined (constant predictions);
    the other measures are still reported.
    """

    r2: float | None
    rmse: float
    mae: float
    mape: float
    n: int


def evaluate_all(y, y_hat) -> EvalReport:
    y, y_hat = _pair(y, y_hat)
    try:
        r2 = r_squared(y, y_hat)
    except UndefinedCorrelationError:
        r2 = None
    return EvalReport(
        r2=r2,
        rmse=rmse(y, y_hat),
        mae=mae(y, y_hat),
        mape=mape(y, y_hat),
        n=int(y.size),
    )
