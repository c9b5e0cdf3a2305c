"""Exhaustive grid search scored by k-fold cross-validated MSE.

The search sees only the training slice; folds are drawn once per search
from a seeded shuffle and shared by every combination. Ties on mean MSE are
broken by grid iteration order (axes iterated in declaration order).
Combinations that differ only in a family's staged axis (gbrt's
`n_estimators`) share one fit per fold, and each is scored from the staged
prediction at its own value, which equals the prediction of its own fit.
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

from . import gbrt, svr
from .data import FEATURE_COLUMNS, Dataset, Scaler
from .metrics import mse


@dataclass(frozen=True)
class ModelFamily:
    """A model family: the module whose fit / save_model / load_model serve
    it, its params class, its shipped default search space, and its staged
    axis, if any: the parameter whose value k gives the model that the
    fitted model's `staged_predict` yields at stage k."""

    module: ModuleType
    params: type
    default_axes: dict
    staged_axis: str | None = None


# The one place that maps a family name to its code.
FAMILIES = {
    "gbrt": ModelFamily(
        gbrt,
        gbrt.GbrtParams,
        {
            "n_estimators": (18, 25, 83, 100),
            "max_depth": (5,),
            "eta": (0.28, 0.3, 0.34, 0.95),
            "gamma": (0.001, 0.002, 0.005, 0.01),
            "reg_alpha": (0.02, 0.11, 1.1),
            "reg_lambda": (0.81, 0.92, 1.65, 1.69),
            "subsample": (0.7, 1.0),
            "colsample_bytree": (0.7, 1.0),
        },
        staged_axis="n_estimators",
    ),
    "svr": ModelFamily(
        svr,
        svr.SvrParams,
        {
            "C": (1.0, 3.0, 10.0, 29.0, 39.0, 100.0, 200.0),
            "gamma": (0.001, 0.005, 0.01, 0.02, 0.05, 0.11, 0.117, 0.16687, 0.5, 1.0),
            "epsilon": (0.001, 0.01, 0.05, 0.1, 0.15, 0.2, 0.24, 0.3, 0.5),
            "kernel": ("linear", "polynomial", "rbf", "sigmoid"),
        },
    ),
}

_INT_AXES = {"n_estimators", "max_depth", "degree", "seed", "max_passes"}
_STR_AXES = {"kernel"}


@dataclass(frozen=True)
class TargetSlice:
    """Feature matrix plus one target vector for a set of mixtures."""

    ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray


def target_slice(ds: Dataset, target: str, scaler: Scaler) -> TargetSlice:
    """Normalized (X, y) for `target`, reading only this dataset's records."""
    X = scaler.transform_features(ds)
    y = scaler.transform(target, ds.column(target))
    return TargetSlice(ids=ds.ids, X=X, y=y)


@dataclass(frozen=True)
class HyperGrid:
    """Named axes of candidate values for one model family."""

    family: str
    axes: dict[str, tuple]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}")
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"axis {name!r} is empty")

    @property
    def n_combinations(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out

    def combinations(self):
        """Full parameter assignments, axes iterated in declaration order."""
        names = list(self.axes)
        for values in itertools.product(*self.axes.values()):
            yield dict(zip(names, values))


@dataclass
class CvResult:
    combination: dict
    fold_mse: list[float] = field(default_factory=list)
    mean_mse: float = float("inf")
    rank: int = 0
    error: str | None = None


def _family(name: str) -> ModelFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model family {name!r}") from None


def make_params(family: str, combination: dict, seed: int | None = None):
    """Build a params object for `family` from a grid combination.

    `seed` applies only to params that have one (gbrt's subsampling); a
    seed inside the combination takes precedence.
    """
    params_cls = _family(family).params
    if seed is not None and "seed" in params_cls.__dataclass_fields__:
        combination = {"seed": seed, **combination}
    return params_cls(**combination)


def fit_model(family: str, X, y, params, feature_names=None):
    """Fit one model of `family`: the single entry to every family's fit."""
    return _family(family).module.fit(X, y, params, feature_names=feature_names)


def _feature_names(X):
    return FEATURE_COLUMNS if X.shape[1] == len(FEATURE_COLUMNS) else None


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous folds whose sizes differ by at most 1."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} sample(s)")
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(order[start : start + size]))
        start += size
    return folds


def grid_search(
    train: TargetSlice, grid: HyperGrid, k: int = 5, seed: int = 42
) -> tuple[dict, list[CvResult]]:
    """Score every combination by mean held-out-fold MSE; lowest mean wins.

    A combination whose params or fit raise is recorded with its error and
    ranked last; the search continues. Everything runs in normalized space.
    Combinations whose params differ only in the family's staged axis are
    scored together (`_score_group`); results keep grid iteration order.
    """
    folds = kfold_indices(train.y.shape[0], k, seed)
    axis = _family(grid.family).staged_axis
    results = [CvResult(combination=dict(c)) for c in grid.combinations()]
    groups: dict = {}
    for i, result in enumerate(results):
        try:
            params = make_params(grid.family, result.combination, seed=seed)
        except Exception as exc:  # noqa: BLE001 - search must survive bad combos
            _record_error(result, exc)
            continue
        # Params equal but for an integer staged value share a group; repr
        # tells 1 from 1.0 and 0.0 from -0.0, so shared fits are exact.
        key = i
        if axis is not None and isinstance(getattr(params, axis), int):
            key = tuple((name, repr(v)) for name, v in vars(params).items() if name != axis)
        groups.setdefault(key, []).append((result, params))
    for members in groups.values():
        _score_group(train, grid.family, folds, members)

    order = sorted(range(len(results)), key=lambda i: (results[i].mean_mse, i))
    for rank, idx in enumerate(order, start=1):
        results[idx].rank = rank
    best = results[order[0]]
    if best.error is not None:
        raise RuntimeError(f"every grid combination failed; first error: {best.error}")
    return dict(best.combination), results


def _record_error(result: CvResult, exc: Exception):
    result.error = f"{type(exc).__name__}: {exc}"
    result.mean_mse = float("inf")


def _score_group(train: TargetSlice, family: str, folds, members):
    """Cross-validate (result, params) pairs that differ only in the staged axis.

    Each fold makes one fit, with the members' largest value k of the axis,
    and scores each member from `staged_predict` at its own value. Stage k of
    that fit is the prediction of a fit with value k, bit for bit, so every
    score equals that of a separate fit. A family without a staged axis has
    one member per group, scored by `predict`. An exception in a fold fails
    every member of the group.
    """
    axis = _family(family).staged_axis
    stages = [getattr(params, axis) if axis else 0 for _, params in members]
    params = members[stages.index(max(stages))][1]
    n = train.y.shape[0]
    names = _feature_names(train.X)
    scores: list[list[float]] = [[] for _ in members]
    try:
        for fold in folds:
            holdout = np.zeros(n, dtype=bool)
            holdout[fold] = True
            model = fit_model(family, train.X[~holdout], train.y[~holdout], params, names)
            X_hold, y_hold = train.X[holdout], train.y[holdout]
            predictions = model.staged_predict(X_hold) if axis else [model.predict(X_hold)]
            for stage, prediction in enumerate(predictions):
                for member, member_stage in enumerate(stages):
                    if member_stage == stage:
                        scores[member].append(mse(y_hold, prediction))
    except Exception as exc:  # noqa: BLE001 - search must survive bad combos
        for result, _ in members:
            _record_error(result, exc)
        return
    for (result, _), fold_scores in zip(members, scores):
        result.fold_mse = fold_scores
        result.mean_mse = float(np.mean(fold_scores))


def refit_best(train: TargetSlice, family: str, combination: dict, seed: int = 42):
    """One final fit of the winning combination on the whole training slice."""
    params = make_params(family, combination, seed=seed)
    return fit_model(family, train.X, train.y, params, _feature_names(train.X))


def default_grid(family: str) -> HyperGrid:
    """Shipped search spaces: coarse, but containing the reference optima.

    The originating study quotes axis ranges whose full cross product is
    computationally implausible (~1e13 combinations); these grids keep each
    axis small while including every published optimum as a grid point, so
    refitting the winner can reproduce the published settings exactly.
    """
    return HyperGrid(family=family, axes=dict(_family(family).default_axes))


def _parse_axis_value(axis: str, text: str):
    text = text.strip()
    if axis in _STR_AXES:
        return text
    if axis in _INT_AXES:
        return int(text)
    return float(text)


def read_params_file(path) -> dict:
    """Parse a key=value parameter file (one pair per line, # comments)."""
    combo = {}
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {line_num}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            try:
                combo[key] = _parse_axis_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_num}: {exc}") from exc
    if not combo:
        raise ValueError(f"{path}: no parameters found")
    return combo


def read_grid_file(path) -> dict[str, HyperGrid]:
    """Parse a grid config: one section per family, key = comma-separated values."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep axis names case-sensitive (C vs c)
    read = parser.read(path)
    if not read:
        raise OSError(f"cannot read grid file {path}")
    grids = {}
    for family in parser.sections():
        if family not in FAMILIES:
            raise ValueError(f"{path}: unknown section [{family}]")
        axes = {}
        for axis, raw in parser.items(family):
            try:
                axes[axis] = tuple(
                    _parse_axis_value(axis, item) for item in raw.split(",") if item.strip()
                )
            except ValueError as exc:
                raise ValueError(f"{path}: axis {axis!r}: {exc}") from exc
        grids[family] = HyperGrid(family=family, axes=axes)
    if not grids:
        raise ValueError(f"{path}: no [gbrt] or [svr] section found")
    return grids
