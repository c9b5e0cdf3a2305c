"""Exhaustive grid search scored by k-fold cross-validated MSE.

The search sees only the training slice; folds are drawn from a seeded
shuffle and cut once per search into the arrays every combination shares.
Ties on mean MSE are broken by grid iteration order (axes iterated in
declaration order); every non-finite mean (an error, a NaN score) ranks last.

Combinations share fits by one rule: `fit_key` resets a family's stage
field (gbrt's n_estimators, svr's C), and each fold makes one
`stage_predictions` call per fit key with its members' params. gbrt grows
the most trees a member asks for and reads every member's stage in one
compiled walk; svr builds the training Gram matrix once and runs each
distinct C cold on it. Each prediction is bit for bit that of the member's
own fit.

A fit key's scores are one C-ordered (members x folds) array reduced along
its rows. A C-contiguous row sums as a 1-D array does, so each fold MSE and
mean keeps the bits of `np.mean` over the member's own values; a (folds x
members) layout would sum in another order.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

from . import gbrt, svr
from .data import FEATURE_COLUMNS, Dataset, Scaler
from .modelio import field_types


@dataclass(frozen=True)
class ModelFamily:
    """A model family: the module whose fit / stage_predictions / save_model /
    load_model serve it, its params class and its shipped default search space."""

    module: ModuleType
    params: type
    default_axes: dict


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

@dataclass(frozen=True)
class TargetSlice:
    """Normalized feature matrix (columns in FEATURE_COLUMNS order) plus one
    target vector for a set of mixtures; `target_slice` builds one."""

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
    """Fit one model of `family`; the search fits through `stage_predictions`."""
    return _family(family).module.fit(X, y, params, feature_names=feature_names)


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
    ranked last, as is one whose mean is NaN; the search continues.
    Everything runs in normalized space; results keep grid iteration order.
    Combinations that share a fit key share their fits (module docstring).
    """
    folds = kfold_indices(train.y.shape[0], k, seed)
    cuts = [
        (np.delete(train.X, f, 0), np.delete(train.y, f), train.X[f], train.y[f]) for f in folds
    ]
    results = [CvResult(combination=dict(c)) for c in grid.combinations()]
    groups: dict[str, list] = {}
    for result in results:
        try:
            params = make_params(grid.family, result.combination, seed=seed)
            key = params.fit_key()
        except Exception as exc:  # noqa: BLE001 - search must survive bad combos
            _record_error(result, exc)
            continue
        # repr tells 1 from 1.0 and 0.0 from -0.0, so shared fits are exact.
        groups.setdefault(repr(key), []).append((result, params))
    for members in groups.values():
        _score_group(grid.family, cuts, members)

    order = sorted(range(len(results)), key=lambda i: _rank_key(results[i].mean_mse, i))
    for rank, idx in enumerate(order, start=1):
        results[idx].rank = rank
    best = results[order[0]]
    if best.error is not None:
        raise RuntimeError(f"every grid combination failed; first error: {best.error}")
    return dict(best.combination), results


def _rank_key(mean_mse: float, index: int) -> tuple:
    """Sort key of a combination: finite means first, lowest first; every
    non-finite one (an error's inf, a NaN score) after them; ties in grid order."""
    finite = math.isfinite(mean_mse)
    return (not finite, mean_mse if finite else 0.0, index)


def _record_error(result: CvResult, exc: Exception):
    result.error = f"{type(exc).__name__}: {exc}"
    result.mean_mse = float("inf")


def _score_group(family: str, cuts, members):
    """Cross-validate the (result, params) pairs of one fit key on the
    (X_train, y_train, X_hold, y_hold) cuts of the folds, with one
    `stage_predictions` call per fold. An exception in a fold fails them all."""
    params = [member for _, member in members]
    stage_predictions = _family(family).module.stage_predictions
    scores = np.empty((len(members), len(cuts)))
    try:
        for f, (X_train, y_train, X_hold, y_hold) in enumerate(cuts):
            d = stage_predictions(X_train, y_train, params, X_hold) - y_hold
            scores[:, f] = (d * d).mean(axis=1)
    except Exception as exc:  # noqa: BLE001 - search must survive bad combos
        for result, _ in members:
            _record_error(result, exc)
        return
    means = scores.mean(axis=1).tolist()
    for (result, _), fold_scores, mean in zip(members, scores.tolist(), means):
        result.fold_mse = fold_scores
        result.mean_mse = mean


def refit_best(train: TargetSlice, family: str, combination: dict, seed: int = 42):
    """One final fit of the winning combination on the whole training slice."""
    params = make_params(family, combination, seed=seed)
    return fit_model(family, train.X, train.y, params, FEATURE_COLUMNS)


def default_grid(family: str) -> HyperGrid:
    """Shipped search spaces: coarse, but containing the reference optima.

    The originating study quotes axis ranges whose full cross product is
    computationally implausible (~1e13 combinations); these grids keep each
    axis small while including every published optimum as a grid point, so
    refitting the winner can reproduce the published settings exactly.
    """
    return HyperGrid(family=family, axes=dict(_family(family).default_axes))


def _parse_value(family: str, name: str, text: str):
    """`text` as the type that `family`'s params class declares for `name`."""
    types = field_types(_family(family).params)
    if name not in types:
        raise ValueError(f"unknown {family} parameter {name!r}; expected one of {', '.join(types)}")
    return types[name](text.strip())


def read_params_file(path, family: str) -> dict:
    """Parse a key=value parameter file (one pair per line, # comments).

    Each value is parsed as the type `family`'s params class declares.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    combo = {}
    for line_num, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {line_num}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        try:
            combo[key] = _parse_value(family, key, raw)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_num}: {exc}") from exc
    if not combo:
        raise ValueError(f"{path}: no parameters found")
    return combo


def read_grid_file(path) -> dict[str, HyperGrid]:
    """Parse a grid config: one section per family, key = comma-separated values."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep axis names case-sensitive (C vs c)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    grids = {}
    for family in parser.sections():
        if family not in FAMILIES:
            raise ValueError(f"{path}: unknown section [{family}]")
        axes = {}
        for axis, raw in parser.items(family):
            try:
                axes[axis] = tuple(
                    _parse_value(family, axis, item) for item in raw.split(",") if item.strip()
                )
            except ValueError as exc:
                raise ValueError(f"{path}: axis {axis!r}: {exc}") from exc
        grids[family] = HyperGrid(family=family, axes=axes)
    if not grids:
        raise ValueError(f"{path}: no [gbrt] or [svr] section found")
    return grids
