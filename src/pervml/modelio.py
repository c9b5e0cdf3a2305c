"""Model files (JSON text, exact float round-trip), typed file fields and
model inputs: each parameter's type is declared once, on its params class,
and read by `field_types`; `typed` checks every model-file value,
`check_fields` every params object and `check_inputs` every model's X and y."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing

import numpy as np

FORMAT_VERSION = 1


class ModelIOError(ValueError):
    """A model file is unreadable, malformed, or of an unsupported version."""


def write_model(path, payload: dict):
    payload = {"format_version": FORMAT_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite(parse):
    """A JSON number hook that refuses NaN, +-Infinity and values beyond float range."""

    def checked(text: str):
        value = parse(text)
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"number {text} is not a finite float")
        return value

    return checked


_NUMBER_HOOKS = {
    "parse_constant": _finite(float),  # NaN, Infinity, -Infinity
    "parse_float": _finite(float),
    "parse_int": _finite(int),
}


_KINDS = {  # kind: (JSON types it accepts, what a value of it must be)
    int: ((int, float), "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}
_LIST_OF = {float: "numbers", str: "strings"}


def typed(value, kind, name: str):
    """`value` checked as `kind` (a key of `_KINDS` or a list of one) and
    converted to it. A bool is only ever a bool, and an int may be written as
    an integral float. A mismatch raises ModelIOError naming the field."""
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        if not isinstance(value, list):
            raise ModelIOError(f"{name} must be a list of {_LIST_OF[item]}, got {value!r}")
        return [typed(entry, item, f"{name} entry") for entry in value]
    accepted, description = _KINDS[kind]
    if (
        not isinstance(value, accepted)
        or isinstance(value, bool) is not (kind is bool)
        or (kind is int and not float(value).is_integer())
    ):
        raise ModelIOError(f"{name} must be {description}, got {value!r}")
    return kind(value)


@functools.cache  # every params object is checked against it
def field_types(params_cls) -> types.MappingProxyType:
    """Each field of a params dataclass and its declared type, in field order."""
    hints = typing.get_type_hints(params_cls)
    return types.MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(params_cls)})


def check_fields(params):
    """Raise ValueError if a field of a params dataclass declared int holds
    anything but an int, or if a float field is NaN or +-inf."""
    for name, kind in field_types(type(params)).items():
        value = getattr(params, name)
        if kind is int and type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_inputs(X, y, n_features):
    """X and y as float arrays, checked alike for every model family. X is 2-D
    and finite; at fit time (n_features None) it has rows and y has one finite
    value per row, at predict time (y None) it has n_features columns."""
    X = np.asarray(X, dtype=float)
    if y is None:
        if X.ndim != 2 or X.shape[1] != n_features:
            raise ValueError(f"expected {n_features} feature column(s), got shape {X.shape}")
    else:
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("need at least one sample")
        if y.shape != (X.shape[0],):
            raise ValueError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if y is not None and not np.isfinite(y).all():
        raise ValueError("target must be finite")
    return X, y


def read_model(path, expected_type: str, build):
    """Parse a model file (NaN, Infinity and overflowing numbers rejected) and
    return `build(payload)`; the KeyError, TypeError or ValueError of a
    malformed payload becomes a ModelIOError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, **_NUMBER_HOOKS)
    except OSError as exc:
        raise ModelIOError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:
        raise ModelIOError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelIOError(f"corrupt model file {path}: expected an object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelIOError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    model_type = payload.get("model_type")
    if model_type != expected_type:
        raise ModelIOError(
            f"{path}: model_type {model_type!r}, expected {expected_type!r}"
        )
    try:
        return build(payload)
    except ModelIOError as exc:
        raise ModelIOError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"{path}: malformed model payload ({exc})") from exc
