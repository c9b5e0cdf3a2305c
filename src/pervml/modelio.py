"""Reading and writing model files (JSON text, exact float round-trip)."""

from __future__ import annotations

import json
import sys

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


def integer_field(value, name: str) -> int:
    """An integer field of a model file: an int or an integral float, never a bool."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ModelIOError(f"{name} must be an integer, got {value!r}")
    return int(value)


def float_field(value, name: str) -> float:
    """A float field of a model file: an int or a float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelIOError(f"{name} must be a number, got {value!r}")
    return float(value)


def float_list(values, name: str) -> list[float]:
    """A list-of-numbers field of a model file."""
    if not isinstance(values, list):
        raise ModelIOError(f"{name} must be a list of numbers, got {values!r}")
    return [float_field(value, f"{name} entry") for value in values]


def names_field(value, name: str) -> tuple[str, ...]:
    """A list-of-strings field of a model file, as a tuple."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ModelIOError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def read_model(path, expected_type: str) -> dict:
    """Parse a model file; NaN, Infinity and overflowing numbers are rejected."""
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
    return payload
