"""Exception types mapped to CLI exit codes, and the shared input checks."""

import json
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment or solver configuration (exit code 1)."""


class DataError(ValueError):
    """Malformed or inconsistent input data (exit code 2)."""


class NumericError(RuntimeError):
    """Numerical failure during optimization or decomposition (exit code 3)."""


def require_finite(array, what: str) -> None:
    """Raise DataError when ``array`` holds NaN or infinite entries."""
    if not np.all(np.isfinite(array)):
        raise DataError(f"{what} contain NaN or infinite values")


def load_json(path, error: type[ValueError], what: str) -> dict:
    """The JSON object in the file ``path``; raises ``error`` naming ``what`` when there is none."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep nesting
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def is_number(value) -> bool:
    """A ``Real`` (numpy numbers too) that is not a bool and that a float64
    can hold: an int too large to convert to float is not a number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def is_int(value, low: int) -> bool:
    """An ``Integral`` (numpy integers too, of any size) that is not a bool and is >= ``low``."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def require_int(value, name: str, low: int) -> None:
    if not is_int(value, low):
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
