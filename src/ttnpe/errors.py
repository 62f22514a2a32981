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
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def is_number(value) -> bool:
    """A ``Real`` (numpy numbers too) that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_int(value, low: int) -> bool:
    """An ``Integral`` (numpy integers too) that is not a bool and is >= ``low``."""
    return is_number(value) and isinstance(value, Integral) and value >= low


def require_int(value, name: str, low: int) -> None:
    if not is_int(value, low):
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
