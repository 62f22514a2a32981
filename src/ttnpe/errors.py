"""Exception types mapped to CLI exit codes, and the shared input checks."""

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


def is_number(value) -> bool:
    """A ``Real`` (numpy numbers too) that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_int(value, low: int) -> bool:
    """An ``Integral`` (numpy integers too) that is not a bool and is >= ``low``."""
    return is_number(value) and isinstance(value, Integral) and value >= low


def require_int(value, name: str, low: int) -> None:
    if not is_int(value, low):
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
