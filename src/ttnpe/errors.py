"""Exception types mapped to CLI exit codes."""

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
