"""Error types raised by the library, and the two input rules shared by
every module: integer counts (as_count) and index arrays (as_indices).

All errors subclass ValueError so callers that only care about "bad input"
can catch one base type.
"""

import operator

import numpy as np


class SizeError(ValueError):
    """A register, matrix, or search space exceeds a configured limit."""


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class ConfigError(ValueError):
    """A scenario or experiment configuration is invalid."""


def as_count(value, name: str, low: int) -> int:
    """value as an int; ConfigError unless it is a non-bool integer >= low."""
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1
    if count < low or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


def as_indices(values, n, name: str) -> np.ndarray:
    """values as an int64 array; ValueError unless every entry is an
    integer (not a bool) in [0, n)."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0
                        or values.max() >= n):
        raise ValueError(f"{name} must be integers in [0, {n})")
    return values.astype(np.int64, copy=False)
