"""Error types raised by the library, and the input rules shared by every
module: counts (as_count), run sizes (run_size) and indices (as_indices).

All errors subclass ValueError so callers that only care about "bad input"
can catch one base type.
"""

import operator

import numpy as np

from . import config


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


def run_size(value, name: str, work: int, scores: int = 1, low: int = 1,
             fixed: int = 0) -> tuple:
    """(count, batch) of a run of `value` items of `work` units (see
    config.MAX_WORK) and `scores` scores each.  ConfigError, for callers to
    raise before any draw, unless value passes as_count, is below 2^63
    (numpy's int64) and count·work + fixed is at most config.MAX_WORK.  The
    batch, the items a caller draws and holds at once, is config.MAX_BATCH,
    or fewer so that it holds at most config.BATCH_SCORES scores, and >= 1.
    """
    count = as_count(value, name, low)
    if count >> 63:
        raise ConfigError(f"{name} must be below 2^63, got {value!r}")
    if count * work + fixed > config.MAX_WORK:
        raise ConfigError(f"{name}={count} asks for {count * work + fixed} "
                          f"units of work, above the {config.MAX_WORK} "
                          "amplitude updates of config.MAX_WORK")
    return count, max(1, min(config.MAX_BATCH, config.BATCH_SCORES // scores))


def as_indices(values, n, name: str) -> np.ndarray:
    """values as an int64 array; ValueError unless every entry is an
    integer (not a bool) in [0, n)."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0
                        or values.max() >= n):
        raise ValueError(f"{name} must be integers in [0, {n})")
    return values.astype(np.int64, copy=False)
