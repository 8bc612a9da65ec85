"""Argument-validation helpers shared across the library.

These raise ``ValueError``/``TypeError`` with uniform, descriptive messages
so that misuse of the public API fails fast with a clear diagnosis rather
than deep inside an algorithm.
"""

from __future__ import annotations

import numbers
from typing import Any


#: The largest integer a check accepts: every validated count, port,
#: demand, release or capacity is stored in an int64 array.
INT64_MAX = 2**63 - 1


def _check_int(value: Any, name: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > INT64_MAX:
        raise ValueError(f"{name} must fit in int64, got {value}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer in ``[1, INT64_MAX]`` and
    return it as int."""
    return _check_int(value, name, 1)


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer in ``[0, INT64_MAX]`` and
    return it as int."""
    return _check_int(value, name, 0)


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` is a real number in ``[0, 1]``."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in(value: Any, options: tuple, name: str) -> Any:
    """Validate that ``value`` is one of ``options``."""
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value
