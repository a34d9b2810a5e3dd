"""The package's one rule for integer and real arguments.

An integer is a Python ``int``: the only integer JSON can hold, so a seed or
size that passes is one a corpus header or checkpoint can store.  A numpy
integer or a ``bool`` is not one.  A real is any ``numbers.Real`` but a
``bool``, inside the stated interval, so NaN never passes.  A failed check
raises the caller's typed error naming the argument.  The same rule covers
the integer fields of both stored formats: a corpus file's seed, labels and
concept bits, and a checkpoint's shape dimensions.
"""

from __future__ import annotations

import math
import numbers


def integer(value, name: str, error: type[Exception], low: int = 0, high: int | None = None) -> int:
    """``value`` if it is an ``int`` in ``[low, high)``, else ``error``."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value and (high is None or value < high):
        return value
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise error(f"{name} must be an integer {bound}, got {value!r}")


def real(value, name: str, error: type[Exception], low: float, high: float = math.inf,
         low_open: bool = False, high_open: bool = True) -> float:
    """``float(value)`` if it is a real in the interval, else ``error``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low < value if low_open else low <= value) and (value < high if high_open else value <= high)):
        return float(value)
    interval = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
    raise error(f"{name} must be a real number in {interval}, got {value!r}")
