"""Numeric helpers shared by the experiment and reporting code."""

from __future__ import annotations

import math
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``0.0`` plus every value, added in order: the float a ``+=``
    loop ends on. From Python 3.12 on ``sum()`` of floats is
    compensated, so an output summed with it would depend on the
    interpreter's minor version."""
    total = 0.0
    for value in values:
        total += value
    return total


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The paper reports geometric-mean speedups throughout the evaluation;
    this is the single implementation every experiment uses.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geomean of an empty sequence is undefined")
    for v in vals:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v!r}")
    return math.exp(left_sum(math.log(v) for v in vals) / len(vals))


def safe_div(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` with an explicit value for a zero
    denominator (used for utilization ratios of empty phases)."""
    if denominator == 0:
        return default
    return numerator / denominator


def human_bytes(n: float) -> str:
    """Format a byte count for reports, e.g. ``1.50 MB``."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n!r}")
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(n)
    for unit in units:
        if value < 1024.0 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
