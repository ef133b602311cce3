"""Fitness floor: the thresholded objective and its update schedule.

The floor replaces every fitness below the current threshold T with T itself,
removing local maxima from the searchable landscape while leaving everything
above T untouched. T = -inf is no floor at all: the first pass searches the
raw landscape under it. The shipped schedule is the paper's linear ramp over
the observed fitness range; a run takes any object that computes the
threshold for the next pass from plain numbers with ``next_threshold(k,
num_passes, f_star, f_min, pass_best)`` (see driver.DtoConfig).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .objectives import _check_count, _check_fraction, _is_integer, _is_number

__all__ = ["LinearRamp", "ThresholdState"]


@dataclass(frozen=True)
class LinearRamp:
    """Threshold rises linearly with completed passes, capped at c_th of the range."""

    c_th: float

    def __post_init__(self):
        _check_fraction("c_th", self.c_th, zero_ok=False)

    def next_threshold(self, k: int, num_passes: int, f_star: float, f_min: float,
                       pass_best: float) -> float:
        """Threshold after completed pass k of P = num_passes, from the best
        and worst fitness F* = f_star and F_min = f_min seen so far:
        F_min + (c_th * k / P) * (F* - F_min).

        The returned value governs pass k + 1. P must be an integer >= 1, k an
        integer in [1, P], which keeps the threshold within c_th of the range
        above F_min, and f_star and f_min finite numbers; anything else raises
        ValueError naming the argument. When the range F* - F_min overflows
        (it exceeds about 1.8e308), the threshold is the convex combination
        F_min * (1 - c) + F* * c instead, which stays inside [F_min, F*].
        """
        _check_count("num_passes", num_passes, 1)
        if not (_is_integer(k) and 1 <= k <= num_passes):
            raise ValueError(f"pass index k must be an integer in [1, num_passes = {num_passes}], "
                             f"got {k!r}")
        for name, value in (("f_star", f_star), ("f_min", f_min)):
            if not (_is_number(value) and abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        fraction = self.c_th * k / num_passes
        span = float(f_star) - float(f_min)  # Python floats overflow silently
        if np.isfinite(span):
            return f_min + fraction * span
        return f_min * (1.0 - fraction) + f_star * fraction


@dataclass(frozen=True)
class ThresholdState:
    """The floor a search runs under, checked once, when it is built (see
    _check_floor). The default -inf floors nothing, so the first pass sees
    the raw landscape; run_dto builds each later pass's from its schedule."""

    t_current: float = -np.inf

    def __post_init__(self):
        _check_floor(self.t_current, "t_current")

    @property
    def enabled(self) -> bool:
        """Whether a real floor has been set: false while T is -inf. dtopt
        itself never reads it; the benchmark's per-layer counters do."""
        return self.t_current > -np.inf


def apply_threshold(f_val, state: ThresholdState):
    """Floor a fitness value (scalar or array) at the threshold T.

    Returns (f - T) * U(f - T) + T, with U the unit step (1 for z >= 0, else
    0), which reduces branch-by-branch to max(f, T); the max form keeps the
    identity exact in floating point. At T = -inf every finite value comes
    back bit for bit, -0.0 included.
    """
    return np.maximum(f_val, state.t_current)


def _check_floor(t, name: str = "threshold") -> None:
    """Raise ValueError naming ``name`` unless t is a number below +inf
    (-inf for no floor). numpy floors at an integer as at the float nearest
    to it, so an integer beyond the float range is no threshold either."""
    if not _is_number(t):
        raise ValueError(f"{name} must be a number, got {t!r}")
    try:
        value = float(t)
    except OverflowError:
        raise ValueError(f"{name} must not be NaN or +inf (-inf is no floor), got a "
                         "number beyond the float range") from None
    if np.isnan(value) or value == np.inf:
        raise ValueError(f"{name} must not be NaN or +inf (-inf is no floor), got {t}")
