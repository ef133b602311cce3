"""Fitness floor: the thresholded objective and its update schedule.

The floor replaces every fitness below the current threshold T with T itself,
removing local maxima from the searchable landscape while leaving everything
above T untouched. T = -inf is no floor at all: the first pass searches the
raw landscape under it. The shipped schedule is the paper's linear ramp over
the observed fitness range; a run takes any object that computes the
threshold for the next pass with ``next_threshold(k, num_passes, state,
pass_best)`` (see driver.DtoConfig).
"""

from __future__ import annotations

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

    def next_threshold(self, k: int, num_passes: int, state: ThresholdState,
                       pass_best: float) -> float:
        """Threshold after completed pass k of P = num_passes:
        F_min + (c_th * k / P) * (F* - F_min).

        The returned value governs pass k + 1. Requires at least one completed
        pass so that f_star and f_min hold real, finite fitnesses. P must be
        an integer >= 1 and k an integer in [1, P], which keeps the threshold
        within c_th of the range above F_min; anything else raises ValueError
        naming the argument. When the range F* - F_min overflows (it exceeds
        about 1.8e308), the threshold is the convex combination
        F_min * (1 - c) + F* * c instead, which stays inside [F_min, F*].
        """
        _check_count("num_passes", num_passes, 1)
        if not (_is_integer(k) and 1 <= k <= num_passes):
            raise ValueError(f"pass index k must be an integer in [1, num_passes = {num_passes}], "
                             f"got {k!r}")
        if not (np.isfinite(state.f_star) and np.isfinite(state.f_min)):
            raise RuntimeError("threshold update before any completed pass")
        fraction = self.c_th * k / num_passes
        span = float(state.f_star) - float(state.f_min)  # Python floats overflow silently
        if np.isfinite(span):
            return state.f_min + fraction * span
        return state.f_min * (1.0 - fraction) + state.f_star * fraction


@dataclass
class ThresholdState:
    """Mutable floor state, made by each run: run_dto raises it every pass.

    The threshold starts at -inf, which floors nothing, so the first pass sees
    the raw landscape. ``f_star`` and ``f_min`` track the best and worst
    fitness observed over all passes so far, from -inf and +inf.
    """

    t_current: float = -np.inf
    f_star: float = -np.inf
    f_min: float = np.inf

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


def _check_floor(t) -> None:
    """Raise ValueError naming the threshold unless t is a number below +inf
    (-inf for no floor). numpy floors at an integer as at the float nearest
    to it, so an integer beyond the float range is no threshold either."""
    if not _is_number(t):
        raise ValueError(f"threshold must be a number, got {t!r}")
    try:
        value = float(t)
    except OverflowError:
        raise ValueError("threshold must not be NaN or +inf (-inf is no floor), got a "
                         "number beyond the float range") from None
    if np.isnan(value) or value == np.inf:
        raise ValueError(f"threshold must not be NaN or +inf (-inf is no floor), got {t}")
