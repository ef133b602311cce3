"""Objective functions, the benchmark table and decision-space bookkeeping.

``BENCHMARKS`` is the one description of the shipped benchmark set: per
function its batch callable, its domain, its fixed dimension (if any) and its
known optimum. It holds Schwefel problem 2.26 (any dimension), an offset
Rastrigin variant with each per-coordinate term squared (2-D only), the SGO
quartic (2-D only) and ``ramp``, a 1-D diagnostic f(x) = x on [0, 1].

An :class:`ObjectiveSpec` wraps any batch callable, shipped or not, bound to
its decision space, the one door to objective values: every evaluation
checks the batch and its result and bumps its counter by exactly one per
point, so total function-call budgets can be audited in one place.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BENCHMARKS",
    "DecisionSpace",
    "ObjectiveSpec",
    "make_objective",
    "schwefel226",
    "rastrigin_offset",
    "sgo",
    "ramp",
]

RASTRIGIN_OFFSET_MAX = 10.123
RASTRIGIN_OFFSET_ARGMAX = (-1.25, 3.25)


@dataclass(frozen=True, eq=False)
class DecisionSpace:
    """Bounded hyperrectangle the search runs over.

    ``lower`` and ``upper`` are read-only float64 copies of the real bounds
    given, so an edit to the caller's arrays leaves the space as checked.
    Two spaces are equal when their bounds are, value by value, and equal
    spaces hash alike (-0.0 as 0.0). On a cube, every lower bound one value
    and every upper bound another, ``_cube`` holds the two as floats (else
    None): retrieve_errant compares positions against scalars there.
    """

    lower: np.ndarray
    upper: np.ndarray
    _cube: tuple[float, float] | None = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.array(_real_numbers("lower", self.lower), dtype=float)
        upper = np.array(_real_numbers("upper", self.upper), dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size == 0:
            raise ValueError("a decision space needs at least one dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("every bound must be finite (no NaN or +-inf)")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must lie strictly below its upper bound")
        with np.errstate(over="ignore"):
            overflows = np.flatnonzero(~np.isfinite(upper - lower))
        if overflows.size:
            raise ValueError(f"the width upper - lower of axis {overflows[0]} overflows "
                             "to +inf; every width must be finite")
        lower.flags.writeable = upper.flags.writeable = False
        cube = (lower == lower[0]).all() and (upper == upper[0]).all()
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_cube", (float(lower[0]), float(upper[0])) if cube else None)

    def __eq__(self, other):
        if not isinstance(other, DecisionSpace):
            return NotImplemented
        return bool(np.array_equal(self.lower, other.lower)
                    and np.array_equal(self.upper, other.upper))

    def __hash__(self):
        return hash((tuple(self.lower.tolist()), tuple(self.upper.tolist())))

    @property
    def n_dims(self) -> int:
        return self.lower.size

    @property
    def diag_length(self) -> float:
        """Euclidean length of the principal diagonal (normalizes probe spread).

        Where squaring the widths overflows (above about 1.3e154) or
        underflows to a zero sum, the scaled norm ``math.hypot`` gives it.
        """
        widths = self.upper - self.lower
        with np.errstate(over="ignore"):
            length = float(np.sqrt(np.sum(widths ** 2)))
        return length if 0.0 < length < math.inf else math.hypot(*widths)

    @classmethod
    def cube(cls, n_dims: int, lower: float, upper: float) -> "DecisionSpace":
        """[lower, upper]^n_dims; an n_dims that is not an integer from 1 to
        _MAX_VALUES, or a bound that is not a number, raises ValueError naming it."""
        _check_dims(n_dims)
        if not (_is_number(lower) and _is_number(upper)):
            raise ValueError(f"lower and upper must be numbers, got {lower!r} and {upper!r}")
        return cls(np.full(n_dims, float(lower)), np.full(n_dims, float(upper)))


def schwefel226(x):
    """Schwefel problem 2.26 fitness: sum of x_i * sin(sqrt(|x_i|)).

    Accepts a single point (shape ``(n,)``) or a batch (shape ``(m, n)``) and
    reduces over the last axis. Single global maximum of 418.9829 per
    dimension at 420.9687 repeated. Works in one temporary the size of x and
    leaves x unmodified.
    """
    x = _points(x)
    y = np.abs(x)
    np.sqrt(y, out=y)
    np.sin(y, out=y)
    y *= x
    return y.sum(axis=-1)


def rastrigin_offset(x):
    """Offset Rastrigin variant with each per-coordinate term squared.

    Maximum is 10.123 at (-1.25, 3.25). The outer square on each term is
    deliberate and differs from the textbook Rastrigin function; see README.
    """
    y = _points(x, 2) - np.array(RASTRIGIN_OFFSET_ARGMAX)
    terms = (y * y - 10.0 * np.cos(2.0 * np.pi * y) + 10.0) ** 2
    return RASTRIGIN_OFFSET_MAX - terms.sum(axis=-1)


def sgo(x):
    """SGO quartic test function; maximum ~130.8323226 near (-2.8362075, -2.8362075)."""
    x = _points(x, 2)
    t = x**4 - 16.0 * x**2 + 0.5 * x
    return -t.sum(axis=-1)


def ramp(x):
    """1-D diagnostic f(x) = x, as a fresh array; its floor fraction at T is T on [0, 1]."""
    return _points(x, 1)[..., 0].copy()


class _LastBatch:
    """A shipped batch function that answers a batch equal to its previous
    one from that batch's result, without computing it again.

    Equal means the same shape, the same strides (a row sum's rounding
    follows the layout) and the same bytes in every value, -0.0 not 0.0: one
    bytes comparison. A shipped function is pure, so it would return those
    bits again. Any other batch is computed, and copies of its points and its
    result replace the entry; an answer from the entry is a fresh copy, so
    neither edits to an answer nor to the caller's input reach a later one.
    A search's swarm that stops moving passes the same batch step after step,
    as the float64 array that ObjectiveSpec.evaluate_batch checked, which
    judges the dtype of the function's own array, computed or stored.
    """

    def __init__(self, func: Callable[[np.ndarray], np.ndarray]):
        self.func = func
        self._layout = None  # (shape, strides) of the stored batch
        self._points = self._values = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        layout, data = (points.shape, points.strides), points.tobytes()
        if layout == self._layout and data == self._points:
            return self._values.copy()
        values = self.func(points)
        self._layout, self._points, self._values = layout, data, values.copy()
        return values


@dataclass(frozen=True)
class Benchmark:
    """One shipped function on its standard domain [lower, upper]^n.

    ``n_dims`` is the fixed dimension, or None for a function defined in any
    dimension. Such a function is separable: its known maximum is
    ``max_value`` per dimension, at ``argmax`` repeated on every axis.
    """

    func: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    n_dims: int | None
    max_value: float
    argmax: tuple[float, ...]


BENCHMARKS = {
    "schwefel226": Benchmark(schwefel226, -500.0, 500.0, None, 418.9829, (420.9687,)),
    "rastrigin_offset": Benchmark(rastrigin_offset, -5.12, 5.12, 2,
                                  RASTRIGIN_OFFSET_MAX, RASTRIGIN_OFFSET_ARGMAX),
    "sgo": Benchmark(sgo, -50.0, 50.0, 2, 130.8323226, (-2.8362075, -2.8362075)),
    "ramp": Benchmark(ramp, 0.0, 1.0, 1, 1.0, (1.0,)),
}


def _benchmark_dims(name: str, n_dims: int | None = None) -> int:
    """Dimension benchmark ``name`` runs in: its fixed one, else n_dims (default 2).

    An unknown name, an n_dims that is not an integer from 1 to _MAX_VALUES,
    or one that conflicts with a fixed dimension raises ValueError; nothing
    is allocated.
    """
    if not (isinstance(name, str) and name in BENCHMARKS):
        raise ValueError(f"name must be one of {tuple(BENCHMARKS)}, got {name!r}")
    if n_dims is not None:
        _check_dims(n_dims)
    fixed = BENCHMARKS[name].n_dims
    if fixed is None:
        return 2 if n_dims is None else n_dims
    if n_dims not in (None, fixed):
        raise ValueError(f"{name} is fixed at {fixed} dimension(s), got {n_dims}")
    return fixed


# Bools are not numbers: True is no count, seed, gamma or c_th.
def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_number_tuple(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_number, value))


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError naming the field unless value is an integer >= least."""
    if not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# The most float64 values one numpy array can hold: no more axes fit one row
# of bounds, no more positions one search history, and no more objective
# calls one run or floor scan.
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _check_dims(n_dims) -> None:
    """Raise ValueError naming n_dims unless it is an integer from 1 to _MAX_VALUES."""
    _check_count("n_dims", n_dims, 1)
    if n_dims > _MAX_VALUES:
        raise ValueError(f"n_dims must be at most {_MAX_VALUES}, the most float64 values "
                         f"one numpy array holds, got {n_dims!r}")


def _check_history(n_probes: int, n_steps: int, n_dims: int,
                   names: str = "n_probes and n_steps") -> None:
    """Raise ValueError naming ``names`` unless a search history's positions,
    (n_steps + 1) * n_probes * n_dims values, fit one numpy array; counts
    already checked, nothing allocated."""
    if (n_steps + 1) * n_probes * n_dims > _MAX_VALUES:
        raise ValueError(f"{names} give a search history of more positions, (n_steps + 1) "
                         f"* n_probes * n_dims, than the {_MAX_VALUES} float64 values one "
                         "numpy array holds")


def _check_calls(calls: int, names: str) -> None:
    """Raise ValueError naming ``names`` unless ``calls`` objective calls, a
    run's or a floor scan's, are at most _MAX_VALUES: no run of more would
    end, and a Halton index from 2^63 on overflows np.arange's int64."""
    if calls > _MAX_VALUES:
        raise ValueError(f"{names} must give at most {_MAX_VALUES} objective calls")


def _check_fraction(name: str, value, *, zero_ok: bool = True) -> None:
    """Raise ValueError naming the field unless value is in [0, 1], or (0, 1] if not zero_ok."""
    if not (_is_number(value) and (0.0 < value <= 1.0 or (zero_ok and value == 0.0))):
        interval = "[0, 1]" if zero_ok else "(0, 1]"
        raise ValueError(f"{name} must be a number in {interval}, got {value!r}")


def _check_type(name: str, value, *kinds: type) -> None:
    """Raise ValueError naming the field unless value is an instance of one of kinds."""
    if not isinstance(value, kinds):
        nouns = " or a ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be a {nouns}, got {value!r}")


def _real_numbers(name: str, values) -> np.ndarray:
    """values as a numpy array of an integer or float dtype; any other raises
    ValueError naming ``name`` (a float cast takes bools and strings as numbers)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {values.dtype}")
    return values


def _points(x, n_dims: int | None = None) -> np.ndarray:
    """x as float64 points along its last axis, for a shipped function of
    n_dims coordinates (None: any number from 1). Anything but real numbers
    (see _real_numbers) on at least one axis, with that many coordinates,
    raises ValueError naming x."""
    x = _real_numbers("x", x)
    size = x.shape[-1] if x.ndim else 0
    if size == 0 or n_dims not in (None, size):
        raise ValueError(f"x must hold points of {n_dims or 'at least 1'} coordinate(s) "
                         f"along its last axis, got shape {x.shape}")
    return x.astype(float, copy=False)


def _one_value_per_point(values, n_points: int) -> np.ndarray:
    """A batch function's result as a float64 array of shape (n_points,).

    Raises ValueError for a result that is not real numbers (see
    _real_numbers) or of any other shape (a scalar, too few or too many
    values, an (m, 1) column), which numpy would otherwise broadcast.
    """
    values = _real_numbers("func's result", values)
    if values.shape != (n_points,):
        raise ValueError(f"func must return shape ({n_points},) for a batch of {n_points} "
                         f"points, got shape {values.shape}")
    return values.astype(float, copy=False)


@dataclass(eq=False)
class ObjectiveSpec:
    """A batch objective bound to its decision space, with call accounting.

    ``func`` maps an ``(m, n)`` batch to m fitnesses; any such callable
    works, and ``evaluate_batch`` is the one door to its values. Mutable:
    only evaluate_batch moves the read-only ``eval_count``, from 0, by one
    per point, so an instance equals only itself, and report.to_dto_config
    installs its repeated-batch cache as ``func``; ``known_max_value`` is
    None unless make_objective fills it in. One instance must not be shared
    across concurrent runs. A ``func`` that is not callable, or a ``space``
    that is not a DecisionSpace, raises ValueError naming it.
    """

    func: Callable[[np.ndarray], np.ndarray]
    space: DecisionSpace
    known_max_value: float | None = field(default=None, init=False)
    _eval_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        _check_type("func", self.func, Callable)
        _check_type("space", self.space, DecisionSpace)

    @property
    def eval_count(self) -> int:
        """Points evaluated so far, through evaluate_batch alone."""
        return self._eval_count

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Raw fitness of an ``(m, n)`` batch as a float64 array of shape (m,);
        increments the counter by m. A batch of other numbers or of another shape
        raises ValueError before it counts, a result that is not m real numbers
        after func runs."""
        points = _real_numbers("points", points).astype(float, copy=False)
        if points.ndim != 2 or points.shape[1] != self.space.n_dims:
            raise ValueError(f"points must be an (m, {self.space.n_dims}) batch, "
                             f"got shape {points.shape}")
        self._eval_count += len(points)
        return _one_value_per_point(self.func(points), len(points))


def make_objective(name: str, n_dims: int | None = None) -> ObjectiveSpec:
    """ObjectiveSpec for a ``BENCHMARKS`` entry on its standard domain, with
    its ``known_max_value`` filled in.

    ``n_dims`` only matters for an entry without a fixed dimension (default
    2); an unknown name or an n_dims it cannot take raises ValueError.
    """
    n_dims = _benchmark_dims(name, n_dims)
    bench = BENCHMARKS[name]
    objective = ObjectiveSpec(bench.func, DecisionSpace.cube(n_dims, bench.lower, bench.upper))
    objective.known_max_value = bench.max_value * (n_dims if bench.n_dims is None else 1)
    return objective
