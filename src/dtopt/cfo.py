"""Simplified parameter-free central force optimization.

Probes accelerate under a gravity-like pull toward higher-fitness probes.
The full position/fitness history of a run is kept because the best/worst
scans range over every time step, not just the last one; accelerations are
only ever needed one step back, so just the latest (N, D) array is kept. A
search is strictly sequential. It starts either from a probe line at one
diagonal fraction gamma, with no randomness at all, or from uniform random
positions drawn from a generator the caller passes in.

The update cycle per time step: move probes ballistically from the previous
step's accelerations, pull coordinates that left the domain back inside
(scaled by that step's retrieval factor), evaluate the floored fitness, then
compute accelerations from the new fitness field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import DecisionSpace, _check_bool, _check_count, _is_number, _one_value_per_point
from .threshold import ThresholdState, _check_floor, apply_threshold, on_floor

__all__ = [
    "DEFAULT_GAMMA_SWEEP",
    "ProbeLine",
    "RandomUniform",
    "CfoParams",
    "SwarmHistory",
    "OptResult",
    "step_positions",
    "retrieve_errant",
    "compute_accelerations",
    "scan_best",
    "scan_worst",
    "run_cfo",
]

_MAX_REPOSITION_TRIES = 10_000
_TILE_ROWS = 64  # probes per row tile of the acceleration kernel
_GRAM_MIN_DIMS = 8  # from here on the kernel takes squared distances in Gram form
_NEAR = 1e-4  # a Gram-form pair is summed again unless d2 > _NEAR * (|r|^2 + |c|^2)

# Parameter-free CFO fixes G = 2, dt = 1 and alpha = beta = 2 (the kernel
# squares the fitness gap and divides by the squared distance; a move adds
# 0.5 * A). Step j retrieves with _FREP[(j - 1) % 20]: the factor starts at
# 0.5 and rises by 0.05 per step, wrapping from 1.0 to 0.05.
_G_CONST = 2.0
_FREP = tuple(k / 20 for k in (*range(10, 21), *range(1, 10)))

DEFAULT_GAMMA_SWEEP = tuple(i / 10 for i in range(11))


@dataclass
class ProbeLine:
    """Deterministic starts: one search per gamma in ``gammas``.

    Every probe starts at the diagonal point lower + gamma * (upper - lower).
    With per_axis = n_probes // n_dims slots per axis, probe ``s + per_axis * a``
    then has coordinate ``a`` spread evenly from lower[a] to upper[a], clamped
    at upper[a] (lower + 15 * step rounds past it on [-500, 500]). With fewer
    than two slots per axis there is no spread: every probe stays on the
    diagonal point.
    """

    gammas: tuple[float, ...] = DEFAULT_GAMMA_SWEEP

    def __post_init__(self):
        if not (isinstance(self.gammas, tuple)
                and all(map(_is_number, self.gammas))):
            raise ValueError(f"gammas must be a tuple of numbers, got {self.gammas!r}")
        if not self.gammas:
            raise ValueError("gammas must be non-empty")
        if any(not 0.0 <= g <= 1.0 for g in self.gammas):
            raise ValueError("every gamma must lie in [0, 1]")


@dataclass
class RandomUniform:
    """Stochastic start: every coordinate drawn uniformly over its bounds,
    from one generator seeded with ``seed`` for the whole run."""

    seed: int

    def __post_init__(self):
        _check_count("seed", self.seed, 0)


@dataclass
class CfoParams:
    n_probes: int
    n_steps: int
    floor_repositioning: bool = False

    def __post_init__(self):
        _check_count("n_probes", self.n_probes, 1)
        _check_count("n_steps", self.n_steps, 0)
        _check_bool("floor_repositioning", self.floor_repositioning)


@dataclass
class SwarmHistory:
    """Run history: positions are a (probe, dim, step) array, fitness is
    (probe, step), steps 0..n_steps inclusive."""

    positions: np.ndarray
    fitness: np.ndarray

    @classmethod
    def allocate(cls, n_probes: int, n_dims: int, n_steps: int) -> "SwarmHistory":
        return cls(
            positions=np.zeros((n_probes, n_dims, n_steps + 1)),
            fitness=np.zeros((n_probes, n_steps + 1)),
        )

    @property
    def n_probes(self) -> int:
        return self.positions.shape[0]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[2] - 1


@dataclass
class OptResult:
    best_coords: np.ndarray
    best_value: float
    worst_value: float
    best_probe: int
    best_step: int
    evals_used: int


def step_positions(history: SwarmHistory, j: int, accels: np.ndarray) -> None:
    """Ballistic move with dt = 1: R_j = R_{j-1} + 0.5 * A_{j-1}, where
    ``accels`` is the (probe, dim) array A_{j-1} of the previous step."""
    history.positions[:, :, j] = history.positions[:, :, j - 1] + 0.5 * accels


def retrieve_errant(history: SwarmHistory, j: int, frep: float, space: DecisionSpace) -> None:
    """Pull out-of-bounds coordinates back inside the domain.

    A coordinate below its lower bound moves to lower + frep * (prev - lower),
    one above its upper bound to upper - frep * (upper - prev), where prev is
    the previous step's (in-bounds) position. With frep in (0, 1] the result
    is always inside the bounds.
    """
    pos = history.positions[:, :, j]
    prev = history.positions[:, :, j - 1]
    below = pos < space.lower
    if below.any():
        pos[below] = (space.lower + frep * (prev - space.lower))[below]
    above = pos > space.upper
    if above.any():
        pos[above] = (space.upper - frep * (space.upper - prev))[above]


def compute_accelerations(history: SwarmHistory, j: int, params: CfoParams) -> np.ndarray:
    """Gravity-style (probe, dim) accelerations from the step-j fitness field.

    Probe p feels, from each other probe k, a pull along (R_k - R_p) weighted
    by 2 * max(M_k - M_p, 0)^2 / distance^2; only better-fitness probes
    attract. Pairs at zero distance contribute nothing, which keeps
    coincident probes finite and motionless. ``params`` sets nothing here.

    The probes are visited in ascending fitness order (a stable sort), in
    tiles of ``_TILE_ROWS`` rows. A tile only meets the columns whose fitness
    lies strictly above its lowest row's; every other column has zero
    weight. Once no column lies above a tile, no later tile has one either,
    so the walk stops there. A floor plateau of equal fitness thus costs one
    short slab.

    The dimension alone picks how a tile's squared distances are built.
    Below ``_GRAM_MIN_DIMS`` they are summed axis by axis. From there on they
    take the Gram form |r|^2 + |c|^2 - 2 r.c, one matmul per tile, on
    positions centred on the swarm mean, and every pair whose Gram value
    cannot be trusted (near, or overflowed) is summed again exactly (see
    _gram_d2). Every buffer, the chunked recompute included, is
    O(_TILE_ROWS * N), never N x N. The sums run in sorted order, so the
    results match a dense N x N evaluation to the last few ULPs, not bit for
    bit.
    """
    order = np.argsort(history.fitness[:, j], kind="stable")
    fit = history.fitness[order, j]
    pos = history.positions[order, :, j]
    n_probes, n_dims = pos.shape
    accels = np.zeros_like(pos)  # in the history's probe order
    gram = n_dims >= _GRAM_MIN_DIMS
    if gram and fit[0] < fit[-1]:  # some pair has weight, so some tile needs distances
        with np.errstate(over="ignore", invalid="ignore"):
            cen = pos - pos.mean(axis=0)
            sq = np.einsum("ij,ij->i", cen, cen)
    for r0 in range(0, n_probes, _TILE_ROWS):
        k0 = int(np.searchsorted(fit, fit[r0], side="right"))
        if k0 == n_probes:
            break
        r1 = min(r0 + _TILE_ROWS, n_probes)
        rows, cols = pos[r0:r1], pos[k0:]
        buf = np.empty((r1 - r0, n_probes - k0))
        if gram:
            d2 = _gram_d2(rows, cols, cen[r0:r1], cen[k0:], sq[r0:r1], sq[k0:], buf)
        else:
            d2 = _axis_d2(rows, cols, buf)
        np.subtract(fit[None, k0:], fit[r0:r1, None], out=buf)  # buf[p, k] = M_k - M_p
        np.maximum(buf, 0.0, out=buf)
        np.multiply(buf, buf, out=buf)
        zero_pairs = d2 == 0.0
        if zero_pairs.any():
            d2[zero_pairs] = 1.0
            buf[zero_pairs] = 0.0
        np.divide(buf, d2, out=buf)
        buf *= _G_CONST
        accels[order[r0:r1]] = buf @ cols - buf.sum(axis=1, keepdims=True) * rows
    return accels


def _axis_d2(rows, cols, buf):
    """Squared distances (row, col) summed axis by axis, using ``buf`` as scratch."""
    d2 = np.zeros_like(buf)
    for axis in range(rows.shape[1]):
        np.subtract(cols[None, :, axis], rows[:, None, axis], out=buf)
        np.multiply(buf, buf, out=buf)
        d2 += buf
    return d2


def _gram_d2(rows, cols, cen_rows, cen_cols, sq_rows, sq_cols, buf):
    """Squared distances (row, col) in Gram form, untrustworthy pairs summed exactly.

    d2 = sq_r + sq_c - 2 cen_r.cen_c from centred positions. Unless
    d2 > _NEAR * (sq_r + sq_c), a pair has lost too many bits to cancellation
    (this covers negative d2 and coincident probes), or its Gram terms
    overflowed to +-inf or NaN. Each such pair is summed again exactly over
    the axes of ``cols - rows``, which gives 0 for coincident probes, in
    chunks of ``buf.size // D`` pairs, so no buffer outgrows ``buf``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = cen_rows @ cen_cols.T
        d2 *= -2.0
        np.add(sq_rows[:, None], sq_cols, out=buf)
        d2 += buf
    buf *= _NEAR
    ri, ci = np.nonzero(~(d2 > buf))
    chunk = max(1, buf.size // rows.shape[1])
    for i in range(0, ri.size, chunk):
        r, c = ri[i:i + chunk], ci[i:i + chunk]
        diff = cols[c]
        diff -= rows[r]
        d2[r, c] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _scan(history: SwarmHistory, up_to_step: int, arg_extreme) -> tuple[float, int, int]:
    window = history.fitness[:, : up_to_step + 1]
    flat = window.T.ravel()
    idx = flat.size - 1 - int(arg_extreme(flat[::-1]))
    step, probe = divmod(idx, window.shape[0])
    return float(flat[idx]), probe, step


def scan_best(history: SwarmHistory, up_to_step: int) -> tuple[float, int, int]:
    """Best fitness over steps 0..up_to_step, all probes; later ties win.

    The scan order is step-major (all probes of step 0, then step 1, ...),
    matching the >= update rule, so an equal value seen later in that order
    takes the indices. Returns (value, probe, step).
    """
    return _scan(history, up_to_step, np.argmax)


def scan_worst(history: SwarmHistory, up_to_step: int) -> tuple[float, int, int]:
    """Worst fitness over steps 0..up_to_step; later ties win (<= update rule)."""
    return _scan(history, up_to_step, np.argmin)


def _fitness(objective, points, threshold, step):
    """Evaluate a batch of points and floor it at the threshold.

    Non-finite points raise ValueError before the objective sees them: the
    acceleration step overflowed, and the error says so. It divides a pair's
    squared fitness gap by its squared distance, so a gap above about
    1.3e154 overflows, and so does a modest gap between probes a tiny
    distance apart. A result that is not one value per point, or holds a NaN
    or +-inf, raises ValueError naming the step; no threshold can be set
    from it. Both checks precede the floor, which would broadcast a wrong
    shape and hide a -inf.
    """
    if not np.isfinite(points).all():
        lost = np.count_nonzero(~np.isfinite(points).all(axis=-1))
        raise ValueError(f"step {step}: {lost} of {len(points)} probe positions became "
                         "non-finite (NaN or +-inf) because the acceleration step "
                         "overflowed: a squared fitness gap over a squared distance "
                         "exceeded the float range (a huge fitness gap, or probes "
                         "extremely close together)")
    raw = objective.evaluate_batch(points)
    try:
        raw = _one_value_per_point(raw, len(points))
    except ValueError as exc:
        raise ValueError(f"step {step}: {exc}") from exc
    if not np.isfinite(raw).all():
        bad = np.count_nonzero(~np.isfinite(raw))
        raise ValueError(f"step {step}: the objective returned {bad} non-finite "
                         f"value(s) (NaN or +-inf) in a batch of {raw.size}")
    return apply_threshold(raw, threshold)


def _evaluate_step(history, j, objective, threshold, params, rng):
    """Evaluate step j's batch and floor it at the threshold.

    With floor repositioning on, each probe on the floor
    (``threshold.on_floor``), in probe order, is then redrawn uniformly from
    ``rng`` and re-evaluated alone, one counted call per redraw, until it
    clears the floor; after _MAX_REPOSITION_TRIES redraws the last one
    stands. Nothing is on the -inf floor of a first pass.
    """
    positions, fitness = history.positions[:, :, j], history.fitness[:, j]
    fitness[:] = _fitness(objective, positions, threshold, j)
    if not params.floor_repositioning:
        return
    space = objective.space
    for p in range(history.n_probes):
        for _ in range(_MAX_REPOSITION_TRIES):
            if not on_floor(fitness[p], threshold.t_current):
                break
            positions[p] = rng.uniform(space.lower, space.upper)
            fitness[p] = _fitness(objective, positions[None, p], threshold, j)[0]


def run_cfo(
    params: CfoParams,
    objective,
    start: float | np.random.Generator,
    threshold: ThresholdState = ThresholdState(),
) -> tuple[OptResult, SwarmHistory]:
    """Run one CFO search over the objective's decision space.

    ``objective`` needs ``space``, ``evaluate_batch`` and ``eval_count``
    (see ObjectiveSpec). ``start`` is either a gamma in [0, 1], for a
    bit-reproducible probe-line start at that diagonal fraction, or the
    generator that draws a random start (one uniform draw per coordinate,
    probe-major) and every floor redraw (callers running several searches
    off one stream pass the same generator). A
    probe-line search that repositions floor probes redraws from its own
    ``default_rng(0)``. The optimizer only ever sees the fitness floored at
    ``threshold``, which it only reads; the default -inf floors nothing, and
    a NaN or +inf threshold raises ValueError.
    """
    _check_floor(threshold.t_current)
    space = objective.space
    history = SwarmHistory.allocate(params.n_probes, space.n_dims, params.n_steps)
    evals_before = objective.eval_count

    if isinstance(start, np.random.Generator):
        rng = start
        history.positions[:, :, 0] = rng.uniform(space.lower, space.upper,
                                                 size=(params.n_probes, space.n_dims))
    else:
        if not (_is_number(start) and 0.0 <= start <= 1.0):
            raise ValueError(f"gamma must be a number in [0, 1], got {start!r}")
        rng = np.random.default_rng(0) if params.floor_repositioning else None
        positions = history.positions[:, :, 0]
        positions[:] = space.lower + start * (space.upper - space.lower)
        per_axis = params.n_probes // space.n_dims
        if per_axis >= 2:  # the layout ProbeLine describes
            axes, slots = np.arange(space.n_dims), np.arange(per_axis)[:, None]
            step = (space.upper - space.lower) / (per_axis - 1)
            positions[slots + per_axis * axes, axes] = np.minimum(space.lower + slots * step,
                                                                  space.upper)
    _evaluate_step(history, 0, objective, threshold, params, rng)
    accels = np.zeros((params.n_probes, space.n_dims))  # step 0 does not accelerate

    for j in range(1, params.n_steps + 1):
        step_positions(history, j, accels)
        retrieve_errant(history, j, _FREP[(j - 1) % len(_FREP)], space)
        _evaluate_step(history, j, objective, threshold, params, rng)
        accels = compute_accelerations(history, j, params)

    best_value, best_probe, best_step = scan_best(history, params.n_steps)
    worst_value, _, _ = scan_worst(history, params.n_steps)
    result = OptResult(
        best_coords=history.positions[best_probe, :, best_step].copy(),
        best_value=best_value,
        worst_value=worst_value,
        best_probe=best_probe,
        best_step=best_step,
        evals_used=objective.eval_count - evals_before,
    )
    return result, history
