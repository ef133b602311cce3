"""Simplified parameter-free central force optimization.

Probes accelerate under a gravity-like pull toward higher-fitness probes.
The full position/fitness history of a search is kept because the best and
worst scans range over every time step; accelerations are needed only one
step back, so only the latest (N, D) array is kept. A search is strictly
sequential. It starts either from a probe line at one diagonal fraction
gamma, with no randomness at all, or from uniform random positions drawn
from a generator the caller passes in.

The update cycle per time step: move probes ballistically from the previous
step's accelerations, pull coordinates that left the domain back inside
(scaled by that step's retrieval factor), evaluate the floored fitness, then
compute accelerations from the new fitness field.

A resting step, one after an all-zero acceleration (step 0 does not
accelerate, and a swarm of one fitness feels no pull), skips the work whose
answer it already has and keeps the full step's bits. It still moves,
evaluates and runs the kernel, so call counts, the objective's batches and
the kernel's inputs stay the same. Every coordinate equals, as a number,
the previous one, and that one lies inside the finite bounds: a retrieved
coordinate does, and so does a start (a probe-line point is clamped at
upper, and a uniform draw low + fl(high - low) * u, with u < 1, never
rounds past high). So retrieval would change nothing and the point check
find nothing. evaluate_batch returns a float64 array of one value per
point, so a result with the bytes of the previous step's checked one takes
the previous fitness row, which is its floor under the search's one
threshold; any other is checked for NaN and +-inf and floored in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import (DecisionSpace, ObjectiveSpec, _check_count, _check_fraction,
                         _check_history, _check_type, _is_number_tuple)
from .threshold import ThresholdState, apply_threshold

# step_positions, retrieve_errant, scan_best, scan_worst, threshold.apply_threshold,
# objectives.Benchmark and report.fmt are internal but keep their names:
# bench/layers.py wraps the first five by name, and cli.py imports fmt.
__all__ = [
    "DEFAULT_GAMMA_SWEEP",
    "ProbeLine",
    "RandomUniform",
    "CfoParams",
    "SwarmHistory",
    "OptResult",
    "compute_accelerations",
    "run_cfo",
]

_TILE_ROWS = 64  # probes per row tile of the acceleration kernel
_BLOCK_VALUES = 2**15  # most values per buffer of a block of whole plateau tiles
_GRAM_MIN_DIMS = 8  # from here on the kernel takes squared distances in Gram form
_NEAR = 1e-4  # a Gram-form pair is summed again unless d2 > _NEAR * (|r|^2 + |c|^2)

# Parameter-free CFO fixes G = 2, dt = 1 and alpha = beta = 2 (the kernel
# squares the fitness gap and divides by the squared distance; a move adds
# 0.5 * A). Step j retrieves with _FREP[(j - 1) % 20]: the factor starts at
# 0.5 and rises by 0.05 per step, wrapping from 1.0 to 0.05.
_G_CONST = 2.0
_FREP = tuple(k / 20 for k in (*range(10, 21), *range(1, 10)))

DEFAULT_GAMMA_SWEEP = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class ProbeLine:
    """Deterministic starts: one search per gamma in ``gammas``.

    Every probe starts at the diagonal point lower + gamma * (upper - lower),
    clamped at upper (near gamma = 1 the sum can round past it). With
    per_axis = n_probes // n_dims slots per axis, probe ``s + per_axis * a``
    then has coordinate ``a`` spread evenly from lower[a] to upper[a], clamped
    at upper[a] (lower + 15 * step rounds past it on [-500, 500]). With fewer
    than two slots per axis there is no spread: every probe stays on the
    diagonal point.
    """

    gammas: tuple[float, ...] = DEFAULT_GAMMA_SWEEP

    def __post_init__(self):
        if not _is_number_tuple(self.gammas):
            raise ValueError(f"gammas must be a tuple of numbers, got {self.gammas!r}")
        if not self.gammas:
            raise ValueError("gammas must be non-empty")
        for i, gamma in enumerate(self.gammas):
            _check_fraction(f"gammas[{i}]", gamma)


@dataclass(frozen=True)
class RandomUniform:
    """Stochastic start: every coordinate drawn uniformly over its bounds,
    from one generator seeded with ``seed`` for the whole run."""

    seed: int

    def __post_init__(self):
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class CfoParams:
    n_probes: int
    n_steps: int

    def __post_init__(self):
        _check_count("n_probes", self.n_probes, 1)
        _check_count("n_steps", self.n_steps, 0)


@dataclass
class SwarmHistory:
    """Run history: positions are a (probe, dim, step) array, fitness is
    (probe, step), steps 0..n_steps inclusive: 8 * N * (D + 1) * (n_steps + 1)
    bytes.

    ``allocate`` stores both step-major, as transposed views of (step, probe,
    dim) and (step, probe) buffers, so one step's ``positions[:, :, j]`` and
    ``fitness[:, j]`` are each one C-contiguous block for the move, the
    retrieval, the objective and the kernel, and the step-major best/worst
    scans ravel without a copy."""

    positions: np.ndarray
    fitness: np.ndarray

    @classmethod
    def allocate(cls, n_probes: int, n_dims: int, n_steps: int) -> "SwarmHistory":
        return cls(
            positions=np.zeros((n_steps + 1, n_probes, n_dims)).transpose(1, 2, 0),
            fitness=np.zeros((n_steps + 1, n_probes)).T,
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
    ``accels`` is the (probe, dim) array A_{j-1} of the previous step.
    Written in place, with no temporary: 0.5 * A + R has the bits of
    R + 0.5 * A, since floating-point addition commutes."""
    new = np.multiply(accels, 0.5, out=history.positions[:, :, j])
    new += history.positions[:, :, j - 1]


def retrieve_errant(history: SwarmHistory, j: int, frep: float, space: DecisionSpace) -> None:
    """Pull out-of-bounds coordinates back inside the domain.

    A coordinate below its lower bound moves to lower + frep * (prev - lower),
    one above its upper bound to upper - frep * (upper - prev), where prev is
    the previous step's position. Each result is clamped at the opposite
    bound, which with frep in (0, 1] only a rounding can cross (frep = 1
    from a previous position on that bound), so every coordinate ends inside
    the bounds. On a cube the bounds are DecisionSpace's two scalars, which
    give the values of a broadcast (D,) row in less time. A side with no
    errant coordinate writes nothing: its masked copy has an all-false mask.
    """
    pos = history.positions[:, :, j]
    prev = history.positions[:, :, j - 1]
    lower, upper = space._cube or (space.lower, space.upper)
    np.copyto(pos, np.minimum(lower + frep * (prev - lower), upper), where=pos < lower)
    np.copyto(pos, np.maximum(upper - frep * (upper - prev), lower), where=pos > upper)


def compute_accelerations(history: SwarmHistory, j: int, params: CfoParams) -> np.ndarray:
    """Gravity-style (probe, dim) accelerations from the step-j fitness field.

    Probe p feels, from each other probe k, a pull along (R_k - R_p) weighted
    by 2 * max(M_k - M_p, 0)^2 / distance^2; only better-fitness probes
    attract. Pairs at zero distance contribute nothing, which keeps
    coincident probes finite and motionless. ``params`` sets nothing here.

    The probes are walked in ascending fitness order (a stable sort), in
    tiles of ``_TILE_ROWS`` rows. A tile meets only the columns whose fitness
    lies strictly above its lowest row's, and the walk stops at the first
    tile with none; a field of one fitness returns zeros right after the
    sort. A tile whose rows share one fitness, as on the floor plateau, takes
    its weights from one gap row. Below ``_GRAM_MIN_DIMS`` such a tile grows
    into a block over the whole tiles after it at the same fitness, as many
    as fit the workspace (below). Blocks start and end on the tile grid, so
    every row keeps its tile's columns, gap row, d^2 and row sum, and a
    block's one reduction matmul gave the bits of one per tile under
    OpenBLAS's SkylakeX, Haswell and Prescott kernels. The Gram form keeps
    single tiles: its dgemm rounds by M.

    Every outer difference c - r, of a coordinate axis or of the fitness, is
    one exact rank-2 matmul (see _difference_operands). Below
    ``_GRAM_MIN_DIMS`` a tile's d^2 sums the axes' squared differences; from
    there on it takes the Gram form on centred positions (see _gram_d2).

    A tile's self pairs get a zero weight through a diagonal view of d^2
    (1 below ``_GRAM_MIN_DIMS``, +inf from there on). Any other coincident
    pair divides by zero under one np.errstate per call, which makes its row
    sum non-finite: only then are the tile's d^2 == 0 pairs zeroed and
    summed again, which gives the bits of masking them first. G = 2 scales
    the sorted-order result once before the scatter back to probe order; a
    power of two commutes with every rounding, barring overflow or
    underflow. No buffer is N x N (see the workspace below).

    A tile reduces as buf @ cols - rowsum * rows on absolute positions,
    which cancels in proportion to |R| over the swarm's spread: against a
    per-pair dense sum on 256 Gaussian probes the error is about 1e-14 of
    the largest acceleration near the origin, but 2.6e-6 at spread 1e-6
    around 420.9687 in 2-D (1.2e-9 at spread 1e-3, the tightest the shipped
    profiles converge to).
    """
    fit = history.fitness[:, j]
    order = np.argsort(fit, kind="stable")
    fit = fit[order]
    n_probes, n_dims = history.positions.shape[:2]
    if fit[0] == fit[-1]:  # no pair has weight
        return np.zeros((n_probes, n_dims))
    pos = history.positions[:, :, j].take(order, axis=0)  # take gathers rows faster than [order]
    gram = n_dims >= _GRAM_MIN_DIMS
    if gram:
        with np.errstate(over="ignore", invalid="ignore"):
            cen = pos - np.add.reduce(pos, axis=0) / n_probes  # the bits of pos.mean(axis=0)
            sq = np.einsum("ij,ij->i", cen, cen)
    # the fitness last; below _GRAM_MIN_DIMS each axis before it
    lhs, rhs = _difference_operands(fit[None] if gram else np.vstack((pos.T, fit)))
    # k0 of each tile on the 64-row grid, on which every tile and block starts
    tile_k0 = np.searchsorted(fit, fit[::_TILE_ROWS], side="right").tolist()
    # The workspace, allocated once per call: two flat buffers, the weights
    # and d^2, each of min(_TILE_ROWS, N) * W values, W = N - k0 of the first
    # tile (the widest, since k0 only grows), or of a block's values,
    # min(_BLOCK_VALUES, 32 * N), if that is more and the first tile is a
    # plateau. Every tile or block works in C-contiguous views of their
    # prefixes. The 32 * N cap leaves room at small N for numpy's iterator
    # buffers (up to 8,192 values per operand of a strided or broadcast op).
    # Two allocations, not one of twice the size: glibc raises its mmap
    # threshold to the largest block freed and serves smaller ones from its
    # heap, which keeps freed pages resident (about 1.8 MB more peak RSS on
    # sweep2d). Beside it a call holds the sorted fitness and positions, the
    # sorted-order result and the difference operands: 4 * (D + 1) * N values
    # below _GRAM_MIN_DIMS, 4 * N plus D * N centred positions from there on.
    first_rows = min(_TILE_ROWS, n_probes)
    size = first_rows * (n_probes - tile_k0[0])
    block = 0 if gram else min(_BLOCK_VALUES, _TILE_ROWS // 2 * n_probes)
    if fit[first_rows - 1] == fit[0]:
        size = max(size, block)
    block = min(block, size)  # values a block may fill per buffer
    buf_flat = np.empty(size)
    d2_flat = np.empty_like(buf_flat)
    acc = np.zeros((n_probes, n_dims))  # in sorted order, G applied last
    with np.errstate(divide="ignore", invalid="ignore"):  # coincident pairs divide by 0
        r0 = 0
        while r0 < n_probes:
            k0 = tile_k0[r0 // _TILE_ROWS]
            if k0 == n_probes:
                break
            # whole tiles at fit[r0] (rows below k0) that fit in a block
            tiles = min(block // (_TILE_ROWS * (n_probes - k0)), (k0 - r0) // _TILE_ROWS)
            r1 = min(r0 + max(tiles, 1) * _TILE_ROWS, n_probes)
            rows, cols = pos[r0:r1], pos[k0:]
            shape = (r1 - r0, n_probes - k0)
            buf = buf_flat[:shape[0] * shape[1]].reshape(shape)
            d2 = d2_flat[:buf.size].reshape(shape)
            if gram:
                _gram_d2(pos, cen, sq, fit, slice(r0, r1), slice(k0, None), buf, d2)
            else:
                np.matmul(lhs[0, r0:r1], rhs[0, :, k0:], out=d2)
                d2 *= d2
                for axis in range(1, n_dims):
                    np.matmul(lhs[axis, r0:r1], rhs[axis, :, k0:], out=buf)
                    buf *= buf
                    d2 += buf
                # each probe p >= k0 meets itself in row p - r0, column p - k0: d^2 = 1
                d2.ravel()[(k0 - r0) * d2.shape[1]::d2.shape[1] + 1] = 1.0
            if fit[r1 - 1] == fit[r0]:  # one fitness for every row: one weight row
                gap = fit[k0:] - fit[r0]
                np.divide(gap * gap, d2, out=buf)
            else:
                np.matmul(lhs[-1, r0:r1], rhs[-1, :, k0:], out=buf)  # buf[p, k] = M_k - M_p
                # columns from r1 on lie above every row: no negative gap there
                np.maximum(buf[:, :r1 - k0], 0.0, out=buf[:, :r1 - k0])
                buf *= buf
                np.divide(buf, d2, out=buf)
            rowsum = buf.sum(axis=1, keepdims=True)
            if not np.isfinite(rowsum).all():
                buf[d2 == 0.0] = 0.0
                rowsum = buf.sum(axis=1, keepdims=True)
            np.matmul(buf, cols, out=acc[r0:r1])
            acc[r0:r1] -= rowsum * rows
            r0 = r1
    del buf_flat, d2_flat, buf, d2  # free the workspace before the scatter's copy
    acc *= _G_CONST
    accels = np.empty_like(acc)  # in the history's probe order
    accels[order] = acc
    return accels


def _difference_operands(x):
    """Operands of exact outer differences of the rows of ``x``, shape (m, N).

    ``lhs[i, p] = [1, -x[i, p]]`` and ``rhs[i, :, k] = [x[i, k], 1]``, so the
    rank-2 product ``lhs[i, r] @ rhs[i, :, c]`` is ``x[i, c] - x[i, r]`` for
    every pair of slices r and c. Both products of each sum are exact and
    the sum is rounded once, in any order and at any BLAS thread count: the
    result is the correctly rounded np.subtract, up to the sign of a zero.
    """
    m, n = x.shape
    lhs = np.empty((m, n, 2))
    lhs[:, :, 0] = 1.0
    np.negative(x, out=lhs[:, :, 1])
    rhs = np.empty((m, 2, n))
    rhs[:, 0] = x
    rhs[:, 1] = 1.0
    return lhs, rhs


def _gram_d2(pos, cen, sq, fit, r, c, buf, d2):
    """Write into ``d2`` the squared distances between the probes of slices
    ``r`` (rows) and ``c`` (columns) of the sorted swarm; ``buf`` is scratch
    of the same shape.

    d2 = sq_r + sq_c - 2 cen_r.cen_c from centred positions. Unless
    d2 > _NEAR * (sq_r + sq_c), a pair has lost too many bits to cancellation
    (this covers negative d2 and coincident probes), or its Gram terms
    overflowed. Each such pair with weight, M_c > M_r, is summed again
    exactly over the axes, which gives 0 for coincident probes, in chunks of
    ``buf.size // D`` pairs, so no buffer outgrows ``buf``. Every other such
    pair keeps the +inf that one masked copy first gives every flagged pair,
    whose quotient is the +0.0 its exact distance would give. Self pairs get
    +inf through a diagonal view first, so flagged pairs are gathered only
    when distinct probes are flagged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(cen[r], cen[c].T, out=d2)
        d2 *= -2.0
        np.add(sq[r, None], sq[c], out=buf)
        d2 += buf
    buf *= _NEAR
    # each probe p >= c.start meets itself in row p - r.start, column p - c.start
    d2.ravel()[(c.start - r.start) * d2.shape[1]::d2.shape[1] + 1] = np.inf
    flagged = ~(d2 > buf)
    if not flagged.any():
        return
    np.copyto(d2, np.inf, where=flagged)
    ri, ci = np.nonzero(flagged)
    weighted = fit[c][ci] > fit[r][ri]
    ri, ci = ri[weighted], ci[weighted]
    rows, cols = pos[r], pos[c]
    chunk = max(1, buf.size // rows.shape[1])
    for i in range(0, ri.size, chunk):
        rr, cc = ri[i:i + chunk], ci[i:i + chunk]
        diff = cols[cc]
        diff -= rows[rr]
        d2[rr, cc] = np.einsum("ij,ij->i", diff, diff)


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


def _check_points(points, step):
    """Raise ValueError if a point is non-finite, before the objective sees
    it: the acceleration step overflowed, and the message says how."""
    if not np.isfinite(points).all():
        lost = np.count_nonzero(~np.isfinite(points).all(axis=-1))
        raise ValueError(f"step {step}: {lost} of {len(points)} probe positions became "
                         "non-finite (NaN or +-inf) because the acceleration step "
                         "overflowed: a squared fitness gap over a squared distance "
                         "exceeded the float range (a huge fitness gap, or probes "
                         "extremely close together)")


def _evaluate(objective, points, step):
    """objective.evaluate_batch(points), with the step named in its ValueError."""
    try:
        return objective.evaluate_batch(points)
    except ValueError as exc:
        raise ValueError(f"step {step}: {exc}") from exc


def _check_values(raw, step):
    """Raise ValueError naming the step if a result holds a NaN or +-inf: no
    threshold can be set from it, and the floor would hide a -inf."""
    if not np.isfinite(raw).all():
        bad = np.count_nonzero(~np.isfinite(raw))
        raise ValueError(f"step {step}: the objective returned {bad} non-finite "
                         f"value(s) (NaN or +-inf) in a batch of {raw.size}")


def run_cfo(
    params: CfoParams,
    objective: ObjectiveSpec,
    start: float | np.random.Generator,
    threshold: ThresholdState = ThresholdState(),
) -> tuple[OptResult, SwarmHistory]:
    """Run one CFO search over the objective's decision space.

    ``params`` must be a CfoParams and ``objective`` an ObjectiveSpec;
    anything else raises ValueError naming it. ``start`` is either a gamma
    in [0, 1], for a bit-reproducible probe-line start at that diagonal
    fraction, or the generator that draws a random start (one uniform draw
    per coordinate, probe-major; callers running several searches off one
    stream pass the same generator). Each step evaluates every probe once,
    so a search makes exactly (n_steps + 1) * n_probes calls; a result that
    evaluate_batch refuses or that holds a NaN or +-inf raises ValueError
    naming the step. The optimizer only ever sees the fitness floored at
    ``threshold``, a ThresholdState, checked when it was built; the default
    -inf floors nothing. Anything but a ThresholdState raises ValueError. So
    do counts whose history would not fit one numpy array (see
    objectives._check_history), before anything is allocated.
    """
    _check_type("params", params, CfoParams)
    _check_type("objective", objective, ObjectiveSpec)
    _check_type("threshold", threshold, ThresholdState)
    space = objective.space
    _check_history(params.n_probes, params.n_steps, space.n_dims)
    history = SwarmHistory.allocate(params.n_probes, space.n_dims, params.n_steps)
    evals_before = objective.eval_count

    if isinstance(start, np.random.Generator):
        history.positions[:, :, 0] = start.uniform(space.lower, space.upper,
                                                   size=(params.n_probes, space.n_dims))
    else:
        _check_fraction("gamma", start)
        positions = history.positions[:, :, 0]
        positions[:] = np.minimum(space.lower + start * (space.upper - space.lower),
                                  space.upper)
        per_axis = params.n_probes // space.n_dims
        if per_axis >= 2:  # the layout ProbeLine describes
            axes, slots = np.arange(space.n_dims), np.arange(per_axis)[:, None]
            step = (space.upper - space.lower) / (per_axis - 1)
            positions[slots + per_axis * axes, axes] = np.minimum(space.lower + slots * step,
                                                                  space.upper)
    # the start lies inside the bounds, which are finite: its points need no check
    raw = _evaluate(objective, history.positions[:, :, 0], 0)
    _check_values(raw, 0)
    checked = raw.tobytes()  # bytes, not the array: an objective may reuse it
    history.fitness[:, 0] = apply_threshold(raw, threshold)
    accels = np.zeros((params.n_probes, space.n_dims))
    resting = True  # step 0 does not accelerate; resting steps: see the module docstring

    for j in range(1, params.n_steps + 1):
        step_positions(history, j, accels)
        points = history.positions[:, :, j]
        if not resting:
            retrieve_errant(history, j, _FREP[(j - 1) % len(_FREP)], space)
            _check_points(points, j)
        raw = _evaluate(objective, points, j)
        if resting and raw.tobytes() == checked:
            history.fitness[:, j] = history.fitness[:, j - 1]
        else:
            _check_values(raw, j)
            checked = raw.tobytes()
            history.fitness[:, j] = apply_threshold(raw, threshold)
        accels = compute_accelerations(history, j, params)
        resting = not accels.any()

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
