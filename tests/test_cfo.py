import ast
import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import paper_reference as ref
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dtopt.cfo
from dtopt.cfo import (
    DEFAULT_GAMMA_SWEEP,
    CfoParams,
    ProbeLine,
    RandomUniform,
    SwarmHistory,
    compute_accelerations,
    retrieve_errant,
    run_cfo,
    scan_best,
    scan_worst,
    step_positions,
)
from dtopt.driver import DtoConfig, run_dto
from dtopt.objectives import DecisionSpace, ObjectiveSpec, make_objective, schwefel226
from dtopt.threshold import LinearRamp


def _params(n_probes=4, n_steps=5):
    return CfoParams(n_probes=n_probes, n_steps=n_steps)


def _flat(x):
    return np.zeros(len(x))


# ----- every step against the reference -----

def _recorded(params, objective, start, floor=-np.inf):
    """run_cfo's result and the history of every step it records."""
    result, history = run_cfo(params, objective, start, floor, record=True)
    assert history.positions.shape == (params.n_probes, objective.space.n_dims,
                                       params.n_steps + 1)
    return result, history


def _checked_search(params, space, func, begin, floor=-np.inf):
    """run_cfo's search of ``func`` over ``space`` from ``begin``, a gamma or
    an integer seed, under a floor at ``floor``: (result, history), with
    every step checked against one reference step taken from the library's
    own previous step, so chaos cannot amplify rounding.

    Step 0 must be the reference start, bit for bit. A resting step must
    keep the previous positions bit for bit. Any other step's coordinate
    must lie within 1e-12 * (sum_k w_pk * (|R_k| + |R_p|) + |R_p|) of the
    reference move from the library's previous positions and fitness
    (``ref.kernel``'s size, in coordinate units, and the move's own
    rounding), or, pulled back, equal the reference retrieval from the
    previous position; within that bound of a domain edge either branch of
    retrieval holds. Every fitness must equal max(the answer recorded from
    the objective, floor) bit for bit, every batch the objective saw the
    step's positions, and the result the reference scans of the history.
    """
    batches, answers = [], []

    def recording(x):
        batches.append(x.copy())
        values = func(x)
        answers.append(np.array(values, dtype=float))
        return values

    objective = ObjectiveSpec(recording, space)
    result, history = _recorded(params, objective, _begin(begin), floor)
    lower, upper = space.lower.tolist(), space.upper.tolist()
    n_probes, n_steps = params.n_probes, params.n_steps
    positions = [history.positions[:, :, j].tolist() for j in range(n_steps + 1)]
    fitness = [history.fitness[:, j].tolist() for j in range(n_steps + 1)]
    assert _bits(positions[0]) == _bits(ref.start(n_probes, lower, upper, _begin(begin)))
    accels = [[0.0] * space.n_dims] * n_probes  # step 0 does not accelerate
    for j in range(1, n_steps + 1):
        prev = positions[j - 1]
        if j > 1:
            accels, sizes = ref.kernel(prev, fitness[j - 1])
        moved = [ref.move(r, a) for r, a in zip(prev, accels)]
        if ref.rests(accels):
            assert _bits(positions[j]) == _bits(moved), f"resting step {j}"
            continue
        frep = ref.retrieval_factor(j)
        for p, row in enumerate(positions[j]):
            for d, got in enumerate(row):
                x, r, lo, hi = moved[p][d], prev[p][d], lower[d], upper[d]
                bound = 1e-12 * (sizes[p][d] + abs(r))
                assert ((lo <= got <= hi and abs(got - x) <= bound)
                        or got in (ref.retrieve(x - bound, r, lo, hi, frep),
                                   ref.retrieve(x + bound, r, lo, hi, frep))), (j, p, d)
    assert len(batches) == n_steps + 1 and objective.eval_count == result.evals_used
    for j, (batch, answer) in enumerate(zip(batches, answers)):
        assert batch.tobytes() == history.positions[:, :, j].tobytes()
        assert _bits(fitness[j]) == _bits([ref.floor(f, floor) for f in answer.tolist()])
    best, probe, step = ref.scan_best(fitness)
    worst = ref.scan_worst(fitness)[0]
    assert (result.best_probe, result.best_step) == (probe, step)
    assert _bits([result.best_value, result.worst_value]) == _bits([best, worst])
    assert _bits(result.best_coords.tolist()) == _bits(positions[step][probe])
    assert result.evals_used == (n_steps + 1) * n_probes
    return result, history


def _result_bits(result):
    """An OptResult as bytes and integers: a comparison that tells -0.0 from 0.0."""
    return (result.best_coords.tobytes(), _bits([result.best_value, result.worst_value]),
            result.best_probe, result.best_step, result.evals_used)


def _begin(begin):
    """A search's start: a gamma as it is, an integer seed as a new generator."""
    return begin if isinstance(begin, float) else np.random.default_rng(begin)


def _bits(values):
    """The bytes of a list (of lists) of floats: a comparison that tells -0.0 from 0.0."""
    return np.array(values, dtype=float).tobytes()


def test_the_reference_imports_no_dtopt_module():
    # The reference must not run the code it checks: its pass loop takes the
    # search as an argument, and nothing else reaches the library.
    tree = ast.parse(Path(ref.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [name for name in modules if name.split(".")[0] in ("dtopt", "")]
    assert not [value for value in vars(ref).values()
                if getattr(value, "__module__", "").startswith("dtopt")]


# ----- initial probe distributions -----

def _start(n_probes, space, begin):
    """Step-0 positions of a run_cfo search from ``begin``, a gamma or a
    seed, checked against the reference start."""
    return _checked_search(CfoParams(n_probes, 0), space, _flat, begin)[1].positions[:, :, 0]


# 4 probes on [-500, 500]^2 at gamma 0.5: two slots per axis through the centre
_HAND_TRACE_2D = np.array([
    [-500.0, 0.0],
    [500.0, 0.0],
    [0.0, -500.0],
    [0.0, 500.0],
])


def test_probe_line_hand_trace_2d():
    space = DecisionSpace.cube(2, -500.0, 500.0)
    assert np.array_equal(_start(4, space, 0.5), _HAND_TRACE_2D)


def test_probe_line_skips_spread_when_too_few_probes():
    space = DecisionSpace.cube(30, -500.0, 500.0)
    positions = _start(4, space, 0.0)
    assert np.array_equal(positions, np.full((4, 30), -500.0))


def test_probe_line_1d_two_probes_hit_endpoints():
    space = DecisionSpace.cube(1, -3.0, 7.0)
    for gamma in (0.0, 0.3, 1.0):
        positions = _start(2, space, gamma)
        assert np.array_equal(positions, np.array([[-3.0], [7.0]]))


_ROUNDING_BOUNDS = (-2.1676199894367754, 7.805487040095848)  # lower + width > upper


def test_a_probe_line_start_at_gamma_one_stays_inside_the_space():
    # lower + 1.0 * (upper - lower) rounds one ULP past upper on this cube
    lower, upper = _ROUNDING_BOUNDS
    seen = []
    obj = ObjectiveSpec(lambda x: seen.append(x.copy()) or x.sum(axis=1),
                        DecisionSpace.cube(2, lower, upper))
    result, _ = run_cfo(CfoParams(2, 3), obj, 1.0)
    assert seen[0].tolist() == [[upper, upper], [upper, upper]]
    assert (result.best_coords <= upper).all()


def test_random_start_deterministic_per_seed():
    space = DecisionSpace.cube(4, -2.0, 9.0)
    a = _start(8, space, 123)
    b = _start(8, space, 123)
    assert np.array_equal(a, b)


def test_random_start_is_one_probe_major_uniform_draw():
    space = DecisionSpace.cube(4, -2.0, 9.0)
    expected = np.random.default_rng(123).uniform(space.lower, space.upper, size=(8, 4))
    assert np.array_equal(_start(8, space, 123), expected)


def test_random_start_within_bounds():
    space = DecisionSpace(np.array([-5.0, 0.0, 3.0]), np.array([-1.0, 2.0, 30.0]))
    positions = _start(100, space, 7)
    assert np.all(positions >= space.lower) and np.all(positions < space.upper)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(lower=_FINITE, upper=_FINITE)
@example(*_ROUNDING_BOUNDS)
@example(1e16, 1e16 + 4.0)  # bounds whose ULP, 2, is half the width
@example(-5e-324, 5e-324)  # a subnormal width
@example(-1e308, 1e308)
def test_the_largest_uniform_draw_never_rounds_past_upper(lower, upper):
    # A random start needs no retrieval: Generator.uniform returns
    # low + fl(high - low) * u with u <= 1 - 2^-53, and at that largest u the
    # sum stays inside the bounds, even where lower + (upper - lower) rounds
    # past upper. Any space's bounds: finite, lower < upper, a finite width.
    assume(lower < upper and np.isfinite(upper - lower))
    largest = lower + (upper - lower) * (1.0 - 2.0**-53)
    assert lower <= largest <= upper


def test_random_starts_lie_inside_bounds_whose_width_rounds():
    space = DecisionSpace.cube(2, *_ROUNDING_BOUNDS)
    lower, upper = _ROUNDING_BOUNDS
    assert lower + (upper - lower) > upper
    for seed in range(500):
        positions = _start(64, space, seed)
        assert ((lower <= positions) & (positions <= upper)).all()


def test_random_start_differs_across_seeds():
    space = DecisionSpace.cube(3, 0.0, 1.0)
    for seed in range(100):
        a = _start(5, space, seed)
        b = _start(5, space, seed + 1)
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None, True])
def test_random_uniform_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        RandomUniform(seed)


def test_random_uniform_accepts_numpy_integers():
    assert RandomUniform(np.int64(3)).seed == 3
    assert RandomUniform(0).seed == 0


# ----- kinematics -----

def test_step_positions_arithmetic():
    hist = SwarmHistory.allocate(3, 1, 1)
    hist.positions[:, 0, 0] = [0.0, 5.0, 10.0]
    accels = np.array([[2.0], [0.0], [-4.0]])
    step_positions(hist, 1, accels)
    assert np.array_equal(hist.positions[:, 0, 1], [1.0, 5.0, 8.0])


def test_retrieve_errant_cases():
    space = DecisionSpace.cube(1, -500.0, 500.0)
    hist = SwarmHistory.allocate(3, 1, 1)
    hist.positions[:, 0, 0] = [-400.0, 400.0, 100.0]
    hist.positions[:, 0, 1] = [-600.0, 700.0, 100.0]
    retrieve_errant(hist, 1, 0.5, space)
    assert hist.positions[0, 0, 1] == -450.0   # -500 + 0.5*(-400 + 500)
    assert hist.positions[1, 0, 1] == 450.0    # 500 - 0.5*(500 - 400)
    assert hist.positions[2, 0, 1] == 100.0    # in bounds, untouched


def test_retrieve_errant_containment_fuzz():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n_dims = int(rng.integers(1, 5))
        lower = rng.uniform(-10, 0, n_dims)
        upper = lower + rng.uniform(0.5, 10, n_dims)
        space = DecisionSpace(lower, upper)
        hist = SwarmHistory.allocate(4, n_dims, 1)
        hist.positions[:, :, 0] = rng.uniform(lower, upper, size=(4, n_dims))
        hist.positions[:, :, 1] = rng.uniform(lower - 20, upper + 20, size=(4, n_dims))
        frep = float(rng.choice(np.arange(1, 21) / 20))
        retrieve_errant(hist, 1, frep, space)
        assert np.all(hist.positions[:, :, 1] >= lower)
        assert np.all(hist.positions[:, :, 1] <= upper)


def _reference_retrieval(space, prev, pos, frep):
    """Positions ``pos`` retrieved coordinate by coordinate by the reference,
    each against its own bounds."""
    return np.array([[ref.retrieve(x, r, lo, hi, frep)
                      for x, r, lo, hi in zip(row, prev_row, space.lower.tolist(),
                                                 space.upper.tolist())]
                     for row, prev_row in zip(pos.tolist(), prev.tolist())])


@pytest.mark.parametrize("space", [DecisionSpace.cube(3, -500.0, 500.0),
                                   DecisionSpace(np.array([-500.0, -1.0, 0.0]),
                                                 np.array([500.0, 1.0, 0.5]))],
                         ids=["cube", "per-axis bounds"])
def test_retrieve_errant_keeps_the_bits_of_the_per_coordinate_rule(space):
    # a cube's bounds are taken as scalars, any other as (D,) rows
    rng = np.random.default_rng(7)
    hist = SwarmHistory.allocate(200, 3, 1)
    width = space.upper - space.lower
    hist.positions[:, :, 0] = rng.uniform(space.lower, space.upper, size=(200, 3))
    pos = rng.uniform(space.lower - width, space.upper + width, size=(200, 3))
    hist.positions[:, :, 1] = pos
    want = _reference_retrieval(space, hist.positions[:, :, 0], pos, 0.55)
    retrieve_errant(hist, 1, 0.55, space)
    assert hist.positions[:, :, 1].tobytes() == want.tobytes()


@pytest.mark.parametrize("cube", [True, False], ids=["cube", "per-axis bounds"])
def test_retrieval_at_factor_one_stays_inside_bounds_whose_width_rounds(cube):
    # lower + 1.0 * (upper - lower) rounds one ULP past upper on these bounds,
    # and upper - 1.0 * (upper - lower) one ULP below lower: a coordinate
    # that crosses the whole space in one step is clamped at the far bound
    lower, upper = -2.1676199894367754, 7.805487040095848
    assert lower + (upper - lower) > upper and upper - (upper - lower) < lower
    space = (DecisionSpace.cube(2, lower, upper) if cube
             else DecisionSpace([lower, -1.0], [upper, 1.0]))
    hist = SwarmHistory.allocate(2, 2, 1)
    hist.positions[:, 0, 0] = [upper, lower]
    hist.positions[:, 0, 1] = [lower - 1.0, upper + 1.0]
    retrieve_errant(hist, 1, 1.0, space)
    assert hist.positions[:, 0, 1].tolist() == [upper, lower]


@pytest.mark.parametrize("cube", [True, False], ids=["cube", "per-axis bounds"])
def test_retrieval_at_factor_one_clamps_a_pull_from_one_ulp_inside_the_far_bound(cube):
    # From one ULP below upper, lower + 1.0 * (prev - lower) still rounds
    # past upper on these bounds, and the below side's clamp puts it at
    # upper. Without that clamp the above side would pull the overshoot back
    # to upper - (upper - prev), which is prev: inside, but not the rule's
    lower, upper = -6.369616873214543, 1.1815697982720896
    prev = float(np.nextafter(upper, lower))
    assert lower + (prev - lower) > upper
    space = (DecisionSpace.cube(2, lower, upper) if cube
             else DecisionSpace([lower, -1.0], [upper, 1.0]))
    hist = SwarmHistory.allocate(1, 2, 1)
    hist.positions[0, :, 0] = [prev, 0.0]
    hist.positions[0, :, 1] = [lower - 1.0, 0.0]
    want = _reference_retrieval(space, hist.positions[:, :, 0], hist.positions[:, :, 1], 1.0)
    retrieve_errant(hist, 1, 1.0, space)
    assert hist.positions[0, :, 1].tolist() == [upper, 0.0] == want[0].tolist()


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("space", [DecisionSpace.cube(3, -500.0, 500.0),
                                   DecisionSpace([-500.0, -1.0, 0.0], [500.0, 1.0, 0.5]),
                                   DecisionSpace([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0])],
                         ids=["cube", "per-axis bounds", "equal lower bounds"])
def test_retrieve_errant_pulls_back_coordinates_that_leave_on_one_side_only(space, side):
    # A cube guards each side's mask with one min or max of the positions;
    # here every errant coordinate leaves on one side, so a side whose copy
    # ran on the other side's guard misses them. Equal lower bounds with
    # unequal upper ones are no cube: taken as one, the upper bound of
    # axis 0 would pull back coordinates inside axes 1 and 2.
    rng = np.random.default_rng(11)
    width = space.upper - space.lower
    hist = SwarmHistory.allocate(50, 3, 1)
    hist.positions[:, :, 0] = rng.uniform(space.lower, space.upper, size=(50, 3))
    pos = rng.uniform(space.lower, space.upper, size=(50, 3))
    errant = rng.random((50, 3)) < 0.1
    step_out = rng.uniform(0.01, 1.0, size=(50, 3)) * width
    pos[errant] = (space.lower - step_out if side == "below" else space.upper + step_out)[errant]
    hist.positions[:, :, 1] = pos
    want = _reference_retrieval(space, hist.positions[:, :, 0], pos, 0.35)
    assert errant.any() and not np.array_equal(want, pos)
    retrieve_errant(hist, 1, 0.35, space)
    assert hist.positions[:, :, 1].tobytes() == want.tobytes()


# ----- accelerations -----

def test_acceleration_hand_trace_two_probes():
    # probes at 0 and 1 with fitness 0 and 5: the worse probe feels
    # 2 * (1 - 0) * 5^2 / 1^2 = 50, the better probe feels nothing
    hist = SwarmHistory.allocate(2, 1, 1)
    hist.positions[:, 0, 1] = [0.0, 1.0]
    hist.fitness[:, 1] = [0.0, 5.0]
    accels = compute_accelerations(hist, 1, _params(n_probes=2, n_steps=1))
    assert accels.shape == (2, 1)
    assert accels[0, 0] == 50.0
    assert accels[1, 0] == 0.0


def test_acceleration_equal_fitness_is_zero():
    hist = SwarmHistory.allocate(5, 3, 1)
    hist.positions[:, :, 1] = np.random.default_rng(1).uniform(-1, 1, size=(5, 3))
    hist.fitness[:, 1] = 7.0
    accels = compute_accelerations(hist, 1, _params(n_probes=5, n_steps=1))
    assert np.array_equal(accels, np.zeros((5, 3)))


def test_acceleration_coincident_probes_finite():
    hist = SwarmHistory.allocate(3, 2, 1)
    hist.positions[:, :, 1] = 0.25  # all probes at the same point
    hist.fitness[:, 1] = [1.0, 2.0, 3.0]
    accels = compute_accelerations(hist, 1, _params(n_probes=3, n_steps=1))
    assert np.all(np.isfinite(accels))
    assert np.array_equal(accels, np.zeros((3, 2)))


def test_acceleration_pulls_worse_toward_better():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_dims = int(rng.integers(1, 4))
        hist = SwarmHistory.allocate(2, n_dims, 1)
        hist.positions[:, :, 1] = rng.uniform(-10, 10, size=(2, n_dims))
        fits = rng.uniform(-5, 5, size=2)
        while fits[0] == fits[1]:
            fits = rng.uniform(-5, 5, size=2)
        hist.fitness[:, 1] = fits
        accels = compute_accelerations(hist, 1, _params(n_probes=2, n_steps=1))
        worse, better = (0, 1) if fits[0] < fits[1] else (1, 0)
        toward = hist.positions[better, :, 1] - hist.positions[worse, :, 1]
        accel = accels[worse]
        nonzero = toward != 0
        assert np.all(np.sign(accel[nonzero]) == np.sign(toward[nonzero]))
        assert np.array_equal(accels[better], np.zeros(n_dims))


@st.composite
def _kernel_inputs(draw, max_probes=200):
    """Positions and fitness for one kernel call of up to ``max_probes`` probes.

    Fitness is floored at a drawn quantile, so a share of the probes (all of
    them at quantile 1) sits on one plateau; the rest are continuous or drawn
    from a few levels, which gives ties above the floor. Positions come from
    ``n_sites`` distinct points, so fewer sites than probes makes coincident
    probes. The sites either spread over [-500, 500] per axis or cluster
    within 1e-9 to 1 of a centre in that box, the cancellation worst case of
    the Gram form, and are then scaled by 10^-100 to 10^150. The dimensions
    straddle the kernel's switch to the Gram form at 8.
    """
    n = draw(st.integers(1, max_probes))
    n_dims = draw(st.sampled_from([1, 2, 7, 8, 30, 64]))
    n_levels = draw(st.sampled_from([0, 1, 3]))  # 0: continuous fitness
    floor_quantile = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    n_sites = draw(st.integers(1, n))
    cluster_width = draw(st.sampled_from([None, 1.0, 1e-3, 1e-6, 1e-9]))
    scale = 10.0 ** draw(st.integers(-100, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n_levels:
        fit = rng.integers(0, n_levels, n) * 37.5
    else:
        fit = rng.uniform(-1000.0, 1000.0, n)
    fit = np.maximum(fit, np.quantile(fit, floor_quantile, method="lower"))
    if cluster_width is None:
        sites = rng.uniform(-500.0, 500.0, size=(n_sites, n_dims))
    else:
        centre = rng.uniform(-500.0, 500.0, n_dims)
        sites = centre + rng.uniform(-cluster_width, cluster_width, size=(n_sites, n_dims))
    pos = sites[rng.integers(0, n_sites, n)] * scale
    return pos, fit


def _assert_matches_dense_oracle(pos, fit):
    hist = SwarmHistory.allocate(*pos.shape, 1)
    hist.positions[:, :, 1] = pos
    hist.fitness[:, 1] = fit
    got = compute_accelerations(hist, 1, _params(n_probes=pos.shape[0], n_steps=1))
    expected, weights = ref.dense_accelerations(pos, fit)
    # scale[p] = sum_k w_pk (|R_k| + |R_p|), per coordinate: the size of the
    # terms the sum cancels, which bounds any reordering of it.
    scale = weights @ np.abs(pos) + weights.sum(axis=1, keepdims=True) * np.abs(pos)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    return got


def _converged_swarm(n, n_dims):
    """Positions and fitness of n probes, all but one within 1e-9 of the
    origin and the last at 500 on every axis. Centred on the swarm mean, the
    cluster's norms dwarf its distances, so in the Gram form every pair but
    the far probe's is near. At the origin the oracle's bound, which scales
    with |R|, sees an error in any one of those distances."""
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1e-9, 1e-9, size=(n, n_dims))
    pos[0] = 500.0
    return pos, rng.uniform(0.0, 800.0, n)


def _floored_plateau_swarm():
    """A floored swarm of 390 probes near the origin in 2-D: in fitness order,
    200 on the floor, 140 on a second plateau and 50 above both, so tiles
    0-2 and 4 are plateau tiles (one weight row each) and tiles 3, 5 and 6
    mix fitnesses. Six plateau probes share their position with a floor
    probe, which makes coincident pairs of unequal fitness."""
    rng = np.random.default_rng(12)
    pos = rng.uniform(-1.0, 1.0, size=(390, 2))
    fit = np.concatenate([np.full(200, 100.0), np.full(140, 500.0),
                          rng.uniform(500.5, 800.0, 50)])
    pos[200:206] = pos[:6]
    order = rng.permutation(390)
    return pos[order], fit[order]


def _coincident_gram_swarm():
    """150 probes at D = 30: 149 on 40 sites within 1e-9 of the origin and
    one at 500 on every axis, as in _converged_swarm, so every cluster pair
    is near in the Gram form. Probes on one site share its fitness, so
    coincident pairs carry zero weight, while distinct sites pull each other
    as weighted near pairs; two sites also share a fitness level."""
    rng = np.random.default_rng(9)
    sites = rng.uniform(-1e-9, 1e-9, size=(40, 30))
    levels = np.round(rng.uniform(0.0, 800.0, 40))
    levels[1] = levels[0]
    site = rng.integers(0, 40, 150)
    pos, fit = sites[site], levels[site]
    pos[0], fit[0] = 500.0, 900.0
    return pos, fit


def _coincident_mixed_tile(equal_fitness):
    """Nine probes in 2-D, one mixed tile: probes 1 and 2 share a position,
    and their fitness too if ``equal_fitness``, so the tile meets a pair at
    zero distance whose weight is 0/0, or a gap over 0."""
    rng = np.random.default_rng(13)
    pos = rng.uniform(-1.0, 1.0, size=(9, 2))
    pos[2] = pos[1]
    fit = np.array([1.0, 2.0, 2.0 if equal_fitness else 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    return pos, fit


def _top_plateau_swarm(n_dims):
    """130 probes at distinct positions: 64 with distinct low fitness, one
    tile, and 66 sharing the top fitness. The second tile starts on the top
    value, so no column lies above it and the tile walk stops there; its
    rows feel no pull."""
    rng = np.random.default_rng(21)
    pos = rng.uniform(-500.0, 500.0, size=(130, n_dims))
    fit = np.concatenate((rng.permutation(64) * 10.0, np.full(66, 900.0)))
    return pos, fit


def _two_floor_tiles_below_mixed_rows(seed):
    """150 probes in 2-D, shuffled: exactly 128 on the floor, two whole
    tiles, and 22 distinct probes above it. The block budget, min(2^15,
    32 * 150) values, fits three tiles of the floor's 22 columns, so only
    the count of whole floor tiles keeps the block off the mixed rows
    128-149, which meet columns from 129 on. A block one tile too tall gives
    them the floor's columns: the same values, but a reduction over one more
    column, whose bits moved for seeds 1 and 2 under OpenBLAS's SkylakeX and
    Prescott kernels."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(150, 2))
    fit = np.concatenate([np.full(128, -700.0), rng.uniform(100.0, 800.0, 22)])
    order = rng.permutation(150)
    return pos[order], fit[order]


@settings(max_examples=200, deadline=None)
@given(_kernel_inputs())
@example((np.array([[3.0, -1.0]]), np.array([5.0])))  # N = 1
# all-equal fitness over three tiles
@example((np.random.default_rng(3).uniform(-9, 9, (150, 2)), np.full(150, 4.0)))
# a converged swarm at D = 64: nearly every pair is summed again, in chunks
# that end mid-row
@example(_converged_swarm(200, 64))
# near the origin, where the oracle's bound, which scales with |R|, sees an
# error in any one pair: plateau tiles at D = 2, and at D = 30 zero-weight
# coincident pairs beside weighted near pairs
@example(_floored_plateau_swarm())
@example(_coincident_gram_swarm())
# one mixed tile at D = 2 whose rows 1 and 2 coincide: with equal fitness
# their pair divides 0 by 0, with unequal fitness a gap by 0
@example(_coincident_mixed_tile(equal_fitness=True))
@example(_coincident_mixed_tile(equal_fitness=False))
# a later tile that starts on the top fitness ends the walk, at D = 2 and 30
@example(_top_plateau_swarm(2))
@example(_top_plateau_swarm(30))
# two whole floor tiles below a mixed tile, a block of two
@example(_two_floor_tiles_below_mixed_rows(1))
def test_acceleration_matches_dense_oracle(inputs):
    _assert_matches_dense_oracle(*inputs)


def test_acceleration_of_two_far_clusters_matches_an_exact_sum():
    # 32 probes in 8-D, the Gram form: two clusters of spread 1e-4 at -100 and
    # +100 on the first axis. A pair within a cluster has d2 near 1e-7 against
    # squared norms near 1e4 each (centred on the swarm mean, which lies
    # between the clusters), so its Gram d2 keeps about 5 of 16 digits:
    # only the exact re-sum of near pairs keeps the error at rounding level.
    # With the threshold for a near pair at 1e-12 instead of 1e-4, those
    # pairs keep their Gram d2 and the error rises to about 4e-5 of the
    # largest acceleration; with the threshold as it is, it is about 3e-10,
    # the cancellation of the reduction on absolute positions (ROADMAP item 3).
    rng = np.random.default_rng(0)
    pos = rng.uniform(-1e-4, 1e-4, size=(32, 8))
    pos[:16, 0] += 100.0
    pos[16:, 0] -= 100.0
    fit = rng.uniform(0.0, 800.0, 32)
    hist = SwarmHistory.allocate(32, 8, 1)
    hist.positions[:, :, 1] = pos
    hist.fitness[:, 1] = fit
    got = compute_accelerations(hist, 1, _params(n_probes=32, n_steps=1))
    expected = np.array(ref.kernel(pos.tolist(), fit.tolist())[0])
    assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()


def _assert_matches_exact_kernel(got, pos, fit):
    """``got`` lies within 1e-12 of the exact kernel's term size per coordinate."""
    expected, sizes = ref.kernel(pos.tolist(), fit.tolist())
    assert np.all(np.abs(got - np.array(expected)) <= 1e-12 * np.array(sizes))


@settings(max_examples=60, deadline=None)
@given(_kernel_inputs(max_probes=10))
def test_acceleration_dense_oracle_matches_the_exact_kernel(inputs):
    # The dense numpy form stands in for the exact one where Fractions are
    # too slow: over the same drawn inputs, within the bound it is held to
    pos, fit = inputs
    _assert_matches_exact_kernel(ref.dense_accelerations(pos, fit)[0], pos, fit)


@pytest.mark.parametrize("seed", [1, 2])
def test_acceleration_of_two_plateau_tiles_below_a_mixed_tile_matches_the_exact_kernel(seed):
    # 150 probes: a block of the two whole floor tiles, then the mixed tile
    pos, fit = _two_floor_tiles_below_mixed_rows(seed)
    _assert_matches_exact_kernel(_kernel_at(pos, fit), pos, fit)


@st.composite
def _difference_inputs(draw):
    """Two rows of N finite floats and the row and column slices of a tile.
    Among the values are +-0.0, subnormals and +-1e300 up to the largest
    float, so some differences underflow and some overflow to +-inf."""
    n = draw(st.integers(1, 80))
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                             1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308])
    values = st.one_of(edges, st.floats(allow_nan=False, allow_infinity=False))
    x = np.array(draw(st.lists(values, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    r0 = draw(st.integers(0, n - 1))
    r1 = draw(st.integers(r0 + 1, n))
    k0 = draw(st.integers(0, n - 1))
    return x, slice(r0, r1), slice(k0, None)


@settings(max_examples=300, deadline=None)
@given(_difference_inputs())
def test_acceleration_differences_are_exact_rank_2_products(inputs):
    # The kernel's c - r is [1, -r] @ [c; 1]: both products are exact and the
    # sum is rounded once, in whatever order the BLAS sums, so it is
    # np.subtract's result up to the sign of a zero and squares to the same
    # bits. A stale NaN in the output buffer must not leak in.
    x, r, c = inputs
    lhs, rhs = dtopt.cfo._difference_operands(x)
    with np.errstate(over="ignore"):
        for i in range(len(x)):
            want = np.subtract(x[i, c][None], x[i, r][:, None])
            stale = np.full_like(want, np.nan)
            for got in (lhs[i, r] @ rhs[i, :, c], np.matmul(lhs[i, r], rhs[i, :, c], out=stale)):
                assert np.array_equal(got, want)
                assert (got * got).tobytes() == (want * want).tobytes()


def test_acceleration_sums_axis_by_axis_when_squared_norms_overflow():
    # A mixed swarm at D = 30: two clusters at -+1e160 on every axis and 20
    # probes at ordinary coordinates. Centred on the swarm mean, each cluster
    # probe's squared norm overflows, so its Gram terms meet inf - inf and
    # every pair it is in is summed again exactly. Pairs within a cluster
    # (spread 1e150) have finite distances and real pulls; pairs across the
    # clusters, or between a cluster and an ordinary probe, overflow to an
    # infinite distance and zero weight, in the kernel's sums as in the
    # oracle's. The ordinary probes' centred norms are about 1e150, so their
    # Gram distances cancel to noise and are summed again as well.
    rng = np.random.default_rng(11)
    sides = np.repeat([-1.0, 1.0], 20)[:, None]
    clusters = (sides + rng.uniform(-1e-10, 1e-10, (40, 30))) * 1e160
    pos = np.vstack([clusters, rng.uniform(-500.0, 500.0, (20, 30))])
    fit = rng.uniform(0.0, 800.0, 60)
    with np.errstate(over="ignore"):
        got = _assert_matches_dense_oracle(pos, fit)
    assert np.all(np.isfinite(got))
    assert np.count_nonzero(got[:40]) > 0
    assert np.count_nonzero(got[40:]) > 0


def _overlapping_gram_tiles(coincident):
    """100 probes at D = 30 with distinct fitness, so each tile's first
    column is its second row, k0 = r0 + 1, and a tile meets the self pairs
    of its rows from the second on, along a diagonal. They spread over
    [-500, 500] per axis, far apart next to the Gram form's near bound. With
    ``coincident``, five probes share the position of the probe just below
    them in fitness, which makes weighted pairs at zero distance."""
    rng = np.random.default_rng(17)
    pos = rng.uniform(-500.0, 500.0, size=(100, 30))
    fit = rng.permutation(100) * 3.0
    if coincident:
        by_fitness = np.argsort(fit)
        pos[by_fitness[11:61:10]] = pos[by_fitness[10:60:10]]
    return pos, fit


@pytest.mark.parametrize("coincident", [False, True], ids=["apart", "coincident"])
def test_gram_tiles_whose_rows_overlap_their_columns_match_the_dense_oracle(monkeypatch,
                                                                            coincident):
    # Each self pair gets +inf through a diagonal view that starts in the
    # tile's row k0 - r0; a view one row early cuts the weighted pair of
    # fitness neighbours. Apart, no pair of distinct probes is near, so the
    # flagged-pair indices are never gathered: a view one row late leaves
    # the self pairs to that path, which runs it.
    if not coincident:
        def no_flagged_pairs(*args):
            raise AssertionError("a flagged pair was gathered")

        monkeypatch.setattr(dtopt.cfo.np, "nonzero", no_flagged_pairs)
    _assert_matches_dense_oracle(*_overlapping_gram_tiles(coincident))


def _kernel_at(pos, fit):
    """compute_accelerations on one step holding ``pos`` and ``fit``."""
    hist = SwarmHistory.allocate(*pos.shape, 1)
    hist.positions[:, :, 1] = pos
    hist.fitness[:, 1] = fit
    return compute_accelerations(hist, 1, _params(n_probes=pos.shape[0], n_steps=1))


def _tile_walk_at(pos, fit):
    """The kernel with a block budget of no values: every plateau tile is a
    block of its own, as before blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtopt.cfo, "_BLOCK_VALUES", 0)
        return _kernel_at(pos, fit)


@st.composite
def _plateau_inputs(draw):
    """A floored swarm in fitness order from the bottom: a few distinct
    probes below the floor (or none, as in a DTO pass), a floor plateau of
    2-40 whole tiles plus a ragged tail, a second plateau of up to 3 tiles
    and up to 250 distinct probes above it, shuffled. Some floor probes share
    a position with one another, some with a probe above the floor, so a
    block meets pairs at zero distance and sums again. Positions cluster
    around 0 or 420.9687 within a drawn spread."""
    n_dims = draw(st.sampled_from([1, 2, 7]))
    n_below = draw(st.sampled_from([0, 0, 5]))
    n_floor = 64 * draw(st.integers(2, 40)) + draw(st.integers(0, 63))
    n_second = draw(st.integers(0, 3 * 64))
    n_top = draw(st.integers(1, 250))
    centre = draw(st.sampled_from([0.0, 420.9687]))
    spread = draw(st.sampled_from([1e-3, 1.0, 500.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fit = np.concatenate([rng.uniform(-900.0, -800.0, n_below), np.full(n_floor, -700.0),
                          np.full(n_second, 100.0), rng.uniform(100.5, 800.0, n_top)])
    pos = centre + rng.uniform(-spread, spread, size=(fit.size, n_dims))
    floor = np.arange(n_below, n_below + n_floor)
    pos[floor[:10:2]] = pos[floor[1:10:2]]
    pos[floor[-3:]] = pos[-3:]
    order = rng.permutation(fit.size)
    return pos[order], fit[order]


def _gram_plateau_swarm():
    """700 probes at D = 30, 550 of them on the floor. Blocks of two floor
    tiles would change the Gram dgemm's M, and with it the bits of the
    accelerations, by about 2e-16 of the largest under OpenBLAS's SkylakeX
    and Prescott kernels on two threads (on one thread these bits held):
    the Gram form keeps one tile at a time."""
    rng = np.random.default_rng(0)
    pos = rng.uniform(-500.0, 500.0, size=(700, 30))
    fit = np.concatenate([np.zeros(550), rng.uniform(1.0, 800.0, 150)])
    return pos, fit


@settings(max_examples=60, deadline=None)
@given(_plateau_inputs())
@example(_gram_plateau_swarm())
@example(_two_floor_tiles_below_mixed_rows(1))
@example(_two_floor_tiles_below_mixed_rows(2))
def test_acceleration_blocks_of_plateau_tiles_keep_the_tile_walk_bits(inputs):
    # A block of whole plateau tiles gives each row its tile's columns, gap
    # row, d^2, row sum and reduction: the same bits as one tile at a time.
    pos, fit = inputs
    got = _kernel_at(pos, fit)
    assert got.tobytes() == _tile_walk_at(pos, fit).tobytes()
    assert np.all(np.isfinite(got))


def test_acceleration_reads_each_step_of_the_history_as_one_contiguous_block():
    hist = SwarmHistory.allocate(5, 3, 4)
    assert hist.positions.shape == (5, 3, 5) and hist.fitness.shape == (5, 5)
    for j in range(5):
        assert hist.positions[:, :, j].flags.c_contiguous
        assert hist.fitness[:, j].flags.c_contiguous


def _kernel_peak_bytes(hist):
    """The kernel's accelerations for step 1 of ``hist`` and its peak traced allocation."""
    tracemalloc.start()
    try:
        accels = compute_accelerations(hist, 1, _params(n_probes=hist.n_probes, n_steps=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return accels, peak


def _kernel_bound_bytes(n_probes):
    """Peak allocation one kernel call may reach at N probes below D = 8:
    2.5 float64 tiles of 64 rows by N columns. Its two tile buffers take 2,
    the sorted copies, the accelerations and the difference operands about
    0.3 more."""
    return 2.5 * 64 * n_probes * 8


def test_acceleration_memory_is_bounded():
    # An N x N kernel would need about 1.1 GB here. Every fitness differs,
    # so the first tile meets all N - 1 columns above it.
    n = 8192
    rng = np.random.default_rng(8)
    hist = SwarmHistory.allocate(n, 2, 1)
    hist.positions[:, :, 1] = rng.uniform(-500.0, 500.0, size=(n, 2))
    hist.fitness[:, 1] = rng.uniform(0.0, 800.0, n)
    accels, peak = _kernel_peak_bytes(hist)
    assert peak < _kernel_bound_bytes(n)
    assert np.all(np.isfinite(accels))


@pytest.mark.parametrize("n, n_floor", [(384, 192), (8192, 8100)])
def test_acceleration_memory_is_bounded_on_a_floor_plateau(n, n_floor):
    # The first tile lies on the floor, so the workspace has room for a
    # block of whole floor tiles. At N = 384 a 2^15-value block would be
    # more than one tile per buffer; the budget stops at 32 * N values.
    rng = np.random.default_rng(5)
    hist = SwarmHistory.allocate(n, 2, 1)
    hist.positions[:, :, 1] = rng.uniform(-500.0, 500.0, size=(n, 2))
    hist.fitness[:, 1] = np.concatenate([np.zeros(n_floor), rng.uniform(1.0, 800.0, n - n_floor)])
    accels, peak = _kernel_peak_bytes(hist)
    assert peak < _kernel_bound_bytes(n)
    assert np.all(np.isfinite(accels))


def test_run_holds_one_history_and_one_kernel_workspace_at_a_time():
    # Probe doubling makes the last pass's searches the largest; a search
    # keeps two steps, and the one before it must be gone by then.
    config = DtoConfig(num_passes=4, schedule=LinearRamp(c_th=0.9),
                       cfo=CfoParams(n_probes=256, n_steps=20),
                       objective=make_objective("schwefel226", 2), ipd=ProbeLine((0.5,)))
    n_last = 256 * 2**3
    last_history = 2 * n_last * (2 + 1) * 8  # two steps' positions and fitness, float64
    run_dto(dataclasses.replace(config, num_passes=1))  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        run_dto(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < last_history + _kernel_bound_bytes(n_last)


def test_a_search_without_a_history_holds_two_steps():
    # 64 probes at D = 100 over 400 steps: a history of every step would take
    # 20.7 MB. A search holds two steps, 8 * N * (D + 1) * 2 bytes, and beside
    # them one kernel call's workspace: its two tile buffers, 2 * 64 * N
    # values, and at most 8 * N * D values of sorted, centred and result
    # arrays and the previous step's accelerations: 0.58 MB in all. The
    # peak was 0.49 MB with numpy 2.4.6.
    n, d, nt = 64, 100, 400
    objective = make_objective("schwefel226", d)
    run_cfo(CfoParams(n, 2), objective, np.random.default_rng(1))  # numpy's lazy set-up
    tracemalloc.start()
    try:
        result, history = run_cfo(CfoParams(n, nt), objective, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history is None and result.evals_used == (nt + 1) * n
    assert peak < 8 * (2 * n * (d + 1) + 2 * 64 * n + 8 * n * d)


def test_acceleration_memory_is_bounded_in_gram_form():
    # A converged swarm at D = 30: nearly every pair must be summed again.
    # Gathering all of a tile's near pairs at once would take 63 MB, and an
    # N x N kernel 134 MB.
    n = 4096
    hist = SwarmHistory.allocate(n, 30, 1)
    hist.positions[:, :, 1], hist.fitness[:, 1] = _converged_swarm(n, 30)
    accels, peak = _kernel_peak_bytes(hist)
    assert peak < 32 * 2**20
    assert np.all(np.isfinite(accels))


# ----- retrieval factor cycling -----

def _pulled_pair():
    """A 2-probe search that feels a pull at every step: probes at 0 and 1 on
    f(x) = x / 2, where the worse probe moves a quarter of the way to the
    better one each step and never reaches it, so no step rests."""
    return ObjectiveSpec(lambda x: 0.5 * x[:, 0], DecisionSpace.cube(1, 0.0, 1.0))


def _retrieval_factors(monkeypatch, n_steps):
    """The retrieval factor run_cfo passes to retrieve_errant, by step."""
    factors = {}
    retrieve = dtopt.cfo.retrieve_errant

    def recording_retrieve(history, j, frep, space):
        factors[j] = frep
        retrieve(history, j, frep, space)

    monkeypatch.setattr(dtopt.cfo, "retrieve_errant", recording_retrieve)
    # a recorded history hands each step to retrieve_errant as its own slot
    _, hist = _recorded(_params(n_probes=2, n_steps=n_steps), _pulled_pair(), 0.5)
    assert (np.diff(hist.positions[0, 0, 1:]) > 0).all()  # the worse probe moves from step 2 on
    return factors


def test_retrieval_factor_examples(monkeypatch):
    factors = _retrieval_factors(monkeypatch, 45)
    assert factors == {j: ref.retrieval_factor(j) for j in range(2, 46)}
    # step 1 follows step 0's zero acceleration: it rests and retrieves nothing
    assert list(factors) == list(range(2, 46))
    assert factors[2] == 0.55
    assert factors[10] == 0.95
    assert factors[11] == 1.0
    assert factors[12] == 0.05  # wraps past 1.0
    assert factors[21] == 0.5


def test_retrieval_factor_orbit_period_20(monkeypatch):
    factors = _retrieval_factors(monkeypatch, 45)
    assert 1 not in factors
    assert all(factors[j + 20] == factors[j] for j in range(2, 26))
    assert factors[21] == 0.5
    orbit = [factors[j] for j in range(2, 22)]
    assert set(orbit) == {k / 20 for k in range(1, 21)}
    # each factor is the double nearest k / 20, as the 0.05 grid requires
    assert orbit == [k / 20 for k in (*range(11, 21), *range(1, 11))]


# ----- resting steps -----

def _counting_calls(monkeypatch, *names):
    """Count the calls run_cfo makes to each of these dtopt.cfo functions."""
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(dtopt.cfo, name, counting(name, getattr(dtopt.cfo, name)))
    return calls


def test_a_flat_field_search_never_retrieves_and_evaluates_and_accelerates_every_step(
        monkeypatch):
    # Every step of a flat field rests, step 1 too: no coordinate can leave
    # the bounds, yet the objective sees every batch and the kernel every step
    calls = _counting_calls(monkeypatch, "retrieve_errant", "compute_accelerations")
    batches = []
    flat = ObjectiveSpec(lambda x: batches.append(x.copy()) or np.zeros(len(x)),
                         DecisionSpace.cube(2, -500.0, 500.0))
    result, hist = _recorded(CfoParams(n_probes=6, n_steps=9), flat, np.random.default_rng(3))
    assert calls == {"retrieve_errant": 0, "compute_accelerations": 9}
    assert len(batches) == 10 and result.evals_used == flat.eval_count == 60
    # each copied row ties the best, so the last step's last probe holds it
    assert (result.best_probe, result.best_step) == (5, 9)
    assert all(batch.tobytes() == batches[0].tobytes() for batch in batches)
    assert not hist.fitness.any()


@pytest.mark.parametrize("random", [False, True], ids=["probe line", "random"])
def test_step_one_rests_unless_the_objective_answers_it_with_other_bits(monkeypatch, random):
    # A pure objective answers step 1 with step 0's bits: step 1 neither
    # retrieves nor floors. One whose step-1 bits differ takes the full
    # checks and the floor at step 1, and a step after a pull retrieves.
    start = np.random.default_rng(5) if random else 0.5
    pure = ObjectiveSpec(schwefel226, DecisionSpace.cube(3, -500.0, 500.0))
    calls = _counting_calls(monkeypatch, "retrieve_errant", "apply_threshold", "_check_values")
    run_cfo(CfoParams(n_probes=6, n_steps=1), pure, start)
    assert calls == {"retrieve_errant": 0, "apply_threshold": 1, "_check_values": 1}
    results = iter([np.arange(6.0), np.arange(6.0)[::-1].copy(), np.arange(6.0)])
    changing = ObjectiveSpec(lambda x: next(results), pure.space)
    calls.update(dict.fromkeys(calls, 0))
    run_cfo(CfoParams(n_probes=6, n_steps=2), changing, start)
    assert calls == {"retrieve_errant": 1, "apply_threshold": 3, "_check_values": 3}


def _drawn_objective(kind, bump_call):
    """Batch function of the given kind that records every batch it sees.

    "schwefel" and "flat" are pure, and so is "levels", Schwefel rounded to
    a multiple of 200, whose probes tie above any floor. "impure" is flat
    but for call ``bump_call``, where it returns each point's first
    coordinate, so a swarm at rest feels a pull again; it returns one reused
    array, whose bits change under a result kept by reference. "list" is
    Schwefel as a Python list; "nan" puts a NaN in call ``bump_call`` of
    Schwefel, and "column" returns that call as an (m, 1) column of the same
    bits.
    """
    batches, out = [], []

    def func(x):
        batches.append(x.copy())
        call = len(batches) - 1
        if kind == "flat":
            return np.zeros(len(x))
        if kind == "impure":
            if not out:
                out.append(np.empty(len(x)))
            out[0][:] = x[:, 0] if call == bump_call else 0.0
            return out[0]
        values = schwefel226(x)
        if kind == "levels":
            return np.round(values / 200.0) * 200.0
        if kind == "nan" and call == bump_call:
            values[0] = np.nan
        if kind == "column" and call == bump_call:
            return values[:, None]
        return values.tolist() if kind == "list" else values

    return func, batches


@settings(max_examples=250, deadline=None)
@given(n_probes=st.integers(1, 8), n_dims=st.integers(1, 10), n_steps=st.integers(0, 8),
       space_kind=st.sampled_from(["cube", "per-axis", "rounding"]),
       start=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0),
                       st.integers(0, 2**32 - 1)),
       floor=st.one_of(st.just(-np.inf), st.floats(-1000.0, 1000.0)),
       kind=st.sampled_from(["schwefel", "levels", "flat", "impure", "list", "nan", "column"]),
       bump_call=st.integers(1, 8))
def test_every_step_and_resting_step_of_a_drawn_search_matches_a_reference_step(
        n_probes, n_dims, n_steps, space_kind, start, floor, kind, bump_call):
    # Each step against one reference step from the library's previous one:
    # a moved coordinate within 1e-12 * (sum_k w_pk (|R_k| + |R_p|) + |R_p|),
    # a resting step and every fitness bit for bit (see _checked_search). A
    # random start (an integer seed here) spreads the probes; a probe line
    # with N < 2D puts every probe on one point, so every step from 2 on
    # rests. From D = 8 the kernel takes the Gram form. A NaN or a column
    # answer ends the search at its step, after batches that a Schwefel
    # search's steps match. A search that keeps two steps, without a
    # recorded history, gives the recorded search's result bit for bit.
    if space_kind == "per-axis":
        lower = -np.arange(1.0, n_dims + 1)
        space = DecisionSpace(lower, lower + 2.0 * np.arange(1, n_dims + 1))
    else:
        space = DecisionSpace.cube(n_dims, *(_ROUNDING_BOUNDS if space_kind == "rounding"
                                             else (-500.0, 500.0)))
    params = CfoParams(n_probes, n_steps)
    func, batches = _drawn_objective(kind, bump_call)
    if kind not in ("nan", "column") or bump_call > n_steps:
        result, _ = _checked_search(params, space, func, start, floor)
        streamed, history = run_cfo(params, ObjectiveSpec(_drawn_objective(kind, bump_call)[0],
                                                          space), _begin(start), floor)
        assert history is None and _result_bits(streamed) == _result_bits(result)
        return
    with pytest.raises(ValueError, match=f"^step {bump_call}: "):
        run_cfo(params, ObjectiveSpec(func, space), _begin(start), floor)
    _, history = _checked_search(params, space, schwefel226, start, floor)
    assert ([batch.tobytes() for batch in batches]
            == [history.positions[:, :, j].tobytes() for j in range(bump_call + 1)])


# ----- best/worst scans -----

def test_scan_best_unique_max():
    hist = SwarmHistory.allocate(2, 1, 1)
    hist.fitness[:] = [[1.0, 3.0], [2.0, 0.0]]
    assert scan_best(hist, 1) == (3.0, 0, 1)
    assert scan_worst(hist, 1) == (0.0, 1, 1)


def test_scan_later_ties_win():
    hist = SwarmHistory.allocate(3, 1, 2)
    hist.fitness[:] = 4.0
    assert scan_best(hist, 2) == (4.0, 2, 2)
    assert scan_worst(hist, 2) == (4.0, 2, 2)
    # restricting the window moves the winning index back
    assert scan_best(hist, 1) == (4.0, 2, 1)


def test_scan_single_cell():
    hist = SwarmHistory.allocate(1, 1, 0)
    hist.fitness[0, 0] = -2.5
    assert scan_best(hist, 0) == (-2.5, 0, 0)
    assert scan_worst(hist, 0) == (-2.5, 0, 0)


def test_scan_order_is_step_major():
    # same value at (probe 2, step 0) and (probe 0, step 1): the step-1 cell
    # is visited later in the step-major scan, so it wins
    hist = SwarmHistory.allocate(3, 1, 1)
    hist.fitness[:] = [[0.0, 9.0], [1.0, 2.0], [9.0, 3.0]]
    assert scan_best(hist, 1) == (9.0, 0, 1)


def test_a_search_keeps_the_later_tie_and_the_sign_of_the_last_zero():
    # Step 1's best ties step 0's, and each row's worst is a zero: the
    # step-major scans take the later tie and the last zero's sign. np.min
    # need not give that sign: of step 1's nine values it gave +0.0 on a
    # 2-vCPU Xeon with numpy 2.4.6
    rows = [[0.0] * 8 + [2.0], [2.0] + [0.0] * 7 + [-0.0]]
    answers = iter(np.array(row) for row in rows)
    objective = ObjectiveSpec(lambda x: next(answers), DecisionSpace.cube(1, -1.0, 1.0))
    result, _ = run_cfo(CfoParams(9, 1), objective, 0.5)
    best, probe, step = ref.scan_best(rows)
    assert (result.best_probe, result.best_step) == (probe, step) == (0, 1)
    assert (_bits([result.best_value, result.worst_value])
            == _bits([best, ref.scan_worst(rows)[0]]) == _bits([2.0, -0.0]))


# ----- whole runs -----

def test_run_cfo_eval_count():
    obj = make_objective("schwefel226", 2)
    result, _ = run_cfo(CfoParams(n_probes=4, n_steps=25), obj, 0.5)
    assert result.evals_used == 104 == (25 + 1) * 4
    assert obj.eval_count == 104


def test_run_cfo_eval_count_random_configs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n_probes = int(rng.integers(1, 9))
        n_steps = int(rng.integers(0, 7))
        obj = make_objective("schwefel226", int(rng.integers(1, 4)))
        result, _ = run_cfo(CfoParams(n_probes=n_probes, n_steps=n_steps), obj,
                            float(rng.uniform()))
        assert result.evals_used == (n_steps + 1) * n_probes


def test_run_cfo_zero_steps_returns_ipd_best():
    obj = make_objective("schwefel226", 2)
    params = CfoParams(n_probes=4, n_steps=0)
    result, hist = _recorded(params, obj, 0.5)
    expected = obj.evaluate_batch(_HAND_TRACE_2D)
    assert result.best_value == expected.max()
    assert result.evals_used == 4
    assert np.array_equal(hist.positions[:, :, 0], _HAND_TRACE_2D)


def test_run_cfo_probe_line_bit_reproducible():
    params = CfoParams(n_probes=6, n_steps=12)
    result_a, hist_a = _recorded(params, make_objective("schwefel226", 2), 0.3)
    result_b, hist_b = _recorded(params, make_objective("schwefel226", 2), 0.3)
    assert np.array_equal(hist_a.positions, hist_b.positions)
    assert np.array_equal(hist_a.fitness, hist_b.fitness)
    assert np.array_equal(result_a.best_coords, result_b.best_coords)
    assert result_a.best_value == result_b.best_value
    assert result_a.worst_value == result_b.worst_value
    assert (result_a.best_probe, result_a.best_step) == (result_b.best_probe, result_b.best_step)


def test_probe_line_search_without_spread_never_moves(monkeypatch):
    # 40 probes at D = 30 make fewer than two per axis: every probe starts on
    # the diagonal point, so every step's fitness field is flat, and its
    # accelerations are (N, D) zeros that leave each step's positions those
    # of the start, bit for bit
    accels = []

    def recording_kernel(history, j, params):
        accels.append(compute_accelerations(history, j, params))
        return accels[-1]

    monkeypatch.setattr(dtopt.cfo, "compute_accelerations", recording_kernel)
    _, hist = _recorded(CfoParams(n_probes=40, n_steps=6), make_objective("schwefel226", 30), 0.3)
    assert len(accels) == 6
    for accel in accels:
        assert accel.shape == (40, 30) and accel.dtype == np.float64
        assert not accel.any()
    start = hist.positions[:, :, 0]
    assert (start == start[0]).all()
    for j in range(1, 7):
        assert hist.positions[:, :, j].tobytes() == start.tobytes()


def test_run_cfo_random_seed_reproducible():
    params = CfoParams(n_probes=5, n_steps=10)
    _, hist_a = _recorded(params, make_objective("schwefel226", 2), np.random.default_rng(77))
    _, hist_b = _recorded(params, make_objective("schwefel226", 2), np.random.default_rng(77))
    assert np.array_equal(hist_a.positions, hist_b.positions)
    assert np.array_equal(hist_a.fitness, hist_b.fitness)
    start = ref.start(5, [-500.0] * 2, [500.0] * 2, np.random.default_rng(77))
    assert hist_a.positions[:, :, 0].tobytes() == _bits(start)


@pytest.mark.parametrize("start", [0.5, "random"])
def test_floored_search_stays_above_the_floor_in_bounds_and_repeats(start):
    # T = 0 floors about half of 2-D Schwefel. Each step evaluates every probe
    # once, a probe-line search draws nothing, and a random search draws only
    # its start, so two searches from the same start repeat every value
    params = CfoParams(n_probes=8, n_steps=6)
    space = DecisionSpace.cube(2, -500.0, 500.0)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(8)
        result, hist = _recorded(params, make_objective("schwefel226", 2),
                                 0.5 if start == 0.5 else rng, 0.0)
        assert result.evals_used == 7 * 8
        assert np.all(hist.fitness >= 0.0) and np.any(hist.fitness == 0.0)
        assert np.all((hist.positions >= space.lower[None, :, None])
                      & (hist.positions <= space.upper[None, :, None]))
        runs.append((result, hist, rng))
    (_, hist_a, rng_a), (_, hist_b, _) = runs
    assert np.array_equal(hist_a.positions, hist_b.positions)
    assert np.array_equal(hist_a.fitness, hist_b.fitness)
    expected = np.random.default_rng(8)
    if start != 0.5:
        expected.uniform(space.lower, space.upper, size=(8, 2))
    assert rng_a.bit_generator.state == expected.bit_generator.state


def test_run_cfo_history_stays_in_bounds():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_dims = int(rng.integers(1, 4))
        obj = make_objective("schwefel226", n_dims)
        params = CfoParams(n_probes=int(rng.integers(2, 7)), n_steps=int(rng.integers(1, 9)))
        _, hist = _recorded(params, obj, np.random.default_rng(int(rng.integers(0, 2**32))))
        assert np.all(hist.positions >= obj.space.lower[None, :, None])
        assert np.all(hist.positions <= obj.space.upper[None, :, None])


def test_run_cfo_result_provenance():
    obj = make_objective("schwefel226", 2)
    params = CfoParams(n_probes=4, n_steps=8)
    result, hist = _recorded(params, obj, 0.7)
    assert result.best_value == hist.fitness[result.best_probe, result.best_step]
    assert result.worst_value == hist.fitness.min()
    assert result.best_value >= result.worst_value
    assert np.array_equal(result.best_coords,
                          hist.positions[result.best_probe, :, result.best_step])
    # step 0 does not accelerate, so the first move leaves every probe in place
    assert np.array_equal(hist.positions[:, :, 1], hist.positions[:, :, 0])


def test_cfo_params_defaults():
    # parameter-free CFO: G, dt, alpha, beta and the first retrieval factor are fixed
    assert [f.name for f in dataclasses.fields(CfoParams)] == ["n_probes", "n_steps"]


@pytest.mark.parametrize("n_probes, n_steps, field", [
    (4.0, 2, "n_probes"), ("4", 2, "n_probes"), (4, 2.0, "n_steps"), (4, None, "n_steps"),
    (True, 2, "n_probes"), (4, False, "n_steps"),
])
def test_cfo_params_rejects_counts_that_are_not_integers(n_probes, n_steps, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        CfoParams(n_probes, n_steps)


def test_cfo_params_accepts_numpy_integers():
    assert CfoParams(np.int64(4), np.int32(2)) == CfoParams(4, 2)


def test_probe_line_holds_the_gamma_sweep():
    assert ProbeLine().gammas == DEFAULT_GAMMA_SWEEP
    assert DEFAULT_GAMMA_SWEEP == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert ProbeLine((0.3,)).gammas == (0.3,)
    with pytest.raises(ValueError, match="non-empty"):
        ProbeLine(())
    for gammas in ((0.0, 1.5), (-0.1,), (float("nan"),)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbeLine(gammas)


@pytest.mark.parametrize("gammas", [0.3, 0.0, [0.3], "0.3", ("0.3",), (None,), (True, 0.5)],
                         ids=["float", "zero", "list", "str", "tuple_of_str", "tuple_of_none",
                              "tuple_with_bool"])
def test_probe_line_rejects_gammas_that_are_not_a_tuple_of_numbers(gammas):
    with pytest.raises(ValueError, match="^gammas must be a tuple of numbers"):
        ProbeLine(gammas)


# A bool, a str or None is no gamma, and a generator is the only other start
@pytest.mark.parametrize("gamma", [-0.1, 1.5, float("nan"), True, "0.5", None])
def test_run_cfo_rejects_gamma_outside_unit_interval(gamma):
    obj = make_objective("schwefel226", 2)
    with pytest.raises(ValueError, match=rf"^gamma must be a number in \[0, 1\], got {gamma!r}$"):
        run_cfo(CfoParams(n_probes=4, n_steps=2), obj, gamma)
    assert obj.eval_count == 0


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_run_cfo_rejects_a_nan_or_plus_inf_threshold(t):
    # before, NaN ran to a NaN best and +inf to an infinite one
    obj = make_objective("schwefel226", 2)
    with pytest.raises(ValueError, match=r"^threshold must not be NaN or \+inf"):
        run_cfo(CfoParams(n_probes=4, n_steps=2), obj, 0.5, t)
    assert obj.eval_count == 0


# Every attribute a search reads of an ObjectiveSpec, but none of its checks
_DUCK = SimpleNamespace(space=DecisionSpace.cube(2, -1.0, 1.0), eval_count=0,
                        evaluate_batch=lambda x: np.zeros(len(x)))


@pytest.mark.parametrize("params, objective, field", [
    (None, make_objective("schwefel226", 2), "params"),
    ((4, 2), make_objective("schwefel226", 2), "params"),
    (CfoParams(4, 2), lambda x: x, "objective"),
    (CfoParams(4, 2), None, "objective"),
    (CfoParams(4, 2), _DUCK, "objective"),
], ids=["params_none", "params_tuple", "objective_function", "objective_none",
        "objective_duck"])
def test_run_cfo_rejects_params_and_objectives_of_the_wrong_kind(params, objective, field):
    # before, the first four ended in a bare AttributeError inside the search,
    # and the duck ran unchecked
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        run_cfo(params, objective, 0.5)


def test_nan_probe_positions_raise_before_the_objective_sees_them():
    # Fitness gaps of 3e308 overflow the kernel, two probes move to NaN
    # positions, and this objective would return a finite value for them
    obj = ObjectiveSpec(lambda x: np.where(x[:, 0] > 0, 1.5e308, -1.5e308),
                        DecisionSpace.cube(2, -1.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^step 2: 2 of 4 probe positions became "
                                             r"non-finite .* overflowed"):
            run_cfo(CfoParams(4, 3), obj, np.random.default_rng(1))
    assert obj.eval_count == 2 * 4


def test_probes_extremely_close_together_overflow_the_kernel():
    # Fitness gaps of about 1 over squared distances of about 1e-320: no gap
    # is large, yet the weight overflows, and the message names both causes
    obj = ObjectiveSpec(lambda x: x.sum(axis=1) * 1e160,
                        DecisionSpace([0.0, 0.0], [3e-160, 3e-160]))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^step 2: 7 of 8 probe positions became "
                                             r"non-finite .* overflowed: a squared fitness gap "
                                             r"over a squared distance .*extremely close"):
            run_cfo(CfoParams(8, 5), obj, np.random.default_rng(1))
    assert obj.eval_count == 2 * 8
