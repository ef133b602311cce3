import dataclasses

import numpy as np
import pytest

from dtopt.cfo import CfoParams, run_cfo
from dtopt.floorscan import sample_threshold_floor
from dtopt.objectives import make_objective
from dtopt.report import render_surface
from dtopt.threshold import LinearRamp, ThresholdState, apply_threshold


def test_apply_threshold_branches():
    assert apply_threshold(5.0, ThresholdState(t_current=3.0)) == 5.0
    assert apply_threshold(2.0, ThresholdState(t_current=3.0)) == 3.0
    assert apply_threshold(3.0, ThresholdState(t_current=3.0)) == 3.0


def test_default_state_returns_finite_values_bit_for_bit():
    f_vals = np.array([-0.0, 0.0, -123.0, 5e-324, -1e308, 1e308, -1e300, 2e300])
    floored = apply_threshold(f_vals, ThresholdState())
    assert floored.tobytes() == f_vals.tobytes()
    assert np.signbit(apply_threshold(-0.0, ThresholdState()))


def test_apply_threshold_equals_max_on_random_pairs():
    rng = np.random.default_rng(5)
    f_vals = rng.uniform(-1e6, 1e6, size=100_000)
    t_vals = rng.uniform(-1e6, 1e6, size=100_000)
    for f, t in zip(f_vals[:2000], t_vals[:2000]):
        assert apply_threshold(f, ThresholdState(t_current=t)) == max(f, t)
    # vectorized form agrees too
    state = ThresholdState(t_current=0.0)
    state.t_current = 123.456
    assert np.array_equal(apply_threshold(f_vals, state), np.maximum(f_vals, 123.456))


def test_argmax_preserved_below_max():
    rng = np.random.default_rng(9)
    for _ in range(200):
        sample = rng.uniform(-100, 100, size=rng.integers(2, 50))
        t = sample.max() - rng.uniform(1e-6, 50)
        state = ThresholdState(t_current=t)
        floored = np.array([apply_threshold(v, state) for v in sample])
        assert int(np.argmax(floored)) == int(np.argmax(sample))


def _linear(c_th, k, num_passes, state):
    # LinearRamp ignores the pass best; pass one that would change any result
    return LinearRamp(c_th).next_threshold(k, num_passes, state, pass_best=1e6)


def test_linear_update_examples():
    state = ThresholdState(f_star=800.0, f_min=-1000.0)
    assert _linear(0.98, 1, 10, state) == pytest.approx(-823.6, abs=1e-9)

    state = ThresholdState(f_star=100.0, f_min=0.0)
    assert _linear(0.6, 3, 6, state) == pytest.approx(30.0, abs=1e-12)


def test_linear_update_over_a_range_beyond_the_largest_float():
    # F* - F_min overflows to +inf; the convex form stays inside [F_min, F*]
    state = ThresholdState(f_star=1.5e308, f_min=-1.5e308)
    thresholds = [_linear(0.6, k, 3, state) for k in (1, 2, 3)]
    assert thresholds == pytest.approx([-9.0e307, -3.0e307, 3.0e307], rel=1e-12)
    state = ThresholdState(f_star=np.finfo(float).max, f_min=-np.finfo(float).max)
    assert _linear(1.0, 1, 1, state) == np.finfo(float).max
    # a finite range keeps the F_min + c * (F* - F_min) form bit for bit
    state = ThresholdState(f_star=0.3, f_min=-0.7)
    assert _linear(0.6, 1, 3, state) == -0.7 + (0.6 * 1 / 3) * (0.3 - -0.7)


def test_linear_update_zero_range_collapses():
    state = ThresholdState(f_star=42.5, f_min=42.5)
    for k in range(1, 6):
        assert _linear(0.7, k, 5, state) == 42.5


def test_linear_update_requires_completed_pass():
    state = ThresholdState()
    with pytest.raises(RuntimeError):
        _linear(0.5, 1, 4, state)
    state.f_star = 10.0  # f_min still at its +inf start
    with pytest.raises(RuntimeError):
        _linear(0.5, 1, 4, state)
    state.f_min = 0.0
    with pytest.raises(ValueError):
        _linear(0.5, 0, 4, state)


@pytest.mark.parametrize("num_passes", [0, -1, 2.0, True, "4", None])
def test_linear_update_rejects_a_pass_count_that_is_not_a_positive_integer(num_passes):
    # num_passes = 0 divided by zero, unnamed
    state = ThresholdState(f_star=1.0, f_min=0.0)
    with pytest.raises(ValueError,
                       match=rf"^num_passes must be an integer >= 1, got {num_passes!r}$"):
        _linear(0.5, 1, num_passes, state)


@pytest.mark.parametrize("k", [0, 5, 3.0, True, None])
def test_linear_update_rejects_a_pass_index_outside_the_passes(k):
    # k = 5 of 2 passes returned 1.25 at c_th 0.5, above F* = 1 and past the cap
    state = ThresholdState(f_star=1.0, f_min=0.0)
    with pytest.raises(ValueError, match=r"^pass index k must be an integer in "
                                         rf"\[1, num_passes = 2\], got {k!r}$"):
        _linear(0.5, k, 2, state)
    assert _linear(0.5, 2, 2, state) == 0.5


def test_linear_update_constant_spacing_when_frozen():
    state = ThresholdState(f_star=837.9658, f_min=-574.94)
    thresholds = [_linear(0.98, k, 10, state) for k in range(1, 11)]
    diffs = np.diff(thresholds)
    expected = 0.98 * (state.f_star - state.f_min) / 10
    assert np.all(np.abs(diffs - expected) <= 1e-12 * abs(expected))
    assert np.all(diffs > 0)  # strictly increasing while f_star > f_min


def test_linear_cap_below_peak():
    # with c_th < 1 the floor never reaches the best fitness
    state = ThresholdState(f_star=837.9658, f_min=-962.0)
    assert _linear(0.98, 10, 10, state) < state.f_star


def test_initial_state():
    state = ThresholdState()
    assert [f.name for f in dataclasses.fields(ThresholdState)] == [
        "t_current", "f_star", "f_min"]
    assert (state.t_current, state.f_star, state.f_min) == (-np.inf, -np.inf, np.inf)
    assert not state.enabled
    assert ThresholdState(t_current=-1e308).enabled
    with pytest.raises(AttributeError):
        state.enabled = True


def test_linear_ramp_validation():
    with pytest.raises(ValueError):
        LinearRamp(c_th=0.0)
    with pytest.raises(ValueError):
        LinearRamp(c_th=1.2)
    assert [f.name for f in dataclasses.fields(LinearRamp)] == ["c_th"]


@pytest.mark.parametrize("c_th", [True, "0.5", None, float("nan")])
def test_linear_ramp_rejects_a_c_th_that_is_not_a_number_in_range(c_th):
    with pytest.raises(ValueError, match=rf"^c_th must be a number in \(0, 1\], got {c_th!r}$"):
        LinearRamp(c_th)


# ----- the threshold check -----

@pytest.mark.parametrize("t", ["1", None])
@pytest.mark.parametrize("entry", ["run_cfo", "sample_threshold_floor", "render_surface"])
def test_a_threshold_that_is_not_a_number_is_named(entry, t):
    # before, each entry point ended in numpy's bare TypeError from isnan
    objective = make_objective("schwefel226", 2)
    calls = {
        "run_cfo": lambda: run_cfo(CfoParams(4, 2), objective, 0.5, ThresholdState(t_current=t)),
        "sample_threshold_floor": lambda: sample_threshold_floor(objective.func, objective.space,
                                                                 t, 100),
        "render_surface": lambda: render_surface(objective.func, objective.space, t),
    }
    with pytest.raises(ValueError, match=rf"^threshold must be a number, got {t!r}$"):
        calls[entry]()
    assert objective.eval_count == 0


@pytest.mark.parametrize("entry", ["run_cfo", "sample_threshold_floor", "render_surface"])
def test_an_integer_threshold_floors_as_its_float(entry):
    # numpy floors at 10**30 as at 1e30; before, the check ended in numpy's
    # bare TypeError from isnan
    objective = make_objective("schwefel226", 2)
    calls = {
        "run_cfo": lambda t: run_cfo(CfoParams(4, 2), objective, 0.5,
                                     ThresholdState(t_current=t))[0].best_value,
        "sample_threshold_floor": lambda t: sample_threshold_floor(
            objective.func, objective.space, t, 10).n_on_floor,
        "render_surface": lambda t: render_surface(objective.func, objective.space, t),
    }
    assert calls[entry](10**30) == calls[entry](1e30)


@pytest.mark.parametrize("t", [10**400, -10**400], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("entry", ["run_cfo", "sample_threshold_floor", "render_surface"])
def test_an_integer_threshold_beyond_the_float_range_is_named(entry, t):
    objective = make_objective("schwefel226", 2)
    calls = {
        "run_cfo": lambda: run_cfo(CfoParams(4, 2), objective, 0.5, ThresholdState(t_current=t)),
        "sample_threshold_floor": lambda: sample_threshold_floor(objective.func, objective.space,
                                                                 t, 100),
        "render_surface": lambda: render_surface(objective.func, objective.space, t),
    }
    with pytest.raises(ValueError, match=r"^threshold must not be NaN or \+inf \(-inf is no "
                                         r"floor\), got a number beyond the float range$"):
        calls[entry]()
    assert objective.eval_count == 0
