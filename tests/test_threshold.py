import dataclasses
import re

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
    state = ThresholdState(t_current=123.456)
    assert np.array_equal(apply_threshold(f_vals, state), np.maximum(f_vals, 123.456))


def test_argmax_preserved_below_max():
    rng = np.random.default_rng(9)
    for _ in range(200):
        sample = rng.uniform(-100, 100, size=rng.integers(2, 50))
        t = sample.max() - rng.uniform(1e-6, 50)
        state = ThresholdState(t_current=t)
        floored = np.array([apply_threshold(v, state) for v in sample])
        assert int(np.argmax(floored)) == int(np.argmax(sample))


def _linear(c_th, k, num_passes, f_star, f_min):
    # LinearRamp ignores the pass best; pass one that would change any result
    return LinearRamp(c_th).next_threshold(k, num_passes, f_star, f_min, pass_best=1e6)


def test_linear_update_examples():
    assert _linear(0.98, 1, 10, 800.0, -1000.0) == pytest.approx(-823.6, abs=1e-9)
    assert _linear(0.6, 3, 6, 100.0, 0.0) == pytest.approx(30.0, abs=1e-12)


def test_linear_update_over_a_range_beyond_the_largest_float():
    # F* - F_min overflows to +inf; the convex form stays inside [F_min, F*]
    thresholds = [_linear(0.6, k, 3, 1.5e308, -1.5e308) for k in (1, 2, 3)]
    assert thresholds == pytest.approx([-9.0e307, -3.0e307, 3.0e307], rel=1e-12)
    largest = np.finfo(float).max
    assert _linear(1.0, 1, 1, largest, -largest) == largest
    # a finite range keeps the F_min + c * (F* - F_min) form bit for bit
    assert _linear(0.6, 1, 3, 0.3, -0.7) == -0.7 + (0.6 * 1 / 3) * (0.3 - -0.7)


def test_linear_update_zero_range_collapses():
    for k in range(1, 6):
        assert _linear(0.7, k, 5, 42.5, 42.5) == 42.5


def test_linear_update_requires_completed_pass():
    # Before a completed pass F* and F_min are at their -inf and +inf starts.
    # Before, those raised RuntimeError, and None or "1" numpy's bare TypeError
    for bad in (-np.inf, np.inf, np.nan, None, "1", True, 10**400):
        got = re.escape(repr(bad))
        for name, args in (("f_star", (bad, 0.0)), ("f_min", (10.0, bad))):
            with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got {got}$"):
                _linear(0.5, 1, 4, *args)
    assert _linear(0.5, 1, 4, 10, np.float64(0.0)) == 1.25
    with pytest.raises(ValueError):
        _linear(0.5, 0, 4, 10.0, 0.0)


@pytest.mark.parametrize("num_passes", [0, -1, 2.0, True, "4", None])
def test_linear_update_rejects_a_pass_count_that_is_not_a_positive_integer(num_passes):
    # num_passes = 0 divided by zero, unnamed
    with pytest.raises(ValueError,
                       match=rf"^num_passes must be an integer >= 1, got {num_passes!r}$"):
        _linear(0.5, 1, num_passes, 1.0, 0.0)


@pytest.mark.parametrize("k", [0, 5, 3.0, True, None])
def test_linear_update_rejects_a_pass_index_outside_the_passes(k):
    # k = 5 of 2 passes returned 1.25 at c_th 0.5, above F* = 1 and past the cap
    with pytest.raises(ValueError, match=r"^pass index k must be an integer in "
                                         rf"\[1, num_passes = 2\], got {k!r}$"):
        _linear(0.5, k, 2, 1.0, 0.0)
    assert _linear(0.5, 2, 2, 1.0, 0.0) == 0.5


def test_linear_update_constant_spacing_when_frozen():
    f_star, f_min = 837.9658, -574.94
    thresholds = [_linear(0.98, k, 10, f_star, f_min) for k in range(1, 11)]
    diffs = np.diff(thresholds)
    expected = 0.98 * (f_star - f_min) / 10
    assert np.all(np.abs(diffs - expected) <= 1e-12 * abs(expected))
    assert np.all(diffs > 0)  # strictly increasing while f_star > f_min


def test_linear_cap_below_peak():
    # with c_th < 1 the floor never reaches the best fitness
    assert _linear(0.98, 10, 10, 837.9658, -962.0) < 837.9658


def test_initial_state():
    # the floor is the state's one value; F* and F_min are the run's own
    state = ThresholdState()
    assert [f.name for f in dataclasses.fields(ThresholdState)] == ["t_current"]
    assert state.t_current == -np.inf
    assert not state.enabled
    assert ThresholdState(t_current=-1e308).enabled
    with pytest.raises(AttributeError):
        state.enabled = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t_current = 0.0


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

def _floor_name(entry):
    # run_cfo's floor is refused when its ThresholdState is built, under its field
    return "t_current" if entry == "run_cfo" else "threshold"


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
    with pytest.raises(ValueError, match=rf"^{_floor_name(entry)} must be a number, got {t!r}$"):
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
    with pytest.raises(ValueError, match=rf"^{_floor_name(entry)} must not be NaN or \+inf "
                                         r"\(-inf is no floor\), got a number beyond the float "
                                         r"range$"):
        calls[entry]()
    assert objective.eval_count == 0
