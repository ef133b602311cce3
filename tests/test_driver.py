import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import paper_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtopt.cfo import CfoParams, ProbeLine, RandomUniform, run_cfo
from dtopt.driver import DtoConfig, run_dto
from dtopt.objectives import DecisionSpace, ObjectiveSpec, make_objective, schwefel226
from dtopt.report import ExperimentConfig, render_passes_csv, render_summary, to_dto_config
from dtopt.threshold import LinearRamp


class _FollowBest:
    """A follow-the-best schedule, as README defines it: each threshold is the
    best fitness of the pass just completed."""

    def next_threshold(self, k, num_passes, f_star, f_min, pass_best):
        return pass_best


def expected_evals(runs_per_pass, n_steps, probe_counts):
    """Closed-form evaluation-site count, independent of the driver."""
    return runs_per_pass * (n_steps + 1) * sum(probe_counts)


def _checked_run(config):
    """run_dto's report, checked bit for bit against the reference pass loop
    over run_cfo searches, and per search of that loop, in order, the
    threshold it ran under, its result and its history. The loop's searches
    run on their own ObjectiveSpec of the config's function and space."""
    report = run_dto(config)
    objective = ObjectiveSpec(config.objective.func, config.objective.space)
    searches = []

    def search(n_probes, start, threshold):
        result, history = run_cfo(replace(config.cfo, n_probes=n_probes), objective, start,
                                  threshold, record=True)
        searches.append((threshold, result, history))
        return result.best_value, result.best_coords, result.worst_value, result.evals_used

    if isinstance(config.ipd, ProbeLine):
        starts = config.ipd.gammas
    else:
        starts = [np.random.default_rng(config.ipd.seed)]
    if isinstance(config.schedule, LinearRamp):
        schedule = dict(c_th=config.schedule.c_th)
    else:
        schedule = dict(next_threshold=config.schedule.next_threshold)
    reference = ref.run_passes(search, starts, config.num_passes, config.cfo.n_probes,
                               doubling=config.probe_doubling, **schedule)
    assert repr(ref.as_run(report)) == repr(reference)
    assert objective.eval_count == report.total_evals
    return report, searches


def _probe_line_config(num_passes=3, np0=2, nt=3, gammas=(0.0, 0.5, 1.0),
                       n_dims=2, c_th=0.6, doubling=True):
    return DtoConfig(
        num_passes=num_passes,
        schedule=LinearRamp(c_th=c_th),
        cfo=CfoParams(n_probes=np0, n_steps=nt),
        objective=make_objective("schwefel226", n_dims),
        ipd=ProbeLine(gammas),
        probe_doubling=doubling,
    )


def _random_config(num_passes=4, np0=3, nt=2, seed=5, c_th=0.9):
    return DtoConfig(
        num_passes=num_passes,
        schedule=LinearRamp(c_th=c_th),
        cfo=CfoParams(n_probes=np0, n_steps=nt),
        objective=make_objective("schwefel226", 2),
        ipd=RandomUniform(seed=seed),
    )


def test_paper_call_totals_closed_form():
    assert expected_evals(11, 15, [4 * 2**k for k in range(6)]) == 44_352
    assert expected_evals(1, 25, [4 * 2**k for k in range(10)]) == 106_392


def test_probe_line_run_matches_eval_oracle():
    config = _probe_line_config(num_passes=3, np0=2, nt=3, gammas=(0.0, 0.5, 1.0))
    report = run_dto(config)
    assert report.total_evals == expected_evals(3, 3, [2, 4, 8])


def test_random_run_matches_eval_oracle():
    config = _random_config(num_passes=4, np0=3, nt=2)
    report = run_dto(config)
    assert report.total_evals == expected_evals(1, 2, [3, 6, 12, 24])


def test_no_doubling_keeps_probe_count():
    config = _probe_line_config(num_passes=3, np0=4, nt=2, doubling=False)
    report = run_dto(config)
    assert report.total_evals == expected_evals(3, 2, [4, 4, 4])


def test_single_pass_equals_plain_cfo():
    config = _probe_line_config(num_passes=1, np0=4, nt=5, gammas=(0.4,), c_th=0.5)
    report = run_dto(config)
    result, _ = run_cfo(CfoParams(n_probes=4, n_steps=5), make_objective("schwefel226", 2), 0.4)
    assert report.best_value == result.best_value
    assert np.array_equal(report.best_coords, result.best_coords)
    assert report.total_evals == result.evals_used
    assert len(report.passes) == 1
    assert report.passes[0].threshold == -np.inf


def test_pass_records_shape():
    config = _probe_line_config(num_passes=4, np0=2, nt=2)
    report = run_dto(config)
    assert len(report.passes) == 4
    assert report.passes[0].threshold == -np.inf
    assert all(isinstance(rec.threshold, float) for rec in report.passes)
    assert all(np.isfinite(rec.threshold) for rec in report.passes[1:])
    assert [rec.pass_index for rec in report.passes] == [1, 2, 3, 4]
    cumulative = [rec.cumulative_evals for rec in report.passes]
    assert cumulative == sorted(cumulative)
    assert report.total_evals == cumulative[-1]
    assert report.best_value == max(rec.best_fitness for rec in report.passes)


def test_best_overall_monotone_across_invocations():
    config = _probe_line_config(num_passes=3, np0=4, nt=4)
    report, searches = _checked_run(config)
    seen = [result.best_value for _, result, _ in searches]
    running = np.maximum.accumulate(seen)
    assert report.best_value == running[-1]
    # the reported per-pass best is the max over that pass's sweep
    per_pass = np.array(seen).reshape(3, len(config.ipd.gammas))
    for rec, row in zip(report.passes, per_pass):
        assert rec.best_fitness == row.max()


def test_thresholded_passes_respect_floor():
    floors_checked = 0
    for config in (_probe_line_config(num_passes=4, np0=4, nt=3),
                   _random_config(num_passes=4, np0=4, nt=3)):
        for threshold, _, history in _checked_run(config)[1]:
            assert history.fitness.min() >= threshold
            floors_checked += threshold > -np.inf
    assert floors_checked > 0


def test_thresholds_rise_with_linear_ramp():
    config = _random_config(num_passes=5, np0=4, nt=4, seed=8, c_th=0.8)
    report = run_dto(config)
    thresholds = [rec.threshold for rec in report.passes[1:]]
    # monotone non-decreasing: the range can only widen and k/P grows
    assert all(b >= a - 1e-9 for a, b in zip(thresholds, thresholds[1:]))


def test_follow_the_best_schedule_pins_threshold_to_pass_best():
    config = DtoConfig(
        num_passes=3,
        schedule=_FollowBest(),
        cfo=CfoParams(n_probes=4, n_steps=3),
        objective=make_objective("schwefel226", 2),
        ipd=ProbeLine((0.25, 0.75)),
    )
    report = run_dto(config)
    assert report.passes[1].threshold == report.passes[0].best_fitness
    assert report.passes[2].threshold == report.passes[1].best_fitness


class _NoFloorRecorder:
    """A schedule that never floors and records what each call is handed."""

    def __init__(self):
        self.calls = []

    def next_threshold(self, k, num_passes, f_star, f_min, pass_best):
        self.calls.append((k, num_passes, pass_best, f_star))
        return -np.inf


def test_a_schedule_gets_each_pass_best_not_the_run_best():
    # Without a floor a later pass can end below an earlier one: seed 6's
    # passes 2 and 4 do, so the pass best and the run-wide best differ there
    schedule = _NoFloorRecorder()
    config = replace(_random_config(num_passes=4, np0=3, nt=2, seed=6), schedule=schedule)
    report = run_dto(config)
    assert [call[:2] for call in schedule.calls] == [(k, 4) for k in range(1, 5)]
    assert [call[2] for call in schedule.calls] == [rec.best_fitness for rec in report.passes]
    assert any(pass_best < f_star for _, _, pass_best, f_star in schedule.calls)
    assert [rec.threshold for rec in report.passes] == [-np.inf] * 4


class _Returns:
    """A schedule whose every threshold is one given value."""

    def __init__(self, value):
        self.value = value

    def next_threshold(self, k, num_passes, f_star, f_min, pass_best):
        return self.value


@pytest.mark.parametrize("value, message", [
    (np.nan, "must not be NaN or +inf (-inf is no floor), got nan"),
    (np.inf, "must not be NaN or +inf (-inf is no floor), got inf"),
    ("1", "must be a number, got '1'"),
    (None, "must be a number, got None"),
], ids=["nan", "inf", "str", "none"])
def test_a_schedule_threshold_that_is_no_floor_is_refused_where_it_is_made(value, message):
    # before, pass 2's first search refused it and was blamed for it
    config = replace(_probe_line_config(num_passes=2, np0=2, nt=3), schedule=_Returns(value))
    with pytest.raises(ValueError, match=rf"^schedule _Returns after pass 1: threshold "
                                         rf"{re.escape(message)}$"):
        run_dto(config)
    assert config.objective.eval_count == expected_evals(3, 3, [2])


class _Sneaky:
    """A schedule that sets the best fitness of anything it is handed to 1e9."""

    def next_threshold(self, *args):
        for arg in args:
            if hasattr(arg, "f_star"):
                arg.f_star = 1e9
        return -np.inf


def test_a_schedule_cannot_change_the_run_record():
    # before, a schedule got the run's mutable state, and one that set its
    # f_star to 1e9 made the run report a best of 1e9 on a ramp whose maximum is 1
    report = run_dto(DtoConfig(3, _Sneaky(), CfoParams(4, 2), make_objective("ramp"),
                               ProbeLine((0.5,))))
    assert report.best_value == max(p.best_fitness for p in report.passes) <= 1.0


def test_an_equal_best_from_a_later_search_takes_best_coords():
    # Two probes in 2-D make no spread: every probe of a search sits on its
    # gamma's diagonal point, and a constant objective never moves it. Both
    # searches reach the same best, and as within a search, later ties win.
    space = DecisionSpace.cube(2, -1.0, 1.0)
    config = DtoConfig(
        num_passes=1,
        schedule=LinearRamp(c_th=0.6),
        cfo=CfoParams(n_probes=2, n_steps=3),
        objective=ObjectiveSpec(lambda x: np.full(len(x), 7.0), space),
        ipd=ProbeLine((0.2, 0.7)),
    )
    report = run_dto(config)
    assert report.best_value == 7.0
    first, later = (space.lower + gamma * (space.upper - space.lower) for gamma in (0.2, 0.7))
    assert not np.array_equal(first, later)
    assert report.best_coords.tobytes() == later.tobytes()


def test_report_consistency_raw_fitness_at_best_coords():
    config = _random_config(num_passes=3, np0=4, nt=6, seed=21)
    report = run_dto(config)
    raw = float(
        np.asarray(config.objective.evaluate_batch(report.best_coords[None, :]))[0]
    )
    final_floor = report.passes[-1].threshold
    if raw > final_floor:
        assert report.best_value == pytest.approx(raw, rel=1e-12, abs=1e-12)
    else:
        assert report.best_value == max(raw, final_floor)


def test_double_probes():
    report, searches = _checked_run(_random_config(num_passes=10, np0=4, nt=0))
    sizes = [history.n_probes for _, _, history in searches]
    assert sizes == [4 * 2**k for k in range(10)]
    assert sum(sizes) == 4092  # 106,392 / 26 evaluation sites per probe
    assert report.total_evals == expected_evals(1, 0, sizes)


def test_num_passes_validation():
    with pytest.raises(ValueError, match="num_passes"):
        _random_config(num_passes=0)


@pytest.mark.parametrize("num_passes", [2.0, "2", None, True])
def test_num_passes_must_be_an_integer(num_passes):
    with pytest.raises(ValueError, match="^num_passes must be an integer >= 1"):
        _random_config(num_passes=num_passes)


@pytest.mark.parametrize("doubling", ["no", "", 1, 0, None, np.bool_(False)])
def test_probe_doubling_must_be_true_or_false(doubling):
    # "no" and 1 would run with doubling on, "" and 0 with it off
    with pytest.raises(ValueError,
                       match=f"^probe_doubling must be a bool, got {doubling!r}$"):
        _probe_line_config(doubling=doubling)


# Every attribute a run reads of an ObjectiveSpec, but none of its checks
_DUCK = SimpleNamespace(space=DecisionSpace.cube(2, -500.0, 500.0), eval_count=0,
                        evaluate_batch=schwefel226)


@pytest.mark.parametrize("field, value", [
    ("schedule", None), ("schedule", "linear"), ("schedule", LinearRamp),
    ("cfo", None), ("cfo", (4, 2)),
    ("objective", None), ("objective", schwefel226), ("objective", _DUCK),
    ("ipd", None), ("ipd", 0.5),
], ids=["schedule_none", "schedule_str", "schedule_class", "cfo_none", "cfo_tuple",
        "objective_none", "objective_function", "objective_duck", "ipd_none", "ipd_float"])
def test_dto_config_rejects_components_of_the_wrong_kind(field, value):
    # before, all but the duck built and the run ended in a bare
    # AttributeError; the duck ran unchecked, and a schedule class ran to a
    # TypeError after pass 1, its next_threshold one argument short
    with pytest.raises(ValueError, match=f"^{field} must "):
        DtoConfig(**{**vars(_probe_line_config()), field: value})


def _assert_same_search(got, expected):
    (_, got_result, got_history), (result, history) = got, expected
    assert np.array_equal(got_history.positions, history.positions)
    assert np.array_equal(got_history.fitness, history.fitness)
    assert got_result.best_value == result.best_value


def test_probe_line_runs_exactly_its_gammas():
    # One gamma, one search per pass, at that gamma: no sweep hides behind it
    config = _probe_line_config(num_passes=3, np0=4, nt=3, gammas=(0.3,), doubling=False)
    report, searches = _checked_run(config)
    assert len(searches) == 3
    assert report.total_evals == expected_evals(1, 3, [4, 4, 4])
    result, history = run_cfo(CfoParams(n_probes=4, n_steps=3), make_objective("schwefel226", 2),
                              0.3, record=True)
    _assert_same_search(searches[0], (result, history))


def test_random_run_equals_searches_sharing_one_generator():
    # the reference pass loop draws every pass's start from one generator
    _, searches = _checked_run(_random_config(num_passes=3, np0=3, nt=2, seed=11))
    assert [history.n_probes for _, _, history in searches] == [3, 6, 12]


def test_probe_line_run_deterministic():
    report_a = run_dto(_probe_line_config())
    report_b = run_dto(_probe_line_config())
    assert report_a.best_value == report_b.best_value
    assert np.array_equal(report_a.best_coords, report_b.best_coords)
    assert [r.threshold for r in report_a.passes] == [r.threshold for r in report_b.passes]


# ----- run invariants over random small configs -----

_SMALL = dict(
    n_dims=st.integers(1, 3),
    passes=st.integers(1, 4),
    nt=st.integers(0, 6),
    np0=st.integers(1, 4),
    ipd=st.sampled_from(["probe_line", "random"]),
    gamma_sweep=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**31),
)
_small_configs = st.builds(ExperimentConfig, c_th=st.floats(0.05, 1.0), **_SMALL)


def _small_run_config(config, follow_best):
    dto_config = to_dto_config(config)
    return replace(dto_config, schedule=_FollowBest()) if follow_best else dto_config


@settings(max_examples=100, deadline=None)
@given(config=_small_configs, follow_best=st.booleans())
# 16 probes on one axis of [-500, 500]: lower + 15 * step rounds past upper
@example(config=ExperimentConfig(n_dims=1, passes=4, nt=0, np0=2, gamma_sweep=(0.0,)),
         follow_best=False)
@example(config=ExperimentConfig(n_dims=3, passes=4, nt=6, np0=4, ipd="random"),
         follow_best=True)
def test_run_invariants_hold_on_random_configs(config, follow_best):
    dto_config = _small_run_config(config, follow_best)
    space = dto_config.objective.space
    report, searches = _checked_run(dto_config)
    lower, upper = space.lower[None, :, None], space.upper[None, :, None]
    for threshold, _, history in searches:
        assert np.all(history.fitness >= threshold)
        assert np.all((history.positions >= lower) & (history.positions <= upper))
    runs_per_pass = len(config.gamma_sweep) if config.ipd == "probe_line" else 1
    assert len(searches) == config.passes * runs_per_pass
    assert report.total_evals == (config.np0 * (2**config.passes - 1) * (config.nt + 1)
                                  * runs_per_pass)

    again = run_dto(_small_run_config(config, follow_best))
    assert render_summary(again) == render_summary(report)
    assert render_passes_csv(again) == render_passes_csv(report)


# ----- non-finite objective values -----

def _schwefel_turning_bad(value, after):
    """2-D Schwefel whose first value of a batch becomes ``value`` once
    ``after`` points have been evaluated."""
    seen = 0

    def func(points):
        nonlocal seen
        out = schwefel226(points)
        if seen >= after:
            out[0] = value
        seen += len(points)
        return out

    return ObjectiveSpec(func, DecisionSpace.cube(2, -500.0, 500.0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("ipd, bad_pass, search", [
    ("random", 1, "seed 5"),
    ("random", 2, "seed 5"),
    ("probe_line", 1, "gamma 0.0"),
    ("probe_line", 2, "gamma 0.5"),  # the second search of pass 2
])
def test_non_finite_objective_value_names_pass_search_step_and_count(value, ipd, bad_pass,
                                                                     search):
    np0, nt = 4, 3
    if ipd == "random":
        config = _random_config(num_passes=3, np0=np0, nt=nt, seed=5)
        after = 0 if bad_pass == 1 else np0 * (nt + 1)
    else:
        config = _probe_line_config(num_passes=3, np0=np0, nt=nt)
        after = 0 if bad_pass == 1 else 3 * np0 * (nt + 1) + 2 * np0 * (nt + 1)
    config = replace(config, objective=_schwefel_turning_bad(value, after))
    message = f"pass {bad_pass}, search at {search}: step 0: .* 1 non-finite"
    with pytest.raises(ValueError, match=message):
        run_dto(config)


_SHAPE = r"func must return shape \(4,\) for a batch of 4 points, got shape "
_REAL = r"func's result must hold real numbers, got dtype "


@pytest.mark.parametrize("func, message", [
    (lambda x: np.array([x[:, 0].sum()]), _SHAPE + r"\(1,\)"),
    (lambda x: -1.6, _SHAPE + r"\(\)"),
    (lambda x: x[:, :1], _SHAPE + r"\(4, 1\)"),
    (lambda x: x[:, 0] > 0, _REAL + "bool"),
    (lambda x: x[:, 0].astype(str), _REAL + "<U32"),
    (lambda x: x[:, 0] + 0j, _REAL + "complex128"),
    (lambda x: x[:, 0].astype(object), _REAL + "object"),
], ids=["one_value", "scalar", "column", "bool", "str", "complex", "object"])
def test_objective_not_one_value_per_point_names_pass_search_and_step(func, message):
    # numpy would broadcast the first three over the four probes, and the
    # cast to float took the others as numbers: a bool as 0 or 1, a string
    # parsed, a complex value without its imaginary part
    config = replace(_probe_line_config(num_passes=2, np0=4, nt=3),
                     objective=ObjectiveSpec(func, DecisionSpace.cube(2, -1.0, 1.0)))
    with pytest.raises(ValueError, match=rf"^pass 1, search at gamma 0.0: step 0: {message}$"):
        run_dto(config)
    assert config.objective.eval_count == 4


@pytest.mark.parametrize("schedule", [LinearRamp(0.6), _FollowBest()], ids=["linear", "best"])
@pytest.mark.parametrize("constant", [-2e300, 2e300])
def test_constant_objective_beyond_1e300_runs_and_reports_the_constant(constant, schedule):
    # The run-wide best and worst start at -inf and +inf, so a finite value of
    # any size replaces them and sets the next floor
    space = DecisionSpace.cube(2, -1.0, 1.0)
    config = DtoConfig(
        num_passes=3,
        schedule=schedule,
        cfo=CfoParams(4, 3),
        ipd=RandomUniform(1),
        objective=ObjectiveSpec(lambda x: np.full(x.shape[0], constant), space),
    )
    report, searches = _checked_run(config)
    positions = np.concatenate([history.positions.transpose(0, 2, 1).reshape(-1, 2)
                                for _, _, history in searches])
    assert report.best_value == constant
    assert report.best_coords is not None
    assert (positions == report.best_coords).all(axis=1).any()
    assert [p.threshold for p in report.passes] == [-np.inf, constant, constant]
    assert render_summary(report)


def test_acceleration_overflow_is_not_blamed_on_the_objective():
    # Fitness gaps near 3e308 overflow when the kernel squares them, and the
    # probes move to NaN positions; the objective is finite on the whole box
    config = DtoConfig(
        num_passes=3,
        schedule=LinearRamp(0.6),
        cfo=CfoParams(4, 3),
        ipd=RandomUniform(1),
        objective=ObjectiveSpec(lambda x: 1.5e308 * x[:, 0], DecisionSpace.cube(2, -1.0, 1.0)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^pass 1, search at seed 1: step \d+: \d+ of 4 "
                                             r"probe positions became non-finite .* overflowed"):
            run_dto(config)


def _overflowing_range_config():
    """F* - F_min = 3e308 overflows; with 2 probes in 2-D every probe sits on
    the diagonal point, so the kernel itself never overflows."""
    return DtoConfig(
        num_passes=3,
        schedule=LinearRamp(0.6),
        cfo=CfoParams(2, 3),
        objective=ObjectiveSpec(lambda x: np.where(x[:, 0] > 0, 1.5e308, -1.5e308),
                                DecisionSpace.cube(2, -1.0, 1.0)),
        ipd=ProbeLine((0.0, 1.0)),
        probe_doubling=False,
    )


def test_linear_ramp_over_a_range_beyond_the_largest_float():
    report = run_dto(_overflowing_range_config())
    thresholds = [p.threshold for p in report.passes]
    assert thresholds[0] == -np.inf
    for t in thresholds[1:]:
        assert -1.5e308 <= t <= 1.5e308
    assert thresholds[1:] == pytest.approx([-9.0e307, -3.0e307], rel=1e-12)
    assert report.best_value == 1.5e308


@pytest.mark.parametrize("config", [
    _probe_line_config(num_passes=4, np0=3, nt=4, gammas=(0.0, 0.3, 0.5, 1.0)),
    _probe_line_config(num_passes=3, np0=6, nt=5, n_dims=3, c_th=1.0, doubling=False),
    _random_config(num_passes=5, np0=3, nt=6, seed=3),
    replace(_random_config(num_passes=3, np0=4, nt=5, seed=4), schedule=_FollowBest()),
    _overflowing_range_config(),
], ids=["probe line", "no doubling", "random", "follow the best", "overflowing range"])
def test_run_dto_equals_the_reference_pass_loop(config):
    # the report, every threshold of the ramp included, bit for bit
    _checked_run(config)
