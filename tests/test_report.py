import dataclasses
import tracemalloc

import numpy as np
import pytest

from dtopt.cfo import CfoParams, ProbeLine, RandomUniform, SwarmHistory, run_cfo
from dtopt.driver import PassRecord, RunReport, run_dto
from dtopt.objectives import DecisionSpace, make_objective, schwefel226
from dtopt.report import (
    PROFILES,
    ConfigError,
    ExperimentConfig,
    average_distance_to_best,
    parse_config,
    render_davg,
    render_passes_csv,
    render_summary,
    render_surface,
    render_surface_command,
    to_dto_config,
)
from dtopt.threshold import LinearRamp


def _sample_report():
    return RunReport(
        best_coords=np.array([421.007498176246, 420.959700549993]),
        best_value=837.965574726692,
        total_evals=106392,
        passes=[
            PassRecord(1, -np.inf, 580.2973878, 104),
            PassRecord(2, -347.955, 837.8781823, 312),
            PassRecord(3, -196.617, 719.2845548, 728),
        ],
    )


# ----- config files -----

def test_config_text_sets_every_key():
    text = """
function = ramp
n_dims = 1
passes = 3
c_th = 0.25
nt = 7
np0 = 5
ipd = random
gamma_sweep = 0.125, 0.5
seed = 99
probe_doubling = false
output_dir = out/x
"""
    expected = ExperimentConfig(function="ramp", n_dims=1, passes=3, c_th=0.25, nt=7, np0=5,
                                ipd="random", gamma_sweep=(0.125, 0.5), seed=99,
                                probe_doubling=False, output_dir="out/x")
    assert parse_config(text) == expected
    defaults = ExperimentConfig()
    assert all(getattr(expected, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(ExperimentConfig))
    assert parse_config("") == defaults


def test_unknown_key_reports_line_number():
    text = "function = schwefel226\nn_dims = 2\nbogus = 1\n"
    with pytest.raises(ConfigError, match="line 3.*bogus"):
        parse_config(text)


def test_floor_repositioning_is_no_key_and_no_field():
    # the benchmark's closed-form call count still reads the class constant
    with pytest.raises(ConfigError, match="^line 2: unknown key 'floor_repositioning'$"):
        parse_config("passes = 3\nfloor_repositioning = false\n")
    assert "floor_repositioning" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert ExperimentConfig().floor_repositioning is False
    with pytest.raises(TypeError):
        ExperimentConfig(floor_repositioning=True)


@pytest.mark.parametrize("value", ["linear", "best_fitness"])
def test_schedule_is_no_key_and_no_field(value):
    # every config runs the linear ramp; another schedule is a DtoConfig's
    with pytest.raises(ConfigError, match="^line 1: unknown key 'schedule'$"):
        parse_config(f"schedule = {value}\n")
    assert "schedule" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    with pytest.raises(TypeError):
        ExperimentConfig(schedule=value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("passes = 3\npasses = 4\n")


@pytest.mark.parametrize("text, message", [
    ("passes = many\n", "^line 1: bad value for 'passes'"),
    ("passes = 2\nprobe_doubling = maybe\n", "^line 2: .*expected a boolean, got 'maybe'$"),
])
def test_bad_value_reports_line_number(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("passes = 3\nnonsense\n")


def test_comments_and_blanks_skipped():
    config = parse_config("# config\n\npasses = 7\n")
    assert config.passes == 7


def test_invalid_enum_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("function = rosenbrock\n")
    with pytest.raises(ConfigError):
        parse_config("ipd = grid\n")


@pytest.mark.parametrize("key, value, wanted", [
    ("probe_doubling", "no", "a bool"),
    ("nt", 2.0, "an integer"),
    ("passes", "3", "an integer"),
    ("passes", True, "an integer"),
    ("c_th", "0.5", "a number"),
    ("c_th", True, "a number"),
    ("function", ["x"], "a string"),
    ("gamma_sweep", [0.5], "a tuple of numbers"),
    ("gamma_sweep", (0.5, "1"), "a tuple of numbers"),
])
def test_wrongly_typed_python_values_name_their_key(key, value, wanted):
    with pytest.raises(ConfigError, match=rf"^{key} must be {wanted}, got "):
        ExperimentConfig(**{key: value})


def test_numbers_of_any_numeric_type_are_accepted():
    config = ExperimentConfig(nt=np.int64(3), c_th=1, gamma_sweep=(0, np.float64(0.5)))
    assert to_dto_config(config).cfo.n_steps == 3


def test_profiles_match_reference_experiments():
    p2 = PROFILES["schwefel2d"]
    assert (p2.passes, p2.c_th, p2.nt, p2.np0, p2.ipd) == (10, 0.98, 25, 4, "random")
    p30 = PROFILES["schwefel30d"]
    assert (p30.passes, p30.c_th, p30.nt, p30.np0, p30.ipd) == (6, 0.6, 15, 4, "probe_line")
    assert p30.gamma_sweep == tuple(i / 10 for i in range(11))
    assert p30.n_dims == 30


def test_profiles_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        PROFILES["schwefel2d"].nt = 3
    with pytest.raises(TypeError):
        PROFILES["schwefel2d"] = ExperimentConfig()
    with pytest.raises(TypeError):
        del PROFILES["schwefel30d"]
    assert PROFILES["schwefel2d"].nt == 25
    assert sorted(PROFILES) == ["schwefel2d", "schwefel30d"]


def test_config_dimension_follows_the_benchmark_table():
    assert parse_config("function = ramp\nn_dims = 1\n").n_dims == 1
    assert parse_config("function = schwefel226\nn_dims = 7\n").n_dims == 7
    for text in ("function = ramp\n", "function = rastrigin_offset\nn_dims = 30\n"):
        with pytest.raises(ConfigError, match="n_dims"):
            parse_config(text)


def test_parsing_a_config_allocates_nothing_proportional_to_n_dims():
    tracemalloc.start()
    try:
        config = parse_config("n_dims = 1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.n_dims == 10**6
    assert peak < 2**20  # the objective's two bounds alone would take 16 MB


def test_to_dto_config_seed_override():
    config = to_dto_config(PROFILES["schwefel2d"], seed=42)
    assert config.ipd == RandomUniform(42)
    assert config.objective.space.n_dims == 2
    assert config.schedule == LinearRamp(c_th=0.98)


@pytest.mark.parametrize("seed", [0, 5])
def test_to_dto_config_refuses_a_seed_a_probe_line_start_never_reads(seed):
    message = "^seed applies only to ipd = random, not to ipd = probe_line$"
    with pytest.raises(ConfigError, match=message):
        to_dto_config(PROFILES["schwefel30d"], seed=seed)
    assert to_dto_config(PROFILES["schwefel30d"], seed=None).ipd == ProbeLine()


def test_to_dto_config_probe_line_carries_the_whole_sweep():
    config = to_dto_config(PROFILES["schwefel30d"])
    assert config.ipd == ProbeLine(tuple(i / 10 for i in range(11)))
    assert config.cfo == CfoParams(n_probes=4, n_steps=15)
    quick = to_dto_config(parse_config("ipd = probe_line\ngamma_sweep = 0.25, 0.5\n"))
    assert quick.ipd.gammas == (0.25, 0.5)


@pytest.mark.parametrize("name, seed", [("schwefel30d", None), ("schwefel2d", 1)])
def test_the_search_objective_answers_as_a_plain_one(name, seed):
    profile = PROFILES[name]
    cached = to_dto_config(profile, seed=seed)
    plain = dataclasses.replace(cached, objective=make_objective(profile.function, profile.n_dims))
    assert plain.objective.func is schwefel226  # the oracle computes every batch
    reports = [run_dto(config) for config in (cached, plain)]
    assert cached.objective.eval_count == plain.objective.eval_count == reports[0].total_evals
    for render in (render_summary, render_passes_csv):
        assert render(reports[0]) == render(reports[1])


def test_a_schwefel30d_search_on_the_diagonal_computes_one_batch_of_its_16():
    # Passes 1-4 have N = 4 to 32 < 2 * 30 probes: every probe of a search
    # starts on one diagonal point, the field is flat, and no probe moves.
    config = to_dto_config(PROFILES["schwefel30d"])
    cache = config.objective.func
    shipped, computed_at, calls = cache.func, [], [0]

    def counted(x):
        computed_at.append(calls[0])
        return shipped(x)

    def call(x):
        values = cache(x)
        calls[0] += 1
        return values

    cache.func, config.objective.func = counted, call
    run_dto(config)
    assert calls[0] == 66 * 16
    searches = 4 * 11
    assert [i for i in computed_at if i < searches * 16] == [16 * s for s in range(searches)]


# ----- summary / CSV rendering -----

def test_summary_layout():
    text = render_summary(_sample_report())
    lines = text.splitlines()
    assert lines[0] == "RUN COMPLETED"
    assert lines[2] == "Best Fitness Over All Passes = 837.96557"
    assert lines[3] == "using 106392 function calls at coordinates"
    assert lines[4] == "x(1) = 421.007498176246"
    assert lines[5] == "x(2) = 420.959700549993"
    header_idx = lines.index("Pass#      Threshold      Best Fitness")
    rows = lines[header_idx + 1:]
    assert len(rows) == 3
    assert rows[0].split() == ["1", "none", "580.29739"]
    assert rows[1].split() == ["2", "-347.955", "837.87818"]
    assert text.endswith("\n")


def test_passes_csv_layout():
    text = render_passes_csv(_sample_report())
    lines = text.splitlines()
    assert lines[0] == "pass,threshold,best_fitness,cumulative_evals"
    assert lines[1] == "1,,580.2973878,104"
    assert lines[2] == "2,-347.955,837.8781823,312"
    assert len(lines) == 4
    # threshold column round-trips exactly
    assert float(lines[2].split(",")[1]) == -347.955


# ----- surface grids -----

def test_surface_grid_shape_and_values():
    space = DecisionSpace.cube(2, -500.0, 500.0)
    text = render_surface(schwefel226, space, threshold=-np.inf)
    lines = text.splitlines()
    data = [ln for ln in lines if ln]
    blanks = [ln for ln in lines if not ln]
    assert len(data) == 10_000
    assert len(blanks) == 100
    rng = np.random.default_rng(4)
    for idx in rng.choice(len(data), size=100, replace=False):
        x1, x2, z = (float(tok) for tok in data[idx].split())
        assert z == pytest.approx(float(schwefel226(np.array([x1, x2]))),
                                  rel=1e-12, abs=1e-12)
    first_x1 = float(data[0].split()[0])
    last_x1 = float(data[-1].split()[0])  # lower + 99 * delta, up to rounding
    assert first_x1 == -500.0
    assert last_x1 == pytest.approx(500.0, abs=1e-9)


def test_surface_thresholded_floor_is_exact():
    space = DecisionSpace.cube(2, -500.0, 500.0)
    text = render_surface(schwefel226, space, threshold=686.126)
    z_vals = [float(ln.split()[2]) for ln in text.splitlines() if ln]
    assert min(z_vals) == 686.126
    assert max(z_vals) > 686.126


def test_surface_huge_threshold_flattens_everything():
    space = DecisionSpace.cube(2, -500.0, 500.0)
    text = render_surface(schwefel226, space, threshold=1e6)
    z_vals = {ln.split()[2] for ln in text.splitlines() if ln}
    assert z_vals == {"1000000.0"}


def test_surface_without_floor_passes_every_value_through_bit_for_bit():
    space = DecisionSpace.cube(2, -1.0, 1.0)
    text = render_surface(lambda x: np.full(len(x), -0.0), space, threshold=-np.inf)
    assert {ln.split()[2] for ln in text.splitlines() if ln} == {"-0.0"}


@pytest.mark.parametrize("threshold", [np.nan, np.inf])
def test_surface_rejects_a_nan_or_plus_inf_threshold(threshold):
    space = DecisionSpace.cube(2, -500.0, 500.0)
    with pytest.raises(ValueError, match="threshold must not be NaN or \\+inf"):
        render_surface(schwefel226, space, threshold)


_SHAPE = r"func must return shape \(100,\) for a batch of 100 points, got shape "
_REAL = r"func's result must hold real numbers, got dtype "


@pytest.mark.parametrize("func, message", [
    (lambda x: 1.0, _SHAPE + r"\(\)"),
    (lambda x: np.ones(1), _SHAPE + r"\(1,\)"),
    (lambda x: np.ones((len(x), 1)), _SHAPE + r"\(100, 1\)"),
    (lambda x: x[:, 0] > 0, _REAL + "bool"),
    (lambda x: x[:, 0].astype(str), _REAL + "<U32"),
    (lambda x: x[:, 0] + 0j, _REAL + "complex128"),
    (lambda x: x[:, 0].astype(object), _REAL + "object"),
], ids=["scalar", "one_value", "column", "bool", "str", "complex", "object"])
def test_surface_rejects_a_result_that_is_not_one_value_per_point(func, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        render_surface(func, DecisionSpace.cube(2, -1.0, 1.0), -np.inf)


@pytest.mark.parametrize("space", [None, (np.zeros(2), np.ones(2)), 2],
                         ids=["none", "tuple", "int"])
def test_surface_rejects_a_space_that_is_not_a_decision_space(space):
    # before, each ended in AttributeError: no attribute 'n_dims'
    with pytest.raises(ValueError, match=r"^space must be a DecisionSpace, got "):
        render_surface(schwefel226, space, -np.inf)


@pytest.mark.parametrize("func", [None, "schwefel226"], ids=["none", "name"])
def test_surface_rejects_a_func_that_is_not_callable(func):
    # before, each ended in TypeError: not callable, once the grid was under way
    with pytest.raises(ValueError, match=rf"^func must be a Callable, got {func!r}$"):
        render_surface(func, DecisionSpace.cube(2, -1.0, 1.0), -np.inf)


def test_surface_requires_two_dims():
    with pytest.raises(ValueError):
        render_surface(schwefel226, DecisionSpace.cube(3, -1, 1), -np.inf)


def test_surface_command_references_data_file():
    command = render_surface_command("surface.dat")
    assert 'splot "surface.dat"' in command


# ----- probe-distance evolution -----

def test_davg_coincident_probes_is_zero():
    space = DecisionSpace.cube(2, 0.0, 1.0)
    hist = SwarmHistory.allocate(3, 2, 1)
    hist.positions[:] = 0.5
    assert np.array_equal(average_distance_to_best(hist, space), [0.0, 0.0])


def test_davg_opposite_corners_is_one():
    space = DecisionSpace.cube(2, 0.0, 1.0)
    hist = SwarmHistory.allocate(2, 2, 0)
    hist.positions[0, :, 0] = [0.0, 0.0]
    hist.positions[1, :, 0] = [1.0, 1.0]
    hist.fitness[:, 0] = [1.0, 0.0]
    assert average_distance_to_best(hist, space)[0] == 1.0


def test_davg_monotone_collapse():
    space = DecisionSpace.cube(1, 0.0, 1.0)
    hist = SwarmHistory.allocate(2, 1, 4)
    spread = [0.8, 0.4, 0.2, 0.1, 0.05]
    for j, s in enumerate(spread):
        hist.positions[0, 0, j] = 0.5
        hist.positions[1, 0, j] = 0.5 + s
        hist.fitness[:, j] = [1.0, 0.0]
    davg = average_distance_to_best(hist, space)
    assert all(b <= a for a, b in zip(davg, davg[1:]))


def test_davg_refuses_single_probe():
    with pytest.raises(ValueError):
        average_distance_to_best(SwarmHistory.allocate(1, 2, 1),
                                 DecisionSpace.cube(2, 0.0, 1.0))


@pytest.mark.parametrize("render", [average_distance_to_best, render_davg])
@pytest.mark.parametrize("space", [None, (np.zeros(2), np.ones(2))], ids=["none", "tuple"])
def test_davg_rejects_a_space_that_is_not_a_decision_space(render, space):
    # before, each ended in AttributeError: no attribute 'diag_length'
    with pytest.raises(ValueError, match=r"^space must be a DecisionSpace, got "):
        render(SwarmHistory.allocate(2, 2, 1), space)


@pytest.mark.parametrize("render", [average_distance_to_best, render_davg])
def test_davg_rejects_a_space_of_another_dimension(render):
    # before, a 2-D history over a 3-D cube gave values around 232 instead of below 1
    _, history = run_cfo(CfoParams(n_probes=8, n_steps=3), make_objective("schwefel226", 2), 0.5,
                         record=True)
    for n_dims in (1, 3):
        message = rf"^space must have the history's 2 dimension\(s\), got {n_dims}$"
        with pytest.raises(ValueError, match=message):
            render(history, DecisionSpace.cube(n_dims, -1, 1))
    assert np.all(average_distance_to_best(history, DecisionSpace.cube(2, -500, 500)) <= 1)


@pytest.mark.parametrize("render", [average_distance_to_best, render_davg])
@pytest.mark.parametrize("history", [None, np.zeros((2, 2, 2)), "history"],
                         ids=["none", "array", "str"])
def test_davg_rejects_a_history_that_is_not_a_swarm_history(render, history):
    # before, each ended in AttributeError: no attribute 'n_probes'
    with pytest.raises(ValueError, match=r"^history must be a SwarmHistory, got "):
        render(history, DecisionSpace.cube(2, 0.0, 1.0))


def test_davg_rendering():
    space = DecisionSpace.cube(2, 0.0, 1.0)
    hist = SwarmHistory.allocate(2, 2, 1)
    hist.positions[1, :, :] = 1.0
    hist.fitness[:, 0] = [1.0, 0.0]
    hist.fitness[:, 1] = [1.0, 0.0]
    lines = render_davg(hist, space).splitlines()
    assert len(lines) == 2
    step, value = lines[0].split()
    assert step == "0"
    assert float(value) == 1.0
