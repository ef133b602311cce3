"""Each input rule at every entry point that applies it.

A rule is stated once in the library (a count, a fraction in [0, 1] or
(0, 1], a margin). Every entry point gets the same verdict for the same
value and names its own field, key or flag in the rule's own words: a
ValueError from the library, a ConfigError from a config, and exit 2 from
the CLI. The rules are restated here as the oracle, apart from the code.
"""

import dataclasses
import math
import numbers
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dtopt import cli, floorscan
from dtopt.cfo import CfoParams, ProbeLine, RandomUniform, SwarmHistory, run_cfo
from dtopt.cli import main
from dtopt.driver import DtoConfig, run_dto
from dtopt.floorscan import halton_points, sample_threshold_floor
from dtopt.objectives import DecisionSpace, ObjectiveSpec, make_objective, ramp
from dtopt.report import (PROFILES, ConfigError, ExperimentConfig, parse_config,
                          render_passes_csv, render_summary, to_dto_config)
from dtopt.threshold import LinearRamp, ThresholdState


def _integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Rule(NamedTuple):
    kind: Callable  # the type a value must have
    noun: str  # that type, as a config's type check names it
    bound: Callable  # the range a value of that type must lie in
    words: str  # the rule, as every message states it
    parse: Callable  # a value's text on a command line or in a config file

    def accepts(self, value):
        return self.kind(value) and bool(self.bound(value))


COUNT_1 = Rule(_integer, "an integer", lambda v: v >= 1, "must be an integer >= 1", int)
COUNT_0 = Rule(_integer, "an integer", lambda v: v >= 0, "must be an integer >= 0", int)
FRACTION = Rule(_number, "a number", lambda v: 0 <= v <= 1, "must be a number in [0, 1]", float)
FRACTION_ABOVE_0 = Rule(_number, "a number", lambda v: 0 < v <= 1,
                        "must be a number in (0, 1]", float)
MARGIN = Rule(_number, "a number", lambda v: math.isfinite(v) and v >= 0,
              "must be finite and >= 0", float)

VALUES = [0, -1, 1.5, math.nan, math.inf, -math.inf, True, None, "1",
          np.int64(3), np.float64(0.5), np.float64(1.5)]
TEXTS = ["0", "-1", "1.5", "nan", "inf", "-inf", "True", "None", "1"]

UNIT_1D = DecisionSpace.cube(1, 0.0, 1.0)


def _message(name, rule, value):
    return f"{name} {rule.words}, got {value!r}"


# ----- the library: ValueError naming the field -----

# (field as the message names it, rule, call with the value); a None n_dims
# is make_objective's default dimension
LIBRARY = {
    "CfoParams.n_probes": ("n_probes", COUNT_1, lambda v: CfoParams(v, 1)),
    "CfoParams.n_steps": ("n_steps", COUNT_0, lambda v: CfoParams(2, v)),
    "make_objective.n_dims": ("n_dims", COUNT_1, lambda v: make_objective("schwefel226", v)),
    "sample_threshold_floor.n_samples": (
        "n_samples", COUNT_1, lambda v: sample_threshold_floor(ramp, UNIT_1D, 0.5, v)),
    "sample_threshold_floor.margin": (
        "margin", MARGIN, lambda v: sample_threshold_floor(ramp, UNIT_1D, 0.5, 10, v)),
    "LinearRamp.c_th": ("c_th", FRACTION_ABOVE_0, LinearRamp),
    "ProbeLine.gammas": ("gammas[1]", FRACTION, lambda v: ProbeLine((0.5, v))),
    "run_cfo.start": ("gamma", FRACTION,
                      lambda v: run_cfo(CfoParams(2, 1), make_objective("ramp"), v)),
}


@pytest.mark.parametrize("entry", sorted(LIBRARY))
def test_library_entry_points_apply_each_rule(entry):
    name, rule, call = LIBRARY[entry]
    for value in VALUES:
        if rule.accepts(value) or (entry == "make_objective.n_dims" and value is None):
            call(value)
            continue
        with pytest.raises(ValueError) as info:
            call(value)
        assert not isinstance(info.value, ConfigError), value
        if entry == "ProbeLine.gammas" and not rule.kind(value):
            expected = f"gammas must be a tuple of numbers, got (0.5, {value!r})"
        else:
            expected = _message(name, rule, value)
        assert str(info.value) == expected, value


# (a built value, an assignment to each of its fields, one field value its
# checks refuse)
FROZEN = {
    "DtoConfig": (lambda: to_dto_config(PROFILES["schwefel30d"]),
                  {"num_passes": 10, "schedule": None, "cfo": (4, 15),
                   "objective": make_objective("ramp"), "ipd": RandomUniform(1),
                   "probe_doubling": "no"},
                  {"num_passes": 10**30}),
    "CfoParams": (lambda: CfoParams(4, 3), {"n_probes": 0, "n_steps": -1}, {"n_probes": 0}),
    "ProbeLine": (ProbeLine, {"gammas": (1.5,)}, {"gammas": (0.5, 1.5)}),
    "RandomUniform": (lambda: RandomUniform(1), {"seed": -1}, {"seed": -1}),
    "LinearRamp": (lambda: to_dto_config(PROFILES["schwefel2d"], seed=1).schedule,
                   {"c_th": 7.0}, {"c_th": 7.0}),
    "ThresholdState": (lambda: ThresholdState(0.5), {"t_current": 1e9}, {"t_current": math.nan}),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_built_run_description_is_frozen_and_a_variant_is_checked(name):
    # before, an assignment skipped every check: c_th = 7.0 on schwefel2d's
    # ramp reported a best of 25,346,388 (the maximum is 837.97), n_probes = 0
    # ended in the kernel's bare IndexError, and schedule = None in an
    # AttributeError after pass 1
    build, assignments, refused = FROZEN[name]
    value = build()
    fields = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    assert sorted(assignments) == sorted(fields)
    for field, new in assignments.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, new)
        assert getattr(value, field) is fields[field]
    with pytest.raises(ValueError) as built:
        type(value)(**{**fields, **refused})
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(value, **refused)
    assert str(replaced.value) == str(built.value)


# ----- every init field of a constructor whose object a run reads -----

# Values no field takes, apart from those its CONSTRUCTORS entry names
WRONG = {"None": None, "'x'": "x", "True": True, "nan": math.nan, "inf": math.inf,
         "-inf": -math.inf, "2**70": 2**70, "-1": -1, "0.5": 0.5, "1.5": 1.5,
         "np.float64(nan)": np.float64(math.nan), "[]": [], "()": (), "object()": object(),
         "2-D array": np.zeros((2, 2))}

# Per class: valid arguments, and the WRONG values each field legitimately
# takes. Left out: the result records (OptResult, PassRecord, RunReport,
# FloorStats), which the library builds and never reads as input; and
# SwarmHistory.allocate, which run_cfo calls with counts CfoParams and the
# history rule have already checked.
CONSTRUCTORS = {
    DecisionSpace: (lambda: {"lower": np.zeros(2), "upper": np.ones(2)}, {}),
    ObjectiveSpec: (lambda: {"func": ramp, "space": UNIT_1D}, {}),
    CfoParams: (lambda: {"n_probes": 4, "n_steps": 3},
                {"n_probes": {"2**70"}, "n_steps": {"2**70"}}),
    ProbeLine: (dict, {}),
    RandomUniform: (lambda: {"seed": 1}, {"seed": {"2**70"}}),
    LinearRamp: (lambda: {"c_th": 0.5}, {"c_th": {"0.5"}}),
    DtoConfig: (lambda: {"num_passes": 2, "schedule": LinearRamp(0.5), "cfo": CfoParams(4, 3),
                         "objective": make_objective("ramp"), "ipd": ProbeLine((0.5,))},
                {"probe_doubling": {"True"}}),
    ExperimentConfig: (dict, {"c_th": {"0.5"}, "seed": {"2**70"}, "probe_doubling": {"True"},
                              "output_dir": {"'x'"}}),
    ThresholdState: (dict, {"t_current": {"-inf", "2**70", "-1", "0.5", "1.5"}}),
}
INIT_FIELDS = [(cls, field.name) for cls in CONSTRUCTORS
               for field in dataclasses.fields(cls) if field.init]


@pytest.mark.parametrize("cls, field", INIT_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field in INIT_FIELDS])
def test_every_constructor_argument_is_checked(cls, field):
    # before, ObjectiveSpec took eval_count = 1.5 (a run's summary.txt then
    # read "using 48.0 function calls"), any known_max_value and a
    # known_max_location of the wrong length
    valid, accepted = CONSTRUCTORS[cls]
    for name, value in WRONG.items():
        if name in accepted.get(field, ()):
            cls(**{**valid(), field: value})
            continue
        with pytest.raises(ValueError) as info:
            cls(**{**valid(), field: value})
        assert isinstance(info.value, ConfigError) is (cls is ExperimentConfig), name
        assert re.search(rf"\b{field}\b", str(info.value)), (name, str(info.value))


# (the parameter, the call, the WRONG values it takes) of each public function
# whose one required argument has one type
FUNCTIONS = {
    "run_dto": ("config", run_dto, ()),
    "to_dto_config": ("config", to_dto_config, ()),
    "render_summary": ("report", render_summary, ()),
    "render_passes_csv": ("report", render_passes_csv, ()),
    "parse_config": ("text", parse_config, {"'x'"}),
}


@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_every_function_names_an_argument_of_the_wrong_kind(function):
    # before, each ended in a bare AttributeError, and parse_config(b"np0 = 4")
    # in a TypeError
    name, call, accepted = FUNCTIONS[function]
    for label, value in {**WRONG, "b'np0 = 4'": b"np0 = 4"}.items():
        if label in accepted:
            continue
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must be a "), (label, str(info.value))


@pytest.mark.parametrize("n_dims", [2**60, 2**63, 10**400], ids=["2**60", "2**63", "10**400"])
def test_n_dims_beyond_one_numpy_array_is_named(capsys, n_dims):
    # before, each ended in numpy's "Maximum allowed dimension exceeded" or
    # "array is too big"; nothing is allocated on the way to the check
    message = (f"n_dims must be at most {2**60 - 1}, the most float64 values one numpy "
               f"array holds, got {n_dims!r}")
    for call in (lambda: make_objective("schwefel226", n_dims),
                 lambda: DecisionSpace.cube(n_dims, -1.0, 1.0),
                 lambda: halton_points(1, n_dims)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    code, out, err = _cli(["floorscan", "--function", "schwefel226", "--threshold", "0",
                           "--samples", "10", "--dims", str(n_dims)], capsys)
    assert (code, out, err) == (2, "", f"error: --dims: {message}\n")


def _history_message(names):
    return (f"{names} give a search history of more positions, (n_steps + 1) * n_probes * "
            f"n_dims, than the {2**60 - 1} float64 values one numpy array holds")


DOUBLING_KEYS = ("np0, passes, nt and n_dims (the last pass's n_probes is "
                 "np0 * 2^(passes - 1))")


@pytest.mark.parametrize("params", [(2**62, 3), (4, 2**62), (2**59, 1)],
                         ids=["n_probes", "n_steps", "one past"])
def test_run_cfo_rejects_a_history_beyond_one_numpy_array(monkeypatch, params):
    # before, numpy's "array is too big" from SwarmHistory.allocate, naming
    # nothing; now the counts are rejected before anything is allocated
    monkeypatch.setattr(SwarmHistory, "allocate", None)
    with pytest.raises(ValueError) as info:
        run_cfo(CfoParams(*params), make_objective("ramp"), 0.5)
    assert str(info.value) == _history_message("n_probes and n_steps")


# (ExperimentConfig fields, the keys its error names or None if accepted):
# the last pass's history, (nt + 1) * np0 * 2^(passes - 1) * n_dims values
# with doubling, against the 2**60 - 1 of one array
HISTORY_CONFIGS = {
    "np0": ({"np0": 2**62}, DOUBLING_KEYS),
    "nt": ({"nt": 2**62}, DOUBLING_KEYS),
    "passes": ({"passes": 10**30}, DOUBLING_KEYS),  # 2^(10^30 - 1) is never built
    "n_dims": ({"n_dims": 2**40, "np0": 2**20, "nt": 0, "probe_doubling": False},
               "np0, nt and n_dims"),
    # one random search per pass, so that the run's calls stay within the call rule
    "largest": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 1, "ipd": "random"}, None),
    "doubled past it": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 2},
                        DOUBLING_KEYS),
    "largest without doubling": ({"n_dims": 1, "np0": 2**58, "nt": 0, "passes": 3,
                                  "probe_doubling": False, "ipd": "random"}, None),
}


@pytest.mark.parametrize("case", sorted(HISTORY_CONFIGS))
def test_experiment_config_rejects_a_last_pass_history_beyond_one_numpy_array(case):
    fields, keys = HISTORY_CONFIGS[case]
    if keys is None:
        ExperimentConfig(**fields)
        return
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == _history_message(keys)


@pytest.mark.parametrize("key", ["np0", "nt"])
def test_run_with_a_count_beyond_one_numpy_array_exits_2(tmp_path, capsys, key):
    path = tmp_path / "huge.cfg"
    path.write_text(f"{key} = {2**62}\n")
    out_dir = tmp_path / "out"
    code, out, err = _cli(["run", "--config", str(path), "--out", str(out_dir)], capsys)
    assert (code, out, err) == (2, "", f"error: {_history_message(DOUBLING_KEYS)}\n")
    assert not out_dir.exists()


MAX_CALLS = 2**60 - 1


def _calls_message(names):
    return f"{names} must give at most {MAX_CALLS} objective calls"


DTO_CALL_KEYS = "num_passes, cfo.n_probes, cfo.n_steps and ipd"
DTO_HISTORY_KEYS = ("num_passes, cfo.n_probes, cfo.n_steps and objective.space.n_dims "
                    "(the last pass)")
RANDOM_KEYS = "passes, np0 and nt"
GAMMA_KEYS = "passes, np0, nt and gamma_sweep"


# (ExperimentConfig fields, the keys its error names or None if accepted): a
# run's calls, np0 * (2^passes - 1) * (nt + 1) per search of a pass with
# doubling and np0 * passes * (nt + 1) without, against 2**60 - 1. Each
# last-pass history here fits one array.
CALL_CONFIGS = {
    "passes without doubling": ({"passes": 10**30, "probe_doubling": False},
                                GAMMA_KEYS),
    "random, without doubling": ({"passes": 10**30, "probe_doubling": False, "ipd": "random"},
                                 RANDOM_KEYS),
    "exactly the most": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 1, "ipd": "random",
                          "probe_doubling": False}, None),
    "one past the most": ({"n_dims": 1, "np0": 2**59, "nt": 0, "passes": 2, "ipd": "random",
                           "probe_doubling": False}, RANDOM_KEYS),
    "nt": ({"n_dims": 1, "np0": 1, "nt": 2**59, "passes": 2, "ipd": "random",
            "probe_doubling": False}, RANDOM_KEYS),
    # 3 * 2^55 calls per search: within the rule for one search, not for 11 gammas
    "doubled, one search": ({"n_dims": 1, "np0": 2**55, "nt": 0, "passes": 2, "ipd": "random"},
                            None),
    "doubled, 11 gammas": ({"n_dims": 1, "np0": 2**55, "nt": 0, "passes": 2},
                           GAMMA_KEYS),
}


@pytest.mark.parametrize("case", sorted(CALL_CONFIGS))
def test_experiment_config_rejects_a_run_of_more_calls_than_the_most(case):
    # before, passes = 10**30 without doubling built, and its run would never end
    fields, keys = CALL_CONFIGS[case]
    if keys is None:
        ExperimentConfig(**fields)
        return
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == _calls_message(keys)


def _dto_config(num_passes, n_probes, n_steps, ipd, doubling, n_dims=2):
    return DtoConfig(num_passes=num_passes, schedule=LinearRamp(0.5),
                     cfo=CfoParams(n_probes, n_steps),
                     objective=make_objective("schwefel226", n_dims), ipd=ipd,
                     probe_doubling=doubling)


# (num_passes, n_probes, n_steps, ipd, probe_doubling, n_dims, the keys its
# error names or None if accepted)
DTO_CONFIGS = {
    "10**30 passes without doubling": (10**30, 4, 3, ProbeLine(), False, 2, DTO_CALL_KEYS),
    "10**40 passes with doubling": (10**40, 4, 3, RandomUniform(1), True, 2, DTO_HISTORY_KEYS),
    "exactly the most": (1, 2**60 - 1, 0, RandomUniform(1), False, 1, None),
    "one past the most": (2, 2**59, 0, RandomUniform(1), False, 1, DTO_CALL_KEYS),
    "doubled, one search": (2, 2**55, 0, RandomUniform(1), True, 1, None),
    "doubled, 11 gammas": (2, 2**55, 0, ProbeLine(), True, 1, DTO_CALL_KEYS),
    "last pass's history": (2, 2**59, 0, RandomUniform(1), True, 1, DTO_HISTORY_KEYS),
}


@pytest.mark.parametrize("case", sorted(DTO_CONFIGS))
def test_dto_config_rejects_a_run_beyond_either_count_rule(monkeypatch, case):
    # before, each of these built; 10**30 passes would loop for ever, and
    # with doubling the last pass's history was only refused when reached
    *counts, keys = DTO_CONFIGS[case]
    monkeypatch.setattr(SwarmHistory, "allocate", None)
    if keys is None:
        _dto_config(*counts)
        return
    with pytest.raises(ValueError) as info:
        _dto_config(*counts)
    expected = _history_message(keys) if keys == DTO_HISTORY_KEYS else _calls_message(keys)
    assert str(info.value) == expected


def test_run_of_more_calls_than_the_most_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_dto", None)  # refused before any run starts
    path = tmp_path / "endless.cfg"
    path.write_text(f"passes = {10**30}\nprobe_doubling = false\n")
    out_dir = tmp_path / "out"
    code, out, err = _cli(["run", "--config", str(path), "--out", str(out_dir)], capsys)
    assert (code, out, err) == (2, "", f"error: {_calls_message(GAMMA_KEYS)}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("n_samples", [2**60, 2**70, 10**20], ids=["2**60", "2**70", "10**20"])
def test_a_floor_scan_of_more_samples_than_the_most_is_refused(monkeypatch, capsys, n_samples):
    # before, the scan started and ran on for ever (10**20 printed nothing
    # in 10 s); now nothing is sampled
    monkeypatch.setattr(floorscan, "halton_points", None)
    with pytest.raises(ValueError) as info:
        sample_threshold_floor(ramp, UNIT_1D, 0.5, n_samples)
    assert str(info.value) == _calls_message("n_samples")
    code, out, err = _cli(["floorscan", "--function", "schwefel226", "--threshold", "0",
                           "--samples", str(n_samples)], capsys)
    assert (code, out, err) == (2, "", f"error: {_calls_message('--samples')}\n")


# ----- a config: ConfigError naming the key -----

CONFIG_KEYS = {
    "n_dims": COUNT_1, "passes": COUNT_1, "np0": COUNT_1, "nt": COUNT_0, "seed": COUNT_0,
    "c_th": FRACTION_ABOVE_0, "gamma_sweep": FRACTION,
}


def _field(key, value):
    """A config field's value and name for one tested value: gamma_sweep
    gets it as its second gamma."""
    if key == "gamma_sweep":
        return (0.5, value), "gamma_sweep[1]"
    return value, key


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_experiment_config_applies_each_rule(key):
    rule = CONFIG_KEYS[key]
    for value in VALUES:
        field_value, name = _field(key, value)
        if rule.accepts(value):
            assert getattr(ExperimentConfig(**{key: field_value}), key) == field_value
            continue
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**{key: field_value})
        if rule.kind(value):
            assert str(info.value) == _message(name, rule, value), value
        else:  # the field's type check comes first
            noun = "a tuple of numbers" if key == "gamma_sweep" else rule.noun
            assert str(info.value) == f"{key} must be {noun}, got {field_value!r}", value


def _config_line(key, text):
    return f"gamma_sweep = 0.5, {text}" if key == "gamma_sweep" else f"{key} = {text}"


def _config_verdict(key, text):
    """(parsed value, a pattern of the whole expected message); a pattern
    of None means accepted."""
    rule = CONFIG_KEYS[key]
    try:
        parsed = rule.parse(text)
    except ValueError:
        return None, rf"line \d+: bad value for '{key}': .*"
    _, name = _field(key, parsed)
    if rule.accepts(parsed):
        return parsed, None
    return parsed, re.escape(_message(name, rule, parsed))


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_parse_config_applies_each_rule(key):
    for text in TEXTS:
        parsed, message = _config_verdict(key, text)
        if message is None:
            assert getattr(parse_config(_config_line(key, text)), key) == _field(key, parsed)[0]
            continue
        with pytest.raises(ConfigError) as info:
            parse_config(_config_line(key, text))
        assert re.fullmatch(message, str(info.value)), text


# ----- the CLI: exit 2 naming the key or flag -----

def _cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# the smallest run: one pass of one search of 2 probes and one step
SMALL_RUN = {"n_dims": "2", "passes": "1", "nt": "1", "np0": "2", "ipd": "random", "seed": "1"}


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_run_config_applies_each_rule(tmp_path, capsys, key):
    for i, text in enumerate(TEXTS):
        lines = [f"{k} = {v}" for k, v in SMALL_RUN.items() if k != key]
        path = tmp_path / f"{i}.cfg"
        path.write_text("\n".join([*lines, _config_line(key, text)]) + "\n")
        out_dir = tmp_path / f"out{i}"
        code, out, err = _cli(["run", "--config", str(path), "--out", str(out_dir)], capsys)
        _, message = _config_verdict(key, text)
        if message is None:
            assert (code, err) == (0, ""), text
            assert (out_dir / "passes.csv").exists()
            continue
        assert code == 2, text
        assert re.fullmatch(f"error: {message}\n", err), (text, err)
        assert not out_dir.exists()


# (rule, how the message names the flag)
FLOORSCAN_FLAGS = {
    "--samples": (COUNT_1, "--samples"),
    "--dims": (COUNT_1, "--dims: n_dims"),  # make_objective's message, under the flag
    "--margin": (MARGIN, "--margin"),
}


@pytest.mark.parametrize("flag", sorted(FLOORSCAN_FLAGS))
def test_floorscan_applies_each_rule(capsys, flag):
    rule, name = FLOORSCAN_FLAGS[flag]
    base = ["floorscan", "--function", "schwefel226", "--threshold", "0", "--samples", "10"]
    for text in TEXTS:
        code, out, err = _cli([*base, f"{flag}={text}"], capsys)
        try:
            parsed = rule.parse(text)
        except ValueError:
            assert code == 2 and out == "", text
            assert f"argument {flag}: invalid" in err, (text, err)
            continue
        if rule.accepts(parsed):
            assert (code, err) == (0, ""), text
            assert len(out.split(",")) == 4
        else:
            assert code == 2 and out == "", text
            assert err == f"error: {_message(name, rule, parsed)}\n", text
