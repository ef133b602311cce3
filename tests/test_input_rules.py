"""Each input rule at every entry point that applies it.

A rule is stated once in the library (a count, a fraction in [0, 1] or
(0, 1], a margin). Every entry point gets the same verdict for the same
value and names its own field, key or flag in the rule's own words: a
ValueError from the library, a ConfigError from a config, and exit 2 from
the CLI. The rules are restated here as the oracle, apart from the code.
"""

import math
import numbers
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from dtopt.cfo import CfoParams, ProbeLine, SwarmHistory, run_cfo
from dtopt.cli import main
from dtopt.floorscan import halton_points, sample_threshold_floor
from dtopt.objectives import DecisionSpace, make_objective, ramp
from dtopt.report import ConfigError, ExperimentConfig, parse_config
from dtopt.threshold import LinearRamp


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
    "largest": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 1}, None),
    "doubled past it": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 2},
                        DOUBLING_KEYS),
    "largest without doubling": ({"n_dims": 1, "np0": 2**60 - 1, "nt": 0, "passes": 10**30,
                                  "probe_doubling": False}, None),
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
