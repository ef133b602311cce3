"""Plain-text experiment configs and the bit-specified output files.

Configs are flat ``key = value`` text; unknown or duplicated keys are
rejected with the offending line number. Two named profiles reproduce the
reference experiments. Machine-readable outputs (CSV, surface and distance
data) use shortest round-trip float formatting; the human-readable
``summary.txt`` keeps the classic fixed layout with 3-decimal thresholds and
5-decimal fitnesses. Each ``render_*`` function returns a file's text, and
``write_text`` writes any of them with LF newlines.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, get_type_hints

import numpy as np

from .cfo import DEFAULT_GAMMA_SWEEP, CfoParams, ProbeLine, RandomUniform, SwarmHistory
from .driver import DtoConfig, RunReport, _run_size
from .objectives import (BENCHMARKS, DecisionSpace, _benchmark_dims, _check_calls,
                         _check_count, _check_fraction, _check_history, _check_type, _is_integer,
                         _is_number, _is_number_tuple, _LastBatch, _one_value_per_point,
                         make_objective)
from .threshold import LinearRamp, _check_floor

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "PROFILES",
    "parse_config",
    "to_dto_config",
    "render_summary",
    "render_passes_csv",
    "render_surface",
    "render_surface_command",
    "average_distance_to_best",
    "render_davg",
    "write_text",
]

_GRID_POINTS = 100  # per axis of a surface grid


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


class _FieldType(NamedTuple):
    parse: Callable[[str], object]  # a value's text in a config file
    accepts: Callable[[object], bool]  # a value given from Python
    noun: str  # what ``accepts`` wants, for the error


# Each field type of ExperimentConfig: how a config file's text parses (a
# tuple is comma-separated) and which Python values it takes, judged as
# CfoParams and ProbeLine judge them.
_FIELD_TYPES = {
    str: _FieldType(str, lambda v: isinstance(v, str), "a string"),
    int: _FieldType(int, _is_integer, "an integer"),
    float: _FieldType(float, _is_number, "a number"),
    bool: _FieldType(_parse_bool, lambda v: isinstance(v, bool), "a bool"),
    tuple[float, ...]: _FieldType(
        lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()),
        _is_number_tuple, "a tuple of numbers"),
}


class ConfigError(ValueError):
    """Malformed or out-of-range experiment config; the message names the
    offending line or key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """File-facing run description; see to_dto_config for the executable form.

    Frozen: derive a variant with ``dataclasses.replace``, which validates it.
    A config file's keys are these fields, and each field's type decides how
    its value parses (see parse_config).
    """

    function: str = "schwefel226"
    n_dims: int = 2
    passes: int = 6
    c_th: float = 0.6
    nt: int = 15
    np0: int = 4
    ipd: str = "probe_line"
    gamma_sweep: tuple[float, ...] = DEFAULT_GAMMA_SWEEP
    seed: int = 1
    probe_doubling: bool = True
    output_dir: str = "."

    # Not a field, a key or a setting: bench/workloads.closed_form_calls reads
    # it, and it goes when that read does (ROADMAP item 9).
    floor_repositioning = False

    def __post_init__(self):
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if not kind.accepts(value):
                raise ConfigError(f"{key} must be {kind.noun}, got {value!r}")
        if not self.output_dir:
            raise ConfigError("output_dir must be a non-empty path, got ''")
        for key, names in (("function", BENCHMARKS), ("ipd", ("probe_line", "random"))):
            if getattr(self, key) not in names:
                raise ConfigError(f"{key} must be one of {tuple(names)}")
        try:
            for key, least in (("n_dims", 1), ("passes", 1), ("np0", 1), ("nt", 0), ("seed", 0)):
                _check_count(key, getattr(self, key), least)
            _check_fraction("c_th", self.c_th, zero_ok=False)
            for i, gamma in enumerate(self.gamma_sweep):
                _check_fraction(f"gamma_sweep[{i}]", gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            n_dims = _benchmark_dims(self.function, self.n_dims)
        except ValueError as exc:
            raise ConfigError(f"n_dims: {exc}") from exc
        probe_line = self.ipd == "probe_line"
        if probe_line and not self.gamma_sweep:
            raise ConfigError("gamma_sweep must be non-empty for ipd = probe_line")
        last, calls = _run_size(self.np0, self.nt, self.passes, self.probe_doubling,
                                len(self.gamma_sweep) if probe_line else 1)
        doubled = self.probe_doubling and self.passes > 1
        keys = ("np0, passes, nt and n_dims (the last pass's n_probes is np0 * 2^(passes - 1))"
                if doubled else "np0, nt and n_dims")
        try:
            _check_history(last, self.nt, n_dims, keys)
            _check_calls(calls, "passes, np0, nt and gamma_sweep" if probe_line
                         else "passes, np0 and nt")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# Each key's field type, from its annotation.
_KEY_TYPES = {key: _FIELD_TYPES[hint] for key, hint in get_type_hints(ExperimentConfig).items()}


PROFILES = MappingProxyType({
    # Reference 2-D Schwefel run: random start, 10 passes, 106,392 calls total.
    "schwefel2d": ExperimentConfig(
        function="schwefel226", n_dims=2, passes=10, c_th=0.98, nt=25, np0=4, ipd="random", seed=1,
    ),
    # Reference 30-D Schwefel run: probe-line start with the 11-value gamma
    # sweep, 6 passes, 44,352 calls total.
    "schwefel30d": ExperimentConfig(
        function="schwefel226", n_dims=30, passes=6, c_th=0.6, nt=15, np0=4, ipd="probe_line",
    ),
})


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; blank lines and # comments are skipped.
    Text that is not a str raises ValueError naming it."""
    _check_type("text", text, str)
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key].parse(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def to_dto_config(config: ExperimentConfig, seed: int | None = None) -> DtoConfig:
    """Build the executable run description; ``seed`` overrides the config's,
    which only ipd = random reads: with any other ipd it raises ConfigError.
    The objective's function answers a batch equal to its previous one from
    that batch's result (see objectives._LastBatch); calls count as before.
    A config that is not an ExperimentConfig raises ValueError naming it."""
    _check_type("config", config, ExperimentConfig)
    if seed is not None:
        if config.ipd != "random":
            raise ConfigError(f"seed applies only to ipd = random, not to ipd = {config.ipd}")
        config = dataclasses.replace(config, seed=seed)
    objective = make_objective(config.function, config.n_dims)
    objective.func = _LastBatch(objective.func)
    return DtoConfig(
        num_passes=config.passes,
        schedule=LinearRamp(c_th=config.c_th),
        cfo=CfoParams(n_probes=config.np0, n_steps=config.nt),
        objective=objective,
        ipd=(ProbeLine(config.gamma_sweep) if config.ipd == "probe_line"
             else RandomUniform(config.seed)),
        probe_doubling=config.probe_doubling,
    )


def write_text(path, text: str) -> None:
    """Write a rendered output file with LF newlines on every platform.
    Text that is not a str raises ValueError naming it, before the file is
    opened."""
    _check_type("text", text, str)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def render_summary(report: RunReport) -> str:
    """The fixed-layout summary; the -inf threshold of pass 1 reads ``none``.
    A report that is not a RunReport raises ValueError naming it."""
    _check_type("report", report, RunReport)
    lines = [
        "RUN COMPLETED",
        "",
        f"Best Fitness Over All Passes = {report.best_value:.5f}",
        f"using {report.total_evals} function calls at coordinates",
    ]
    for i, coord in enumerate(report.best_coords, start=1):
        lines.append(f"x({i}) = {fmt(coord)}")
    lines.append("")
    lines.append("Pass#      Threshold      Best Fitness")
    for rec in report.passes:
        threshold = "none" if rec.threshold == -np.inf else f"{rec.threshold:.3f}"
        lines.append(f"{rec.pass_index:>4d}  {threshold:>15}  {rec.best_fitness:>16.5f}")
    return "\n".join(lines) + "\n"


def render_passes_csv(report: RunReport) -> str:
    """One CSV row per pass; the -inf threshold of pass 1 is an empty field.
    A report that is not a RunReport raises ValueError naming it."""
    _check_type("report", report, RunReport)
    lines = ["pass,threshold,best_fitness,cumulative_evals"]
    for rec in report.passes:
        threshold = "" if rec.threshold == -np.inf else fmt(rec.threshold)
        lines.append(
            f"{rec.pass_index},{threshold},{fmt(rec.best_fitness)},{rec.cumulative_evals}"
        )
    return "\n".join(lines) + "\n"


def render_surface(func, space: DecisionSpace, threshold: float) -> str:
    """Grid of ``x1 x2 z`` rows with a blank line after each constant-x1
    scanline, z floored at the threshold (-inf for the raw landscape).

    ``func`` gets one scanline as a batch and must return one real number
    per point; any other result raises ValueError, as does a ``func`` that is
    not callable or a ``space`` that is not a 2-D DecisionSpace.
    """
    _check_type("func", func, Callable)
    _check_type("space", space, DecisionSpace)
    if space.n_dims != 2:
        raise ValueError("surface grids require a 2-D decision space")
    _check_floor(threshold)
    dx1 = (space.upper[0] - space.lower[0]) / (_GRID_POINTS - 1)
    dx2 = (space.upper[1] - space.lower[1]) / (_GRID_POINTS - 1)
    x2_vals = space.lower[1] + dx2 * np.arange(_GRID_POINTS)
    lines = []
    for i in range(_GRID_POINTS):
        x1 = space.lower[0] + i * dx1
        row_points = np.column_stack([np.full(_GRID_POINTS, x1), x2_vals])
        z = np.maximum(_one_value_per_point(func(row_points), _GRID_POINTS), threshold)
        for k in range(_GRID_POINTS):
            lines.append(f"{fmt(x1)} {fmt(x2_vals[k])} {fmt(z[k])}")
        lines.append("")
    return "\n".join(lines) + "\n"


def render_surface_command(data_filename: str) -> str:
    """Plot command file that renders the emitted grid with gnuplot. A
    ``data_filename`` that is not a non-empty str, or that holds a '"' or a
    line break, which would end its quoted name, raises ValueError naming it."""
    if not (isinstance(data_filename, str) and data_filename
            and not set(data_filename) & set('"\n\r')):
        raise ValueError("data_filename must be a non-empty str without '\"' or a line "
                         f"break, got {data_filename!r}")
    return (
        "set pm3d\n"
        "set hidden3d\n"
        "set view 45, 45, 1, 1\n"
        f'splot "{data_filename}" notitle with lines\n'
    )


def average_distance_to_best(history: SwarmHistory, space: DecisionSpace) -> np.ndarray:
    """Per-step mean probe distance to that step's best probe, normalized by
    the decision-space diagonal; the best probe itself contributes zero.
    ``history`` is one that run_cfo returns with record=True.
    Anything but a SwarmHistory and a DecisionSpace of its dimension raises ValueError."""
    _check_type("history", history, SwarmHistory)
    _check_type("space", space, DecisionSpace)
    if space.n_dims != history.positions.shape[1]:
        raise ValueError(f"space must have the history's {history.positions.shape[1]} "
                         f"dimension(s), got {space.n_dims}")
    n_probes = history.n_probes
    if n_probes < 2:
        raise ValueError("average distance needs at least 2 probes")
    out = np.zeros(history.n_steps + 1)
    for j in range(history.n_steps + 1):
        column = history.fitness[:, j]
        best = n_probes - 1 - int(np.argmax(column[::-1]))  # later ties win
        deltas = history.positions[:, :, j] - history.positions[best, :, j]
        total = np.sqrt((deltas**2).sum(axis=1)).sum()
        out[j] = total / (space.diag_length * (n_probes - 1))
    return out


def render_davg(history: SwarmHistory, space: DecisionSpace) -> str:
    """``step distance`` rows of average_distance_to_best, one per step."""
    davg = average_distance_to_best(history, space)
    lines = [f"{j} {fmt(value)}" for j, value in enumerate(davg)]
    return "\n".join(lines) + "\n"

