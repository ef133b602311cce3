"""Plain-text experiment configs and the bit-specified output files.

Configs are flat ``key = value`` text; unknown or duplicated keys are
rejected with the offending line number. Two named profiles reproduce the
reference experiments. Machine-readable outputs (CSV, surface and distance
data) use shortest round-trip float formatting; the human-readable
``summary.txt`` keeps the classic fixed layout with 3-decimal thresholds and
5-decimal fitnesses.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .cfo import DEFAULT_GAMMA_SWEEP, CfoParams, ProbeLine, RandomUniform, SwarmHistory
from .driver import DtoConfig, RunReport
from .objectives import BENCHMARKS, DecisionSpace, benchmark_dims, make_objective
from .threshold import BestFitness, LinearRamp

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "PROFILES",
    "parse_config",
    "to_dto_config",
    "fmt",
    "render_summary",
    "write_summary",
    "render_passes_csv",
    "write_passes_csv",
    "write_surface",
    "average_distance_to_best",
    "write_davg",
    "SURFACE_GRID_POINTS",
]

SURFACE_GRID_POINTS = 100

_SCHEDULES = ("linear", "best_fitness")
_IPDS = ("probe_line", "random")


class ConfigError(ValueError):
    """Malformed or out-of-range experiment config; the message names the
    offending line or key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """File-facing run description; see to_dto_config for the executable form.

    Frozen: derive a variant with ``dataclasses.replace``, which validates it.
    """

    function: str = "schwefel226"
    n_dims: int = 2
    passes: int = 6
    c_th: float = 0.6
    schedule: str = "linear"
    nt: int = 15
    np0: int = 4
    ipd: str = "probe_line"
    gamma_sweep: tuple[float, ...] = DEFAULT_GAMMA_SWEEP
    seed: int = 1
    probe_doubling: bool = True
    floor_repositioning: bool = False
    output_dir: str = "."

    def __post_init__(self):
        if self.function not in BENCHMARKS:
            raise ConfigError(f"function must be one of {tuple(BENCHMARKS)}")
        if self.schedule not in _SCHEDULES:
            raise ConfigError(f"schedule must be one of {_SCHEDULES}")
        if self.ipd not in _IPDS:
            raise ConfigError(f"ipd must be one of {_IPDS}")
        for key in ("n_dims", "passes", "np0"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        try:
            benchmark_dims(self.function, self.n_dims)
        except ValueError as exc:
            raise ConfigError(f"n_dims: {exc}") from exc
        if self.nt < 0:
            raise ConfigError("nt must be >= 0")
        if not 0.0 < self.c_th <= 1.0:
            raise ConfigError("c_th must lie in (0, 1]")
        if self.ipd == "probe_line" and not self.gamma_sweep:
            raise ConfigError("gamma_sweep must be non-empty for ipd = probe_line")
        if any(not 0.0 <= g <= 1.0 for g in self.gamma_sweep):
            raise ConfigError("every gamma in gamma_sweep must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


PROFILES = MappingProxyType({
    # Reference 2-D Schwefel run: random start, 10 passes, 106,392 calls total.
    "schwefel2d": ExperimentConfig(
        function="schwefel226", n_dims=2, passes=10, c_th=0.98, schedule="linear",
        nt=25, np0=4, ipd="random", seed=1,
    ),
    # Reference 30-D Schwefel run: probe-line start with the 11-value gamma
    # sweep, 6 passes, 44,352 calls total.
    "schwefel30d": ExperimentConfig(
        function="schwefel226", n_dims=30, passes=6, c_th=0.6, schedule="linear",
        nt=15, np0=4, ipd="probe_line",
    ),
})


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_PARSERS = {
    "function": str,
    "n_dims": int,
    "passes": int,
    "c_th": float,
    "schedule": str,
    "nt": int,
    "np0": int,
    "ipd": str,
    "gamma_sweep": lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()),
    "seed": int,
    "probe_doubling": _parse_bool,
    "floor_repositioning": _parse_bool,
    "output_dir": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; blank lines and # comments are skipped."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(str(exc)) from exc


def to_dto_config(config: ExperimentConfig, seed: int | None = None) -> DtoConfig:
    """Build the executable run description; ``seed`` overrides the config's."""
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    objective = make_objective(config.function, config.n_dims)
    if config.ipd == "probe_line":
        ipd = ProbeLine(config.gamma_sweep)
    else:
        ipd = RandomUniform(config.seed)
    cfo = CfoParams(
        n_probes=config.np0,
        n_steps=config.nt,
        floor_repositioning=config.floor_repositioning,
    )
    if config.schedule == "linear":
        schedule = LinearRamp(c_th=config.c_th)
    else:
        schedule = BestFitness()
    return DtoConfig(
        num_passes=config.passes,
        schedule=schedule,
        cfo=cfo,
        objective=objective,
        ipd=ipd,
        probe_doubling=config.probe_doubling,
    )


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def render_summary(report: RunReport) -> str:
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
        threshold = "none" if rec.threshold is None else f"{rec.threshold:.3f}"
        lines.append(f"{rec.pass_index:>4d}  {threshold:>15}  {rec.best_fitness:>16.5f}")
    return "\n".join(lines) + "\n"


def write_summary(report: RunReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_summary(report))


def render_passes_csv(report: RunReport) -> str:
    lines = ["pass,threshold,best_fitness,cumulative_evals"]
    for rec in report.passes:
        threshold = "" if rec.threshold is None else fmt(rec.threshold)
        lines.append(
            f"{rec.pass_index},{threshold},{fmt(rec.best_fitness)},{rec.cumulative_evals}"
        )
    return "\n".join(lines) + "\n"


def write_passes_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_passes_csv(report))


def render_surface(func, space: DecisionSpace, threshold: float | None,
                   n_points: int = SURFACE_GRID_POINTS) -> str:
    """Grid of ``x1 x2 z`` rows with a blank line after each constant-x1 scanline."""
    if space.n_dims != 2:
        raise ValueError("surface grids require a 2-D decision space")
    dx1 = (space.upper[0] - space.lower[0]) / (n_points - 1)
    dx2 = (space.upper[1] - space.lower[1]) / (n_points - 1)
    x2_vals = space.lower[1] + dx2 * np.arange(n_points)
    lines = []
    for i in range(n_points):
        x1 = space.lower[0] + i * dx1
        row_points = np.column_stack([np.full(n_points, x1), x2_vals])
        z = np.asarray(func(row_points), dtype=float)
        if threshold is not None:
            z = np.maximum(z, threshold)
        for k in range(n_points):
            lines.append(f"{fmt(x1)} {fmt(x2_vals[k])} {fmt(z[k])}")
        lines.append("")
    return "\n".join(lines) + "\n"


def render_surface_command(data_filename: str) -> str:
    """Plot command file that renders the emitted grid with gnuplot."""
    return (
        "set pm3d\n"
        "set hidden3d\n"
        "set view 45, 45, 1, 1\n"
        f'splot "{data_filename}" notitle with lines\n'
    )


def write_surface(func, space: DecisionSpace, threshold: float | None,
                  data_path, command_path=None, n_points: int = SURFACE_GRID_POINTS) -> None:
    with open(data_path, "w", newline="\n") as fh:
        fh.write(render_surface(func, space, threshold, n_points))
    if command_path is not None:
        with open(command_path, "w", newline="\n") as fh:
            fh.write(render_surface_command(os.path.basename(str(data_path))))


def average_distance_to_best(history: SwarmHistory, space: DecisionSpace) -> np.ndarray:
    """Per-step mean probe distance to that step's best probe, normalized by
    the decision-space diagonal; the best probe itself contributes zero."""
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
    davg = average_distance_to_best(history, space)
    lines = [f"{j} {fmt(value)}" for j, value in enumerate(davg)]
    return "\n".join(lines) + "\n"


def write_davg(history: SwarmHistory, space: DecisionSpace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_davg(history, space))
