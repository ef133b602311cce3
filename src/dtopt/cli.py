"""Command-line driver: run experiments, emit surface grids, scan the floor.

Output directory resolution for file-writing commands: ``--out`` flag, then
the ``DTO_OUTPUT_DIR`` environment variable, then the config's output_dir.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .driver import run_dto
from .floorscan import FLOOR_MARGIN, _check_margin, sample_threshold_floor
from .objectives import BENCHMARKS, _check_calls, _check_count, make_objective
from .report import (
    PROFILES,
    ConfigError,
    ExperimentConfig,
    fmt,
    parse_config,
    render_passes_csv,
    render_summary,
    render_surface,
    render_surface_command,
    to_dto_config,
    write_text,
)

__all__ = ["main"]

OUTPUT_DIR_ENV = "DTO_OUTPUT_DIR"


def _load_config(args) -> ExperimentConfig:
    if (args.config is None) == (args.profile is None):
        raise ConfigError("exactly one of --config or --profile is required")
    if args.profile is not None:
        return PROFILES[args.profile]
    try:  # utf-8-sig: a byte-order mark is not part of the first key
        with open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    return parse_config(text)


def _resolve_out_dir(args, config: ExperimentConfig) -> str:
    if args.out is not None:
        if not args.out:
            raise ConfigError("--out must be a non-empty path, got ''")
        return args.out
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return env
    return config.output_dir


def _cmd_run(args) -> int:
    config = _load_config(args)
    dto_config = to_dto_config(config, seed=args.seed)
    out_dir = _resolve_out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    report = run_dto(dto_config)
    write_text(os.path.join(out_dir, "summary.txt"), render_summary(report))
    write_text(os.path.join(out_dir, "passes.csv"), render_passes_csv(report))
    print(f"best fitness {report.best_value!r} after {report.total_evals} function calls"
          f" -> {out_dir}")
    return 0


def _check_threshold(threshold: float | None) -> None:
    if threshold is not None and not np.isfinite(threshold):
        raise ConfigError(f"--threshold must be finite, got {threshold}")


def _cmd_surface(args) -> int:
    config = _load_config(args)
    if config.n_dims != 2:
        raise ConfigError("surface grids require n_dims = 2")
    _check_threshold(args.threshold)
    objective = make_objective(config.function, config.n_dims)
    out_dir = _resolve_out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, "surface.dat")
    command_path = os.path.join(out_dir, "surface.gp")
    threshold = -np.inf if args.threshold is None else args.threshold  # -inf: no floor
    write_text(data_path, render_surface(objective.func, objective.space, threshold))
    write_text(command_path, render_surface_command(os.path.basename(data_path)))
    print(f"wrote {data_path} and {command_path}")
    return 0


def _cmd_floorscan(args) -> int:
    try:
        _check_count("--samples", args.samples, 1)
        _check_calls(args.samples, "--samples")
        _check_margin("--margin", args.margin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_threshold(args.threshold)
    try:
        objective = make_objective(args.function, args.dims)
    except ValueError as exc:
        raise ConfigError(f"--dims: {exc}") from exc
    stats = sample_threshold_floor(objective.func, objective.space, args.threshold,
                                   args.samples, args.margin)
    print(f"{fmt(stats.threshold_used)},{stats.n_samples},{stats.n_on_floor},{fmt(stats.p_above)}")
    return 0


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        help="named preset instead of a config file")
    parser.add_argument("--out", help="output directory (overrides config and env)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dto",
        description="Dynamic threshold optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run an experiment; writes summary.txt and passes.csv",
        description="Run an experiment and write summary.txt and passes.csv. Identical "
                    "configs give byte-identical files on one machine and BLAS build. Under "
                    "another BLAS core kernel the call counts and 5-decimal bests hold, and "
                    "trajectories can move in their last digits.")
    _add_config_options(run_p)
    run_p.add_argument("--seed", type=int,
                       help="override the config seed; only a config with ipd = random "
                            "takes one, any other ipd is an error")
    run_p.set_defaults(func=_cmd_run)

    surf_p = sub.add_parser("surface", help="emit a 100x100 fitness grid and a plot command file")
    _add_config_options(surf_p)
    surf_p.add_argument("--threshold", type=float, default=None,
                        help="floor the grid at this value")
    surf_p.set_defaults(func=_cmd_surface)

    floor_p = sub.add_parser("floorscan",
                             help="quasirandom floor-fraction estimate, printed as one CSV line")
    floor_p.add_argument("--function", required=True, choices=sorted(BENCHMARKS))
    floor_p.add_argument("--threshold", type=float, required=True)
    floor_p.add_argument("--samples", type=int, default=10_000)
    floor_p.add_argument("--margin", type=float, default=FLOOR_MARGIN)
    floor_p.add_argument("--dims", type=int, default=None,
                         help="dimensionality; defaults to the function's own (2 for "
                              "schwefel226, which alone accepts others)")
    floor_p.set_defaults(func=_cmd_floorscan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
