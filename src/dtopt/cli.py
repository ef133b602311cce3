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
from .floorscan import DEFAULT_FLOOR_MARGIN, sample_threshold_floor
from .objectives import DecisionSpace, rastrigin_offset, schwefel226, sgo
from .report import (
    PROFILES,
    ConfigError,
    ExperimentConfig,
    fmt,
    parse_config,
    to_dto_config,
    write_passes_csv,
    write_summary,
    write_surface,
)

__all__ = ["main"]

OUTPUT_DIR_ENV = "DTO_OUTPUT_DIR"


def _ramp(points):
    # 1-D diagnostic objective f(x) = x on [0, 1]
    return np.asarray(points, dtype=float)[..., 0]


_FLOORSCAN_FUNCS = {
    "schwefel226": schwefel226,
    "rastrigin_offset": rastrigin_offset,
    "sgo": sgo,
    "ramp": _ramp,
}


def _floorscan_space(function: str, dims: int) -> DecisionSpace:
    if function == "ramp":
        return DecisionSpace.cube(1, 0.0, 1.0)
    if function == "schwefel226":
        return DecisionSpace.cube(dims, -500.0, 500.0)
    if function == "rastrigin_offset":
        return DecisionSpace.cube(2, -5.12, 5.12)
    return DecisionSpace.cube(2, -50.0, 50.0)


def _load_config(args) -> ExperimentConfig:
    if (args.config is None) == (args.profile is None):
        raise ConfigError("exactly one of --config or --profile is required")
    if args.profile is not None:
        return PROFILES[args.profile]
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    return parse_config(text)


def _resolve_out_dir(args, config: ExperimentConfig) -> str:
    if args.out is not None:
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
    write_summary(report, os.path.join(out_dir, "summary.txt"))
    write_passes_csv(report, os.path.join(out_dir, "passes.csv"))
    print(f"best fitness {report.best_value!r} after {report.total_evals} function calls"
          f" -> {out_dir}")
    return 0


def _cmd_surface(args) -> int:
    config = _load_config(args)
    if config.n_dims != 2:
        raise ConfigError("surface grids require n_dims = 2")
    out_dir = _resolve_out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    func = _FLOORSCAN_FUNCS[config.function]
    space = _floorscan_space(config.function, config.n_dims)
    data_path = os.path.join(out_dir, "surface.dat")
    command_path = os.path.join(out_dir, "surface.gp")
    write_surface(func, space, args.threshold, data_path, command_path)
    print(f"wrote {data_path} and {command_path}")
    return 0


def _check_floorscan_args(args) -> None:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if args.dims < 1:
        raise ConfigError(f"--dims must be >= 1, got {args.dims}")
    if not np.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    if not (np.isfinite(args.margin) and args.margin >= 0.0):
        raise ConfigError(f"--margin must be finite and >= 0, got {args.margin}")


def _cmd_floorscan(args) -> int:
    _check_floorscan_args(args)
    func = _FLOORSCAN_FUNCS[args.function]
    space = _floorscan_space(args.function, args.dims)
    stats = sample_threshold_floor(func, space, args.threshold, args.samples, args.margin)
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

    run_p = sub.add_parser("run", help="run an experiment; writes summary.txt and passes.csv")
    _add_config_options(run_p)
    run_p.add_argument("--seed", type=int, help="override the config seed (random start only)")
    run_p.set_defaults(func=_cmd_run)

    surf_p = sub.add_parser("surface", help="emit a 100x100 fitness grid and a plot command file")
    _add_config_options(surf_p)
    surf_p.add_argument("--threshold", type=float, default=None,
                        help="floor the grid at this value")
    surf_p.set_defaults(func=_cmd_surface)

    floor_p = sub.add_parser("floorscan",
                             help="quasirandom floor-fraction estimate, printed as one CSV line")
    floor_p.add_argument("--function", required=True, choices=sorted(_FLOORSCAN_FUNCS))
    floor_p.add_argument("--threshold", type=float, required=True)
    floor_p.add_argument("--samples", type=int, default=10_000)
    floor_p.add_argument("--margin", type=float, default=DEFAULT_FLOOR_MARGIN)
    floor_p.add_argument("--dims", type=int, default=2,
                         help="dimensionality (schwefel226 only)")
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
