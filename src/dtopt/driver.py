"""The pass loop: rising thresholds, probe doubling, and run reporting.

Pass 1 searches the raw landscape, under a -inf threshold that floors
nothing. After every pass the schedule's ``next_threshold`` sets the
threshold from the fitness seen so far, handed to it as plain numbers, and
the probe count is doubled (to keep exploring the progressively flatter
landscape). ``DtoConfig.ipd`` is the run's one start description: with
``ProbeLine`` each pass runs one search per gamma in its ``gammas``; with
``RandomUniform`` each pass is a single search, and every pass draws from one
generator seeded once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .cfo import CfoParams, ProbeLine, RandomUniform, run_cfo
from .objectives import ObjectiveSpec, _check_calls, _check_count, _check_history, _check_type
from .threshold import _check_floor

__all__ = ["DtoConfig", "PassRecord", "RunReport", "run_dto"]


class _Schedule(Protocol):
    """What a run asks of its schedule: the threshold for pass k + 1 after
    completed pass k of num_passes, from the run's best and worst fitness so
    far and the best of pass k (threshold.LinearRamp is the shipped one)."""

    def next_threshold(self, k: int, num_passes: int, f_star: float, f_min: float,
                       pass_best: float) -> float: ...


def _run_size(n_probes: int, n_steps: int, num_passes: int, doubling: bool,
              searches: int) -> tuple[int, int]:
    """A run's last-pass probe count and its objective calls, from checked
    counts: n_probes * (2^num_passes - 1) * (n_steps + 1) * searches with
    probe doubling, n_probes * num_passes * (n_steps + 1) * searches without.
    Python ints, and 2^num_passes is never built: from 61 doublings on both
    exceed objectives._MAX_VALUES, so the shift stops at 63."""
    last = n_probes << (min(num_passes - 1, 63) if doubling else 0)
    probes = 2 * last - n_probes if doubling else n_probes * num_passes
    return last, probes * (n_steps + 1) * searches


@dataclass(frozen=True)
class DtoConfig:
    """A run's components and sizes, each checked once, when it is built:
    the last pass's history (objectives._check_history) and the run's calls
    (objectives._check_calls). Frozen, as are its cfo, ipd and LinearRamp:
    dataclasses.replace makes a checked variant. Its objective is mutable."""

    num_passes: int
    schedule: _Schedule
    cfo: CfoParams
    objective: ObjectiveSpec
    ipd: ProbeLine | RandomUniform
    probe_doubling: bool = True

    def __post_init__(self):
        _check_count("num_passes", self.num_passes, 1)
        _check_type("probe_doubling", self.probe_doubling, bool)
        # a class has a callable next_threshold too, unbound, one argument short
        if isinstance(self.schedule, type) or not callable(
                getattr(self.schedule, "next_threshold", None)):
            raise ValueError("schedule must be an object with a callable next_threshold, "
                             f"got {self.schedule!r}")
        _check_type("cfo", self.cfo, CfoParams)
        _check_type("objective", self.objective, ObjectiveSpec)
        _check_type("ipd", self.ipd, ProbeLine, RandomUniform)
        searches = len(self.ipd.gammas) if isinstance(self.ipd, ProbeLine) else 1
        last, calls = _run_size(self.cfo.n_probes, self.cfo.n_steps, self.num_passes,
                                self.probe_doubling, searches)
        _check_history(last, self.cfo.n_steps, self.objective.space.n_dims, "num_passes, "
                       "cfo.n_probes, cfo.n_steps and objective.space.n_dims (the last pass)")
        _check_calls(calls, "num_passes, cfo.n_probes, cfo.n_steps and ipd")


@dataclass
class PassRecord:
    pass_index: int
    threshold: float  # -inf on pass 1, which runs without a floor
    best_fitness: float
    cumulative_evals: int


@dataclass
class RunReport:
    best_coords: np.ndarray
    best_value: float
    total_evals: int
    passes: list[PassRecord]


def run_dto(config: DtoConfig) -> RunReport:
    """Run the full threshold-compression loop and report the best point found.

    The reported best value is the floored fitness recorded when the point was
    found; for a best point strictly above every floor it equals the raw
    fitness.

    A NaN or +-inf objective value, or a result that evaluate_batch refuses,
    ends the run in ValueError naming the pass, the search (its gamma or
    seed) and the step. A schedule whose next threshold is not a number, or is
    NaN or +inf, ends it in ValueError naming the schedule's type and the pass.
    A config that is not a DtoConfig raises ValueError naming it.
    """
    _check_type("config", config, DtoConfig)
    objective = config.objective
    threshold, f_star, f_min = -np.inf, -np.inf, np.inf
    # (start, label) per search of a pass; the label names it in errors
    if isinstance(config.ipd, ProbeLine):
        starts = [(gamma, f"gamma {gamma}") for gamma in config.ipd.gammas]
    else:
        starts = [(np.random.default_rng(config.ipd.seed), f"seed {config.ipd.seed}")]

    params = config.cfo
    passes: list[PassRecord] = []
    evals_start = objective.eval_count

    for pass_index in range(1, config.num_passes + 1):
        pass_best = -np.inf
        for start, search in starts:
            try:
                result = run_cfo(params, objective, start, threshold)[0]  # no history
            except ValueError as exc:
                raise ValueError(f"pass {pass_index}, search at {search}: {exc}") from exc
            if result.worst_value <= f_min:
                f_min = result.worst_value
            if result.best_value >= f_star:
                f_star = result.best_value
                best_coords = result.best_coords.copy()
            pass_best = max(pass_best, result.best_value)
        passes.append(PassRecord(
            pass_index=pass_index,
            threshold=threshold,
            best_fitness=pass_best,
            cumulative_evals=objective.eval_count - evals_start,
        ))
        threshold = config.schedule.next_threshold(
            pass_index, config.num_passes, f_star, f_min, pass_best)
        try:
            _check_floor(threshold)
        except ValueError as exc:
            raise ValueError(f"schedule {type(config.schedule).__name__} after pass "
                             f"{pass_index}: {exc}") from exc
        if config.probe_doubling:
            params = replace(params, n_probes=2 * params.n_probes)

    return RunReport(
        best_coords=best_coords,
        best_value=f_star,
        total_evals=objective.eval_count - evals_start,
        passes=passes,
    )
