"""The pass loop: rising thresholds, probe doubling, and run reporting.

Pass 1 searches the raw landscape, under a -inf threshold that floors
nothing. After every pass the schedule's ``next_threshold`` sets the
threshold from the fitness seen so far, and the probe count is doubled (to
keep exploring the progressively flatter landscape). ``DtoConfig.ipd`` is
the run's one start description: with ``ProbeLine`` each pass runs one search
per gamma in its ``gammas``; with ``RandomUniform`` each pass is a single
search, and every pass draws from one generator seeded once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cfo import CfoParams, OptResult, ProbeLine, RandomUniform, SwarmHistory, run_cfo
from .objectives import ObjectiveSpec, _check_count, _check_objective, _check_type
from .threshold import Schedule, ThresholdState

__all__ = ["DtoConfig", "PassRecord", "RunReport", "run_dto"]

# observer(pass_index, threshold, OptResult, SwarmHistory)
Observer = Callable[[int, float, OptResult, SwarmHistory], None]


@dataclass
class DtoConfig:
    """A run's components, each checked once, when the config is built."""

    num_passes: int
    schedule: Schedule
    cfo: CfoParams
    objective: ObjectiveSpec
    ipd: ProbeLine | RandomUniform
    probe_doubling: bool = True

    def __post_init__(self):
        _check_count("num_passes", self.num_passes, 1)
        _check_type("probe_doubling", self.probe_doubling, bool)
        if not callable(getattr(self.schedule, "next_threshold", None)):
            raise ValueError("schedule must have a callable next_threshold, "
                             f"got {self.schedule!r}")
        _check_type("cfo", self.cfo, CfoParams)
        _check_objective("objective", self.objective)
        _check_type("ipd", self.ipd, ProbeLine, RandomUniform)


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


def run_dto(config: DtoConfig, observer: Observer | None = None) -> RunReport:
    """Run the full threshold-compression loop and report the best point found.

    The reported best value is the floored fitness recorded when the point was
    found; for a best point strictly above every floor it equals the raw
    fitness. ``observer``, when given, is called after every inner search with
    the pass index, the threshold active during that pass (-inf on pass 1),
    the search result, and its full history.

    A NaN or +-inf objective value ends the run in ValueError naming the
    pass, the search (its gamma or seed), the step and the count.
    """
    objective = config.objective
    state = ThresholdState()
    # (start, label) per search of a pass; the label names it in errors
    if isinstance(config.ipd, ProbeLine):
        starts = [(gamma, f"gamma {gamma}") for gamma in config.ipd.gammas]
    else:
        starts = [(np.random.default_rng(config.ipd.seed), f"seed {config.ipd.seed}")]

    n_probes = config.cfo.n_probes
    passes: list[PassRecord] = []
    evals_start = objective.eval_count

    for pass_index in range(1, config.num_passes + 1):
        threshold_used = state.t_current
        pass_best = -np.inf
        params = replace(config.cfo, n_probes=n_probes)
        for start, search in starts:
            try:
                result, history = run_cfo(params, objective, start, state)
            except ValueError as exc:
                raise ValueError(f"pass {pass_index}, search at {search}: {exc}") from exc
            if result.worst_value <= state.f_min:
                state.f_min = result.worst_value
            if result.best_value >= state.f_star:
                state.f_star = result.best_value
                best_coords = result.best_coords.copy()
            pass_best = max(pass_best, result.best_value)
            if observer is not None:
                observer(pass_index, threshold_used, result, history)
            # free it before the next search, whose history may be twice as large
            del history
        passes.append(PassRecord(
            pass_index=pass_index,
            threshold=threshold_used,
            best_fitness=pass_best,
            cumulative_evals=objective.eval_count - evals_start,
        ))
        state.t_current = config.schedule.next_threshold(
            pass_index, config.num_passes, state, pass_best)
        if config.probe_doubling:
            n_probes *= 2

    return RunReport(
        best_coords=best_coords,
        best_value=state.f_star,
        total_evals=objective.eval_count - evals_start,
        passes=passes,
    )
