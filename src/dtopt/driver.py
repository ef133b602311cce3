"""The pass loop: rising thresholds, probe doubling, and run reporting.

Pass 1 searches the raw landscape, under a -inf threshold that floors
nothing. After every pass the schedule's ``next_threshold`` sets the
threshold from the fitness seen so far, and the probe count is doubled (to
keep exploring the progressively flatter landscape). With a
probe-line start each pass runs one search per gamma value in the sweep;
with a random start each pass is a single search drawing from one seeded
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cfo import CfoParams, OptResult, ProbeLine, RandomUniform, SwarmHistory, run_cfo
from .objectives import ObjectiveSpec
from .threshold import Schedule, ThresholdState

__all__ = ["DtoConfig", "PassRecord", "RunReport", "run_dto", "DEFAULT_GAMMA_SWEEP"]

DEFAULT_GAMMA_SWEEP = tuple(i / 10 for i in range(11))

# observer(pass_index, threshold_or_None, OptResult, SwarmHistory)
Observer = Callable[[int, float | None, OptResult, SwarmHistory], None]


@dataclass
class DtoConfig:
    num_passes: int
    schedule: Schedule
    cfo: CfoParams
    objective: ObjectiveSpec
    probe_doubling: bool = True
    gamma_sweep: tuple[float, ...] = DEFAULT_GAMMA_SWEEP

    def __post_init__(self):
        if self.num_passes < 1:
            raise ValueError("num_passes must be >= 1")
        if isinstance(self.cfo.ipd, ProbeLine):
            if len(self.gamma_sweep) == 0:
                raise ValueError("gamma_sweep must be non-empty in probe-line mode")
            if any(not 0.0 <= g <= 1.0 for g in self.gamma_sweep):
                raise ValueError("every gamma in the sweep must lie in [0, 1]")


@dataclass
class PassRecord:
    pass_index: int
    threshold: float | None  # None on pass 1, which runs without a floor
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
    the pass index, the threshold active during that pass (None on pass 1),
    the search result, and its full history.

    A NaN or +-inf objective value ends the run in ValueError naming the
    pass, the search (its gamma or seed), the step and the count.
    """
    objective = config.objective
    state = ThresholdState()
    rng = None
    if isinstance(config.cfo.ipd, RandomUniform):
        rng = np.random.default_rng(config.cfo.ipd.seed)

    n_probes = config.cfo.n_probes
    passes: list[PassRecord] = []
    evals_start = objective.eval_count

    for pass_index in range(1, config.num_passes + 1):
        threshold_used = state.t_current if state.enabled else None
        pass_best = -np.inf
        if isinstance(config.cfo.ipd, ProbeLine):
            runs = [replace(config.cfo, n_probes=n_probes, ipd=ProbeLine(g))
                    for g in config.gamma_sweep]
        else:
            runs = [replace(config.cfo, n_probes=n_probes)]
        for params in runs:
            try:
                result, history = run_cfo(params, objective, state, rng=rng)
            except ValueError as exc:
                search = (f"gamma {params.ipd.gamma}" if isinstance(params.ipd, ProbeLine)
                          else f"seed {params.ipd.seed}")
                raise ValueError(f"pass {pass_index}, search at {search}: {exc}") from exc
            if result.worst_value <= state.f_min:
                state.f_min = result.worst_value
            if result.best_value >= state.f_star:
                state.f_star = result.best_value
                best_coords = result.best_coords.copy()
            pass_best = max(pass_best, result.best_value)
            if observer is not None:
                observer(pass_index, threshold_used, result, history)
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
