"""The benchmark's workloads: their inputs, one repetition each, and the
checks on its outputs.

Every workload drives dtopt through its public functions only. A
repetition returns what it produced and the checks it failed; run-level
checks (the median quality gate, same-input reproducibility) look across
repetitions.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dtopt.floorscan as floorscan
from dtopt import run_dto
from dtopt.objectives import make_objective
from dtopt.report import PROFILES, ExperimentConfig, render_passes_csv, render_summary, to_dto_config

from layers import COUNT_SPAN, DRIVER_SPAN, REP_SPAN, REPORT_SPAN


def _gammas(config: ExperimentConfig) -> int:
    """Searches per pass: one per gamma with probe-line starts, else one."""
    return len(config.gamma_sweep) if config.ipd == "probe_line" else 1


def closed_form_calls(config: ExperimentConfig) -> int:
    """Function calls of a run: np0 * (2^P - 1) * (nt + 1) * |gammas|, with
    |gammas| = 1 for random starts. Holds with probe doubling on and floor
    repositioning off, which every profile the benchmark runs has."""
    if not config.probe_doubling or config.floor_repositioning:
        raise ValueError("the closed form needs probe doubling on and floor repositioning off")
    return config.np0 * (2**config.passes - 1) * (config.nt + 1) * _gammas(config)


def searches_per_run(config: ExperimentConfig) -> int:
    return config.passes * _gammas(config)


def closed_form_pairs(config: ExperimentConfig) -> int:
    """Sum of N^2 over the kernel calls of a run: nt calls per search."""
    per_search = sum((config.np0 * 2**k) ** 2 for k in range(config.passes))
    return config.nt * _gammas(config) * per_search


@dataclass
class Rep:
    """One repetition's results: evaluations done, best value (search
    workloads), the output bytes, and the names of the checks that failed."""

    evals: int
    best: float | None
    output: bytes
    failures: list[str] = field(default_factory=list)


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


class SearchWorkload:
    """run_dto over one profile, writing summary.txt and passes.csv per repetition."""

    def __init__(self, profile: str, seed: int, out_dir: Path, best_gate: float):
        self.config = PROFILES[profile]
        self.out_dir = out_dir
        self.best_gate = best_gate
        self.calls = closed_form_calls(self.config)
        self.searches = searches_per_run(self.config)
        self.pairs = closed_form_pairs(self.config)
        self.known_max = make_objective(self.config.function, self.config.n_dims).known_max_value
        self._seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, size=10_000)

    def input(self, i: int):
        """Run seed of repetition i, None for a probe-line start, which has no
        randomness. The second repetition repeats the first seed, so every run
        checks same-seed reproducibility."""
        if self.config.ipd != "random":
            return None
        return int(self._seeds[max(i - 1, 0)])

    def run(self, seed, tracer=None) -> Rep:
        with _span(tracer, REP_SPAN):
            config = to_dto_config(self.config, seed=seed)
            with _span(tracer, DRIVER_SPAN):
                report = run_dto(config)
            with _span(tracer, REPORT_SPAN):
                summary = render_summary(report)
                passes = render_passes_csv(report)
                for name, text in (("summary.txt", summary), ("passes.csv", passes)):
                    with open(self.out_dir / name, "w", newline="\n") as fh:
                        fh.write(text)
            failures = []
            if report.total_evals != self.calls:
                failures.append(f"total_evals {report.total_evals} != closed form {self.calls}")
            if report.passes[-1].cumulative_evals != self.calls:
                failures.append("passes.csv cumulative_evals disagrees with the closed form")
            if config.objective.eval_count != self.calls:
                failures.append("eval_count disagrees with the closed form")
        output = (summary + passes).encode()
        return Rep(evals=report.total_evals, best=report.best_value, output=output, failures=failures)

    def run_checks(self, inputs, reps) -> list[str]:
        failures = []
        best_by_input = {}
        for key, rep in zip(inputs, reps):
            if key in best_by_input and best_by_input[key][1] != rep.output:
                failures.append(f"input {key}: repeated run gave different output bytes")
            best_by_input.setdefault(key, (rep.best, rep.output))
        median_best = statistics.median(best for best, _ in best_by_input.values())
        if median_best < self.best_gate:
            failures.append(f"median best {median_best} below the gate {self.best_gate}")
        return failures

    def best_frac(self, inputs, reps) -> float:
        best = {key: rep.best for key, rep in zip(inputs, reps)}
        return statistics.median(best.values()) / self.known_max


# Threshold ladder over 2-D Schwefel (range about -838..838), as in
# demos/floor_fraction_ladder.py but with 250,000 Halton samples per rung.
LADDER_THRESHOLDS = tuple(float(t) for t in np.linspace(-800.0, 837.9, 12))
LADDER_SAMPLES = 250_000
# n_on_floor per rung, recorded from dtopt's sample_threshold_floor at the
# commit that introduced this benchmark.
LADDER_N_ON_FLOOR = (236, 2107, 8166, 25610, 57512, 104275, 158849, 202005, 230175,
                     244041, 248640, 250000)


class FloorLadderWorkload:
    """sample_threshold_floor on 2-D Schwefel at every rung of a fixed ladder."""

    def input(self, i: int):
        return None

    def run(self, _input, tracer=None) -> Rep:
        with _span(tracer, REP_SPAN):
            objective = make_objective("schwefel226", 2)
            stats = []
            for threshold in LADDER_THRESHOLDS:
                with _span(tracer, COUNT_SPAN):
                    stats.append(floorscan.sample_threshold_floor(
                        objective.evaluate_batch, objective.space, threshold, LADDER_SAMPLES))
            n_on_floor = tuple(s.n_on_floor for s in stats)
            failures = []
            if n_on_floor != LADDER_N_ON_FLOOR:
                failures.append(f"n_on_floor {n_on_floor} != recorded {LADDER_N_ON_FLOOR}")
            p_above = [s.p_above for s in stats]
            if any(later > earlier for earlier, later in zip(p_above, p_above[1:])):
                failures.append("p_above increases as the threshold rises")
            expected = LADDER_SAMPLES * len(LADDER_THRESHOLDS)
            if objective.eval_count != expected:
                failures.append(f"eval_count {objective.eval_count} != {expected}")
        output = "".join(f"{s.threshold_used!r},{s.n_samples},{s.n_on_floor},{s.p_above!r}\n"
                         for s in stats).encode()
        return Rep(evals=objective.eval_count, best=None, output=output, failures=failures)

    def run_checks(self, inputs, reps) -> list[str]:
        if any(rep.output != reps[0].output for rep in reps):
            return ["repetitions of the same ladder gave different output bytes"]
        return []
