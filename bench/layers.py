"""Per-layer instrumentation: which dtopt attributes are traced, the counters
taken at their boundaries, and the per-layer metrics computed from both.

Layers are dtopt's modules. Every span name below is a layer key; a layer's
``<key>.self_s`` metric is the self time of its spans per repetition.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import dtopt.cfo as cfo
import dtopt.driver as driver
import dtopt.floorscan as floorscan
from dtopt.objectives import ObjectiveSpec

from tracer import HOOK_SPAN, Tracer

# Span names set by the benchmark's own code rather than by a wrapped attribute.
REP_SPAN = "bench"              # one repetition, the root of its spans
DRIVER_SPAN = "driver"          # the benchmark's call of run_dto
SEARCH_SPAN = "cfo.search"      # run_cfo, entered from the driver
COUNT_SPAN = "floorscan.count"  # the benchmark's call of sample_threshold_floor
REPORT_SPAN = "report.render"   # render_summary / render_passes_csv and writing

# Every layer whose self times add up to the traced wall time of a repetition.
SELF_TIME_LAYERS = (
    REP_SPAN, DRIVER_SPAN, SEARCH_SPAN, "cfo.accel", "cfo.move", "cfo.scan",
    "objectives.eval", "threshold.apply", "floorscan.halton", COUNT_SPAN,
    REPORT_SPAN, HOOK_SPAN,
)


# Unit of every per-layer metric; self times and counts are per repetition.
LAYER_UNITS = {
    "cfo.accel.self_s": "s", "cfo.accel.calls": "count", "cfo.accel.pairs": "count",
    "cfo.accel.ns_per_pair": "ns", "cfo.accel.us_per_call": "us",
    "cfo.accel.useful_pair_frac": "frac", "cfo.accel.peak_alloc_mb": "MB",
    "cfo.move.self_s": "s", "cfo.retrieve.coords_frac": "frac", "cfo.scan.self_s": "s",
    "cfo.search.self_s": "s", "objectives.eval.self_s": "s", "objectives.eval.points": "count",
    "objectives.eval.ns_per_point": "ns", "threshold.apply.self_s": "s",
    "threshold.on_floor_frac": "frac", "driver.searches": "count", "driver.self_s": "s",
    "driver.last_pass_frac": "frac", "floorscan.halton.self_s": "s",
    "floorscan.samples": "count", "floorscan.count.self_s": "s", "report.render.self_s": "s",
    "bench.self_s": "s", "trace.self_s": "s", "trace.rep_s": "s", "trace.overhead_frac": "frac",
}


def useful_pairs(pos: np.ndarray, fit: np.ndarray) -> int:
    """Ordered probe pairs (p, k) where k is strictly fitter than p and the
    two sit at different positions: the pairs that can pull in the CFO kernel.

    Computed by sorting, O(N log N), instead of the kernel's N x N compare.
    """
    n = fit.size
    total = int((n - np.searchsorted(np.sort(fit), fit, side="right")).sum())
    # Rows compared as raw bytes; adding 0.0 turns -0.0 into 0.0 first.
    rows = np.ascontiguousarray(pos + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, group, counts = np.unique(keys, return_inverse=True, return_counts=True)
    for g in np.flatnonzero(counts > 1):
        same = fit[group == g]
        total -= int((same.size - np.searchsorted(np.sort(same), same, side="right")).sum())
    return total


@dataclass
class Counters:
    accel_calls: int = 0
    accel_pairs: int = 0
    accel_useful_pairs: int = 0
    coords_moved: int = 0
    coords_retrieved: int = 0
    eval_points: int = 0
    floored_points: int = 0
    on_floor_points: int = 0
    halton_samples: int = 0
    search_sizes: list[int] = field(default_factory=list)
    # Copy of the largest kernel input seen: (positions, fitness, params).
    largest_accel: tuple | None = None

    def before_accel(self, args):
        history, j, params = args
        pos = history.positions[:, :, j]
        fit = history.fitness[:, j]
        n = pos.shape[0]
        self.accel_calls += 1
        self.accel_pairs += n * n
        self.accel_useful_pairs += useful_pairs(pos, fit)
        if self.largest_accel is None or n > self.largest_accel[0].shape[0]:
            self.largest_accel = (pos.copy(), fit.copy(), params)

    def before_retrieve(self, args):
        history, j, _, space = args
        pos = history.positions[:, :, j]
        self.coords_moved += pos.size
        self.coords_retrieved += int(np.count_nonzero((pos < space.lower) | (pos > space.upper)))

    def after_eval(self, args, result):
        self.eval_points += int(np.shape(result)[0])

    def after_apply(self, args, result):
        _, state = args
        if state.enabled:
            self.floored_points += int(np.size(result))
            self.on_floor_points += int(np.count_nonzero(result == state.t_current))

    def before_search(self, args):
        self.search_sizes.append(args[0].n_probes)

    def after_halton(self, args, result):
        self.halton_samples += int(result.shape[0])


def instrument(tracer: Tracer, counters: Counters) -> list[tuple]:
    """(owner, attribute, traced replacement) for every attribute dtopt calls through."""
    def target(owner, attr, span, before=None, after=None):
        return owner, attr, tracer.wrap(span, getattr(owner, attr), before, after)

    return [
        target(driver, "run_cfo", SEARCH_SPAN, before=counters.before_search),
        target(cfo, "compute_accelerations", "cfo.accel", before=counters.before_accel),
        target(cfo, "step_positions", "cfo.move"),
        target(cfo, "retrieve_errant", "cfo.move", before=counters.before_retrieve),
        target(cfo, "apply_threshold", "threshold.apply", after=counters.after_apply),
        target(cfo, "scan_best", "cfo.scan"),
        target(cfo, "scan_worst", "cfo.scan"),
        target(ObjectiveSpec, "evaluate_batch", "objectives.eval", after=counters.after_eval),
        target(floorscan, "halton_points", "floorscan.halton", after=counters.after_halton),
    ]


def accel_peak_alloc_mb(largest_accel) -> float:
    """tracemalloc peak of one untraced compute_accelerations call on a copy
    of the largest input the traced run saw; 0 when the kernel never ran."""
    if largest_accel is None:
        return 0.0
    pos, fit, params = largest_accel
    history = cfo.SwarmHistory.allocate(pos.shape[0], pos.shape[1], 1)
    history.positions[:, :, 1] = pos
    history.fitness[:, 1] = fit
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cfo.compute_accelerations(history, 1, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _ratio(num: float, den: float) -> float:
    # A layer that did no work on a workload reports 0 for its ratios.
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, own: dict[str, int], counters: Counters,
                  n_reps: int) -> dict[str, float]:
    """Per-repetition layer metrics of a traced run of ``n_reps`` repetitions;
    ``own`` is the self time per span name (see tracer.self_time_by_name)."""
    unknown = set(own) - set(SELF_TIME_LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    per_rep = {name: own.get(name, 0) / 1e9 / n_reps for name in SELF_TIME_LAYERS}
    rep_ns = sum(end - start for name, start, end, _ in tracer.spans if name == REP_SPAN)

    # The last pass runs the searches with the most probes.
    search_ns = [end - start for name, start, end, _ in tracer.spans if name == SEARCH_SPAN]
    top = max(counters.search_sizes, default=0)
    last_pass_ns = sum(ns for ns, n in zip(search_ns, counters.search_sizes) if n == top)

    accel_s = own.get("cfo.accel", 0) / 1e9
    eval_s = own.get("objectives.eval", 0) / 1e9
    return {
        "cfo.accel.self_s": per_rep["cfo.accel"],
        "cfo.accel.calls": counters.accel_calls / n_reps,
        "cfo.accel.pairs": counters.accel_pairs / n_reps,
        "cfo.accel.ns_per_pair": _ratio(accel_s * 1e9, counters.accel_pairs),
        "cfo.accel.us_per_call": _ratio(accel_s * 1e6, counters.accel_calls),
        "cfo.accel.useful_pair_frac": _ratio(counters.accel_useful_pairs, counters.accel_pairs),
        "cfo.accel.peak_alloc_mb": accel_peak_alloc_mb(counters.largest_accel),
        "cfo.move.self_s": per_rep["cfo.move"],
        "cfo.retrieve.coords_frac": _ratio(counters.coords_retrieved, counters.coords_moved),
        "cfo.scan.self_s": per_rep["cfo.scan"],
        "cfo.search.self_s": per_rep[SEARCH_SPAN],
        "objectives.eval.self_s": per_rep["objectives.eval"],
        "objectives.eval.points": counters.eval_points / n_reps,
        "objectives.eval.ns_per_point": _ratio(eval_s * 1e9, counters.eval_points),
        "threshold.apply.self_s": per_rep["threshold.apply"],
        "threshold.on_floor_frac": _ratio(counters.on_floor_points, counters.floored_points),
        "driver.searches": len(counters.search_sizes) / n_reps,
        "driver.self_s": per_rep[DRIVER_SPAN],
        "driver.last_pass_frac": _ratio(last_pass_ns, rep_ns),
        "floorscan.halton.self_s": per_rep["floorscan.halton"],
        "floorscan.samples": counters.halton_samples / n_reps,
        "floorscan.count.self_s": per_rep[COUNT_SPAN],
        "report.render.self_s": per_rep[REPORT_SPAN],
        "bench.self_s": per_rep[REP_SPAN],
        "trace.self_s": per_rep[HOOK_SPAN],
        "trace.rep_s": rep_ns / 1e9 / n_reps,
    }
