"""dtopt benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload sweep2d --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; dtopt is imported from ./src. Each
workload is a closed loop with one caller: a repetition starts when the
previous one has finished. Human-readable lines go first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a second, traced pass over the same inputs. Detailed
results and the recorded spans are written under ./.bench_out. The exit code
is non-zero when any output check fails. See bench/README.md.

BLAS runs one thread, so the closed loop occupies one core; on the 2-vCPU
machine the benchmark was written on, two threads gave the same wall time at
twice the CPU time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is first imported, here or in a set-up child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep2d", "probe30d", "floor_ladder")

# What a fresh interpreter runs to get ready to search, per workload.
SETUP_CODE = {
    "sweep2d": ("import dtopt\nfrom dtopt.report import PROFILES, to_dto_config\n"
                "to_dto_config(PROFILES['schwefel2d'], seed={seed})\n"),
    "probe30d": ("import dtopt\nfrom dtopt.report import PROFILES, to_dto_config\n"
                 "to_dto_config(PROFILES['schwefel30d'])\n"),
    "floor_ladder": ("import dtopt\nfrom dtopt.objectives import make_objective\n"
                     "make_objective('schwefel226', 2)\n"),
}
READY = "import time\nprint(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
SETUP_SAMPLES = 9
MIN_REPS = 3  # a repeated seed plus a median over at least two seeds

END_TO_END_UNITS = {"run_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def make_workload(name: str, seed: int, out_dir: Path):
    from workloads import FloorLadderWorkload, SearchWorkload

    if name == "sweep2d":
        return SearchWorkload("schwefel2d", seed, out_dir, best_gate=830.0)
    if name == "probe30d":
        return SearchWorkload("schwefel30d", seed, out_dir, best_gate=12_400.0)
    return FloorLadderWorkload()


def timed_rep(workload, key, tracer=None):
    start = time.perf_counter()
    rep = workload.run(key, tracer)
    return rep, time.perf_counter() - start


def closed_loop(workload, seconds: float, reference=None):
    """Run repetitions one after another until ``seconds`` have passed and at
    least MIN_REPS ran. Returns the inputs, the repetitions, their wall times
    and, given a reference (a callable that runs it and returns its wall
    time), the reference's times: one before the first repetition and one
    after each, so that two of them surround every repetition."""
    inputs, reps, times, ref_times = [], [], [], []
    deadline = time.perf_counter() + seconds
    if reference is not None:
        reference()  # warm-up: first touch of the reference's arrays
        ref_times.append(reference())
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        inputs.append(workload.input(len(reps)))
        rep, seconds_taken = timed_rep(workload, inputs[-1])
        reps.append(rep)
        times.append(seconds_taken)
        if reference is not None:
            ref_times.append(reference())
    return inputs, reps, times, ref_times


def host_scaled(times: list[float], ref_times: list[float], nominal_s: float) -> list[float]:
    """Each time scaled by nominal_s over the mean of the reference times
    taken just before and just after it."""
    return [t * 2 * nominal_s / (before + after)
            for t, before, after in zip(times, ref_times, ref_times[1:])]


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time from spawning a fresh interpreter to the moment it has imported
    dtopt and built the workload's config, read from the system-wide
    monotonic clock in both processes. The first sample, which may compile
    bytecode, is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = SETUP_CODE[name].format(seed=seed) + READY
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                               timeout=60, capture_output=True, text=True)
        samples.append((int(child.stdout) - start) / 1e9)
    return samples[1:]


def tail(times: list[float]):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it; None unless that percentile lies above the median."""
    if len(times) <= 20:
        return None
    ordered = sorted(times)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def blas_threads():
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "process_threads": threads,
    }


def end_to_end(workload, name, seed, seconds):
    from reference import NOMINAL_S, ReferenceProcess
    from workloads import SearchWorkload

    with ReferenceProcess(name) as reference:
        inputs, reps, times, ref_times = closed_loop(workload, seconds, reference)
    scaled = host_scaled(times, ref_times, NOMINAL_S[name])
    failures = workload.run_checks(inputs, reps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup = setup_seconds(name, seed)
    metrics = {
        "run_s": statistics.median(scaled),
        "evals_per_s": statistics.median(rep.evals / t for rep, t in zip(reps, scaled)),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    high = tail(scaled)
    notes = [
        f"run_s          {metrics['run_s']:.4f} s    median of {len(times)} repetitions, "
        "host-scaled (lower is better)",
        "run_s.tail     " + (f"{high[1]:.4f} s    p{high[0]:.0f} of {len(times)} repetitions"
                             if high else f"n/a         {len(times)} repetitions, needs 21"),
        f"wall_s         {statistics.median(times):.4f} s    median unscaled wall time; reference "
        f"median {statistics.median(ref_times):.4f} s against {NOMINAL_S[name]} s nominal",
        f"evals_per_s    {metrics['evals_per_s']:.1f} 1/s  median, host-scaled, {reps[0].evals} "
        "evaluations per repetition (higher is better)",
        f"peak_rss_mb    {rss_mb:.1f} MB   peak RSS of this process (lower is better)",
        f"setup_s        {metrics['setup_s']:.4f} s    median of {len(setup)} fresh interpreters "
        "(lower is better)",
    ]
    if isinstance(workload, SearchWorkload):
        notes.append(f"best_frac      {workload.best_frac(inputs, reps):.9f}    median best over "
                     "the known maximum (higher is better)")
    extra = {"times_s": times, "reference_times_s": ref_times, "scaled_times_s": scaled,
             "setup_samples_s": setup, "inputs": inputs}
    return reps, failures, metrics, notes, extra


def per_layer(workload, name, seconds):
    from layers import REP_SPAN, SELF_TIME_LAYERS, Counters, instrument, layer_metrics
    from tracer import Tracer, all_restored, patched, self_time_by_name
    from workloads import SearchWorkload

    inputs, reps, times, _ = closed_loop(workload, seconds / 2)
    tracer, counters = Tracer(), Counters()
    with patched(instrument(tracer, counters)) as saved:
        traced, traced_times = zip(*(timed_rep(workload, key, tracer) for key in inputs))
    failures = workload.run_checks(inputs, reps) + workload.run_checks(inputs, traced)
    if not all_restored(saved):
        failures.append("a traced attribute was not restored")
    for i, (plain, seen) in enumerate(zip(reps, traced)):
        if (plain.evals, plain.best, plain.output) != (seen.evals, seen.best, seen.output):
            failures.append(f"repetition {i}: traced run changed calls, best value or output")
    n = len(traced)
    if counters.eval_points != sum(rep.evals for rep in traced):
        failures.append("objectives.eval.points != eval_count")
    if isinstance(workload, SearchWorkload):
        expected = {"driver.searches": workload.searches * n,
                    "cfo.accel.calls": workload.searches * workload.config.nt * n,
                    "cfo.accel.pairs": workload.pairs * n}
        seen = {"driver.searches": len(counters.search_sizes),
                "cfo.accel.calls": counters.accel_calls,
                "cfo.accel.pairs": counters.accel_pairs}
        failures += [f"{key}: {seen[key]} != closed form {value}"
                     for key, value in expected.items() if seen[key] != value]
    own = self_time_by_name(tracer.spans)
    rep_ns = sum(end - start for name, start, end, _ in tracer.spans if name == REP_SPAN)
    if sum(own.get(layer, 0) for layer in SELF_TIME_LAYERS) != rep_ns:
        failures.append("layer self times do not add up to the traced wall time")
    metrics = layer_metrics(tracer, own, counters, n)
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1
    tracer.write(OUT / f"{name}-spans.jsonl")
    notes = [f"{key:30s} {value!r}" + ("   (computed)" if key in (
        "cfo.accel.pairs", "cfo.accel.useful_pair_frac") else "")
        for key, value in metrics.items()]
    notes.insert(0, f"traced {n} repetitions after {len(reps)} untraced; "
                 "self times are per repetition")
    extra = {"untraced_times_s": times, "traced_times_s": traced_times, "inputs": inputs}
    return reps + list(traced), failures, metrics, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dtopt" / "__init__.py").is_file():
        print(f"error: dtopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, out_dir)
    if args.trace:
        from layers import LAYER_UNITS as units

        reps, run_failures, metrics, notes, extra = per_layer(workload, args.workload, args.seconds)
    else:
        units = END_TO_END_UNITS
        reps, run_failures, metrics, notes, extra = end_to_end(
            workload, args.workload, args.seed, args.seconds)
    failures = run_failures + [failure for rep in reps for failure in rep.failures]
    # A failed run-level check (quality gate, reproducibility, tracing) fails every repetition.
    failed = len(reps) if run_failures else sum(1 for rep in reps if rep.failures)
    machine = machine_info()

    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions, "
          "closed loop with one caller")
    print("machine " + " ".join(f"{key}={value}" for key, value in machine.items()))
    for line in notes:
        print(line)
    print(f"fail_frac      {failed / len(reps)!r}   {failed} failed of {len(reps)} attempted")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, seed=args.seed, machine=machine, failures=failures, **extra),
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
