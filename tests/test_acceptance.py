"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite takes about a minute, dominated by the ten-seed 2-D
reproduction.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import paper_reference
import pytest

import dtopt.cfo
from dtopt.cfo import CfoParams, ProbeLine, RandomUniform, SwarmHistory, \
    compute_accelerations, run_cfo
from dtopt.cli import main
from dtopt.driver import DtoConfig, run_dto
from dtopt.floorscan import sample_threshold_floor
from dtopt.objectives import DecisionSpace, ObjectiveSpec, make_objective, schwefel226, sgo
from dtopt.report import PROFILES, to_dto_config
from dtopt.threshold import LinearRamp, ThresholdState, apply_threshold

# Thresholds of the reference 2-D run, passes 2..10; spacing stabilizes once
# the observed fitness range stops moving.
REFERENCE_2D_THRESHOLDS = [
    -347.955, -196.617, -70.522, 55.580, 181.693,
    307.815, 433.919, 560.022, 686.126,
]


def _criterion(number, label, failures):
    status = "FAIL" if failures else "PASS"
    detail = f" -- {'; '.join(failures)}" if failures else ""
    print(f"[criterion {number}] {status}: {label}{detail}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_deterministic_30d_reproduction():
    failures = []
    start = time.monotonic()
    report = run_dto(to_dto_config(PROFILES["schwefel30d"]))
    elapsed = time.monotonic() - start
    if report.total_evals != 44_352:
        failures.append(f"total_evals {report.total_evals} != 44352")
    if not report.best_value >= 12_400:
        failures.append(f"best {report.best_value} < 12400")
    if not (np.all(report.best_coords >= 410) and np.all(report.best_coords <= 430)):
        failures.append("coords outside [410, 430]")
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _criterion(1, f"30-D run: {report.total_evals} calls, best {report.best_value:.2f}, "
                  f"{elapsed:.1f}s", failures)


def test_criterion_2_stochastic_2d_reproduction():
    failures = []
    bests = []
    for seed in range(1, 11):
        report = run_dto(to_dto_config(PROFILES["schwefel2d"], seed=seed))
        if report.total_evals != 106_392:
            failures.append(f"seed {seed}: total_evals {report.total_evals} != 106392")
        bests.append(report.best_value)
    median = statistics.median(bests)
    if not median >= 830:
        failures.append(f"median best {median} < 830")
    _criterion(2, f"2-D runs over 10 seeds: median best {median:.4f}", failures)


def test_criterion_3_benchmark_spot_values():
    failures = []
    for n_dims in (1, 2, 30):
        value = float(schwefel226(np.full(n_dims, 420.9687)))
        if abs(value - 418.9829 * n_dims) > 1e-3 * n_dims:
            failures.append(f"schwefel {n_dims}-D value {value}")
    sgo_max = float(sgo(np.array([-2.8362075, -2.8362075])))
    if abs(sgo_max - 130.8323) > 1e-3:
        failures.append(f"sgo max {sgo_max}")
    _criterion(3, "benchmark spot values at known optima", failures)


def test_criterion_4_linear_ramp_spacing():
    failures = []
    # frozen range: successive thresholds differ by exactly c_th*(F*-F_min)/P
    ramp = LinearRamp(c_th=0.98)
    f_star, f_min = 837.9658, -448.84
    thresholds = [ramp.next_threshold(k, 10, f_star, f_min, f_star) for k in range(1, 11)]
    diffs = np.diff(thresholds)
    expected = 0.98 * (f_star - f_min) / 10
    if not np.all(np.abs(diffs - expected) <= 1e-12 * abs(expected)):
        failures.append("frozen-range differences not constant to 1e-12")
    # reference-run tail spacing is the same constant, about 126.1
    ref_diffs = np.diff(REFERENCE_2D_THRESHOLDS[2:])  # passes 4..10
    if not np.all(np.abs(ref_diffs - 126.11) <= 0.05):
        failures.append(f"reference spacing {ref_diffs} not ~126.1")
    implied_range = float(np.mean(ref_diffs)) * 10 / 0.98
    f_star, f_min = implied_range / 2, -implied_range / 2
    model = np.diff([ramp.next_threshold(k, 10, f_star, f_min, f_star) for k in range(1, 11)])
    if not np.all(np.abs(model - np.mean(ref_diffs)) <= 1e-9):
        failures.append("schedule does not reproduce the reference spacing")
    _criterion(4, "linear ramp spacing constant, ~126.1 on the reference range", failures)


def test_criterion_5_floor_invariant_suite():
    failures = []
    rng = np.random.default_rng(2025)

    # 100 fuzzed runs: each report equals the reference pass loop's, bit for
    # bit, and every fitness recorded during a thresholded pass of that loop
    # sits on or above that pass's floor
    violations = differing = 0
    for _ in range(100):
        n_dims = int(rng.integers(1, 4))
        num_passes = int(rng.integers(2, 5))
        if bool(rng.integers(0, 2)):
            ipd = ProbeLine((0.0, float(rng.uniform()), 1.0))
            starts = ipd.gammas
        else:
            ipd = RandomUniform(seed=int(rng.integers(0, 2**31)))
            starts = [np.random.default_rng(ipd.seed)]
        config = DtoConfig(
            num_passes=num_passes,
            schedule=LinearRamp(c_th=float(rng.uniform(0.3, 1.0))),
            cfo=CfoParams(n_probes=int(rng.integers(2, 6)), n_steps=int(rng.integers(1, 5))),
            objective=make_objective("schwefel226", n_dims),
            ipd=ipd,
        )

        def search(n_probes, start, threshold):
            nonlocal violations
            result, history = run_cfo(replace(config.cfo, n_probes=n_probes),
                                      make_objective("schwefel226", n_dims), start,
                                      ThresholdState(threshold))
            violations += bool(history.fitness.min() < threshold)
            return result.best_value, result.best_coords, result.worst_value, result.evals_used

        reference = paper_reference.run_passes(search, starts, num_passes, config.cfo.n_probes,
                                               c_th=config.schedule.c_th)
        differing += repr(paper_reference.as_run(run_dto(config))) != repr(reference)
    if violations:
        failures.append(f"{violations} floor violations in fuzzed runs")
    if differing:
        failures.append(f"{differing} fuzzed runs differ from the reference pass loop")

    # apply_threshold is exactly max(f, T) on a million random pairs
    f_vals = rng.uniform(-1e9, 1e9, size=1_000_000)
    t_vals = rng.uniform(-1e9, 1e9, size=1_000_000)
    mismatches = 0
    for f, t in zip(f_vals, t_vals):
        if apply_threshold(f, ThresholdState(t)) != max(f, t):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} apply_threshold mismatches")

    # flooring below the max never moves the argmax
    broken = 0
    for _ in range(1000):
        sample = rng.uniform(-1e3, 1e3, size=int(rng.integers(2, 40)))
        state = ThresholdState(sample.max() - float(rng.uniform(1e-9, 100.0)))
        floored = apply_threshold(sample, state)
        if int(np.argmax(floored)) != int(np.argmax(sample)):
            broken += 1
    if broken:
        failures.append(f"{broken} argmax changes")
    _criterion(5, "floor invariants (fuzzed runs, max identity, argmax)", failures)


def test_criterion_6_cfo_micro_oracles(monkeypatch: pytest.MonkeyPatch):
    failures = []
    # hand-traced two-probe acceleration
    hist = SwarmHistory.allocate(2, 1, 1)
    hist.positions[:, 0, 1] = [0.0, 1.0]
    hist.fitness[:, 1] = [0.0, 5.0]
    accels = compute_accelerations(hist, 1, CfoParams(n_probes=2, n_steps=1))
    if accels[0, 0] != 50.0 or accels[1, 0] != 0.0:
        failures.append(f"two-probe accel {accels[:, 0]} != [50, 0]")

    # evaluation budget is exactly (n_steps + 1) * n_probes
    rng = np.random.default_rng(6)
    for _ in range(100):
        n_probes = int(rng.integers(1, 10))
        n_steps = int(rng.integers(0, 8))
        obj = make_objective("schwefel226", int(rng.integers(1, 4)))
        result, _ = run_cfo(CfoParams(n_probes=n_probes, n_steps=n_steps), obj,
                            float(rng.uniform()))
        if result.evals_used != (n_steps + 1) * n_probes:
            failures.append(f"evals {result.evals_used} != {(n_steps + 1) * n_probes}")
            break

    # retrieval factor orbit: the factor run_cfo passes at each of steps 2..45,
    # on two probes at 0 and 1 of f(x) = x / 2, which feel a pull at every
    # step; step 1 follows step 0's zero acceleration, so it rests
    values = {}
    retrieve = dtopt.cfo.retrieve_errant

    def recording_retrieve(history, j, frep, space):
        values[j] = frep
        retrieve(history, j, frep, space)

    monkeypatch.setattr(dtopt.cfo, "retrieve_errant", recording_retrieve)
    pulled = ObjectiveSpec(lambda x: 0.5 * x[:, 0], DecisionSpace.cube(1, 0.0, 1.0))
    run_cfo(CfoParams(n_probes=2, n_steps=45), pulled, 0.5)
    if (list(values) != list(range(2, 46))
            or [values[j] for j in range(2, 12)] != [k / 20 for k in range(11, 21)]
            or values[12] != 0.05 or values[21] != 0.5
            or any(values[j + 20] != values[j] for j in range(2, 26))
            or {values[j] for j in range(2, 22)} != {k / 20 for k in range(1, 21)}):
        failures.append("frep orbit is not the 20-value cycle from 0.5")

    # probe-line layout hand trace
    flat = ObjectiveSpec(lambda x: np.zeros(len(x)), DecisionSpace.cube(2, -500.0, 500.0))
    layout = run_cfo(CfoParams(4, 0), flat, 0.5)[1].positions[:, :, 0]
    expected = np.array([[-500.0, 0.0], [500.0, 0.0], [0.0, -500.0], [0.0, 500.0]])
    if not np.array_equal(layout, expected):
        failures.append("probe-line layout mismatch")
    _criterion(6, "CFO micro-oracles (accel, budget, frep orbit, layout)", failures)


def test_criterion_7_quasirandom_floor_estimator():
    failures = []

    def ramp(points):
        return np.asarray(points, dtype=float)[..., 0]

    stats = sample_threshold_floor(ramp, DecisionSpace.cube(1, 0.0, 1.0),
                                   threshold=0.5, n_samples=10_000, margin=1e-12)
    if abs(stats.p_above - 0.5) > 0.01:
        failures.append(f"ramp estimate {stats.p_above} off midpoint")

    space = DecisionSpace.cube(2, -500.0, 500.0)
    ladder = np.linspace(-830.0, 837.9, 20)
    fractions = [sample_threshold_floor(schwefel226, space, float(t), 4096).p_above
                 for t in ladder]
    if not all(b <= a for a, b in zip(fractions, fractions[1:])):
        failures.append("p_above not monotone over the rising ladder")
    _criterion(7, "quasirandom floor estimator (ramp midpoint, ladder monotone)",
               failures)


def test_criterion_8_byte_identical_outputs(tmp_path):
    failures = []
    configs = {
        "probe_line": (
            "function = schwefel226\nn_dims = 2\npasses = 3\nc_th = 0.6\n"
            "nt = 5\nnp0 = 4\nipd = probe_line\n"
            "gamma_sweep = 0.0,0.5,1.0\n"
        ),
        "random": (
            "function = schwefel226\nn_dims = 2\npasses = 3\nc_th = 0.9\n"
            "nt = 5\nnp0 = 4\nipd = random\nseed = 7\n"
        ),
    }
    for name, text in configs.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        if main(["run", "--config", str(config), "--out", str(out_a)]) != 0:
            failures.append(f"{name}: first run failed")
            continue
        if main(["run", "--config", str(config), "--out", str(out_b)]) != 0:
            failures.append(f"{name}: second run failed")
            continue
        for fname in ("summary.txt", "passes.csv"):
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                failures.append(f"{name}: {fname} differs between invocations")
    _criterion(8, "byte-identical summary.txt and passes.csv across invocations",
               failures)
