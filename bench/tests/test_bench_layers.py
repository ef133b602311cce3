import json
from pathlib import Path

import numpy as np
import pytest

import dtopt.cfo
import dtopt.driver
import dtopt.floorscan
import layers
import run
from dtopt import run_dto
from dtopt.objectives import ObjectiveSpec
from dtopt.report import PROFILES, ExperimentConfig, render_passes_csv, render_summary, to_dto_config
from layers import Counters, instrument, useful_pairs
from tracer import Tracer, all_restored, patched
from workloads import closed_form_calls, closed_form_pairs, searches_per_run


def brute_force_useful_pairs(pos, fit):
    d2 = ((pos[None, :, :] - pos[:, None, :]) ** 2).sum(axis=2)
    return int(np.count_nonzero((fit[None, :] > fit[:, None]) & (d2 > 0)))


@pytest.mark.parametrize("pos, fit, expected", [
    # all distinct: 3 + 2 + 1 + 0 strictly better partners
    (np.arange(8.0).reshape(4, 2), np.array([1.0, 2.0, 3.0, 4.0]), 6),
    # ties pull nothing: two probes on the floor value, one above
    (np.arange(6.0).reshape(3, 2), np.array([5.0, 5.0, 7.0]), 2),
    # all tied
    (np.arange(6.0).reshape(3, 2), np.array([5.0, 5.0, 5.0]), 0),
    # probes 0 and 1 coincide with different fitness: that pair does not count
    (np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0]]), np.array([1.0, 2.0, 3.0]), 2),
    # -0.0 and 0.0 are the same position
    (np.array([[-0.0, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0]), 0),
    # a single probe
    (np.zeros((1, 30)), np.array([3.0]), 0),
])
def test_useful_pairs_hand_built(pos, fit, expected):
    assert useful_pairs(pos, fit) == expected
    assert brute_force_useful_pairs(pos, fit) == expected


def test_useful_pairs_matches_the_n_by_n_count_on_random_columns():
    rng = np.random.default_rng(7)
    for n, d in ((1, 2), (17, 2), (64, 30)):
        pos = rng.integers(0, 3, size=(n, d)).astype(float)  # many coincident rows
        fit = rng.integers(0, 4, size=n).astype(float)       # many ties
        assert useful_pairs(pos, fit) == brute_force_useful_pairs(pos, fit)


@pytest.mark.parametrize("profile, calls, searches", [
    ("schwefel2d", 106_392, 10),
    ("schwefel30d", 44_352, 66),
])
def test_closed_form_call_count_against_both_profiles(profile, calls, searches):
    config = PROFILES[profile]
    assert closed_form_calls(config) == calls
    assert searches_per_run(config) == searches


def test_closed_form_call_count_matches_a_small_run():
    for ipd in ("random", "probe_line"):
        config = ExperimentConfig(passes=3, nt=4, np0=4, ipd=ipd, gamma_sweep=(0.2, 0.7))
        assert run_dto(to_dto_config(config)).total_evals == closed_form_calls(config)


def test_closed_form_rejects_configs_it_does_not_cover():
    with pytest.raises(ValueError):
        closed_form_calls(ExperimentConfig(probe_doubling=False))


def _small_run():
    config = ExperimentConfig(passes=3, nt=5, np0=4, ipd="probe_line", n_dims=3,
                              gamma_sweep=(0.3, 0.6))
    report = run_dto(to_dto_config(config))
    return config, report, render_summary(report) + render_passes_csv(report)


def test_tracing_changes_no_result_and_restores_every_attribute():
    plain_config, plain, plain_bytes = _small_run()
    attributes = [(dtopt.driver, "run_cfo"), (dtopt.cfo, "compute_accelerations"),
                  (dtopt.cfo, "step_positions"), (dtopt.cfo, "retrieve_errant"),
                  (dtopt.cfo, "apply_threshold"), (dtopt.cfo, "scan_best"),
                  (dtopt.cfo, "scan_worst"), (ObjectiveSpec, "evaluate_batch"),
                  (dtopt.floorscan, "halton_points")]
    before = [getattr(owner, attr) for owner, attr in attributes]
    tracer, counters = Tracer(), Counters()
    targets = instrument(tracer, counters)
    assert [(owner, attr) for owner, attr, _ in targets] == attributes
    with patched(targets) as saved:
        with tracer.span(layers.REP_SPAN):
            _, traced, traced_bytes = _small_run()
    assert all_restored(saved)
    assert [getattr(owner, attr) for owner, attr in attributes] == before
    assert (traced.total_evals, traced.best_value, traced_bytes) == (
        plain.total_evals, plain.best_value, plain_bytes)
    assert counters.eval_points == plain.total_evals
    assert len(counters.search_sizes) == searches_per_run(plain_config)
    assert counters.accel_pairs == closed_form_pairs(plain_config)


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_scaled_uses_the_references_on_either_side():
    times = [2.0, 3.0]
    refs = [0.1, 0.3, 0.2]
    assert run.host_scaled(times, refs, 0.2) == pytest.approx([2.0, 3.0 * 0.2 / 0.25])


def test_closed_loop_times_a_reference_around_every_repetition():
    calls = []

    class Stub:
        def input(self, i):
            return i

        def run(self, key, tracer=None):
            calls.append(key)
            return key

    inputs, reps, times, ref_times = run.closed_loop(Stub(), 0.0, reference=lambda: 0.1)
    assert inputs == reps == calls == list(range(run.MIN_REPS))
    assert len(times) == run.MIN_REPS and len(ref_times) == run.MIN_REPS + 1


def test_reference_does_not_run_dtopt():
    import reference

    assert not [value for value in vars(reference).values()
                if getattr(value, "__name__", "").startswith("dtopt")]
    for name in run.WORKLOADS:
        reference.make_reference(name)


def test_reference_process_times_each_run_and_ends():
    import reference

    with reference.ReferenceProcess("floor_ladder") as ref:
        times = [ref(), ref()]
    assert all(t > 0 for t in times)
    assert ref.child.returncode == 0
