import numpy as np
import pytest

from dtopt.cfo import CfoParams, ProbeLine, RandomUniform, run_cfo
from dtopt.driver import DtoConfig, run_dto
from dtopt.objectives import make_objective
from dtopt.threshold import BestFitness, LinearRamp


def expected_evals(runs_per_pass, n_steps, probe_counts):
    """Closed-form evaluation-site count, independent of the driver."""
    return runs_per_pass * (n_steps + 1) * sum(probe_counts)


def _probe_line_config(num_passes=3, np0=2, nt=3, gamma_sweep=(0.0, 0.5, 1.0),
                       n_dims=2, c_th=0.6, doubling=True):
    first_gamma = gamma_sweep[0] if gamma_sweep else 0.0
    return DtoConfig(
        num_passes=num_passes,
        schedule=LinearRamp(c_th=c_th, num_passes=num_passes),
        cfo=CfoParams(n_probes=np0, n_steps=nt, ipd=ProbeLine(first_gamma)),
        objective=make_objective("schwefel226", n_dims),
        probe_doubling=doubling,
        gamma_sweep=gamma_sweep,
    )


def _random_config(num_passes=4, np0=3, nt=2, seed=5, c_th=0.9):
    return DtoConfig(
        num_passes=num_passes,
        schedule=LinearRamp(c_th=c_th, num_passes=num_passes),
        cfo=CfoParams(n_probes=np0, n_steps=nt, ipd=RandomUniform(seed=seed)),
        objective=make_objective("schwefel226", 2),
    )


def test_paper_call_totals_closed_form():
    assert expected_evals(11, 15, [4 * 2**k for k in range(6)]) == 44_352
    assert expected_evals(1, 25, [4 * 2**k for k in range(10)]) == 106_392


def test_probe_line_run_matches_eval_oracle():
    config = _probe_line_config(num_passes=3, np0=2, nt=3, gamma_sweep=(0.0, 0.5, 1.0))
    report = run_dto(config)
    assert report.total_evals == expected_evals(3, 3, [2, 4, 8])


def test_random_run_matches_eval_oracle():
    config = _random_config(num_passes=4, np0=3, nt=2)
    report = run_dto(config)
    assert report.total_evals == expected_evals(1, 2, [3, 6, 12, 24])


def test_no_doubling_keeps_probe_count():
    config = _probe_line_config(num_passes=3, np0=4, nt=2, doubling=False)
    report = run_dto(config)
    assert report.total_evals == expected_evals(3, 2, [4, 4, 4])


def test_single_pass_equals_plain_cfo():
    config = _probe_line_config(num_passes=1, np0=4, nt=5, gamma_sweep=(0.4,),
                                c_th=0.5)
    report = run_dto(config)
    result, _ = run_cfo(CfoParams(n_probes=4, n_steps=5, ipd=ProbeLine(0.4)),
                        make_objective("schwefel226", 2))
    assert report.best_value == result.best_value
    assert np.array_equal(report.best_coords, result.best_coords)
    assert report.total_evals == result.evals_used
    assert len(report.passes) == 1
    assert report.passes[0].threshold is None


def test_pass_records_shape():
    config = _probe_line_config(num_passes=4, np0=2, nt=2)
    report = run_dto(config)
    assert len(report.passes) == 4
    assert report.passes[0].threshold is None
    assert all(rec.threshold is not None for rec in report.passes[1:])
    assert [rec.pass_index for rec in report.passes] == [1, 2, 3, 4]
    cumulative = [rec.cumulative_evals for rec in report.passes]
    assert cumulative == sorted(cumulative)
    assert report.total_evals == cumulative[-1]
    assert report.best_value == max(rec.best_fitness for rec in report.passes)


def test_best_overall_monotone_across_invocations():
    seen = []

    def observer(pass_index, threshold, result, history):
        seen.append(result.best_value)

    config = _probe_line_config(num_passes=3, np0=4, nt=4)
    report = run_dto(config, observer=observer)
    running = np.maximum.accumulate(seen)
    assert report.best_value == running[-1]
    # the reported per-pass best is the max over that pass's sweep
    per_pass = np.array(seen).reshape(3, len(config.gamma_sweep))
    for rec, row in zip(report.passes, per_pass):
        assert rec.best_fitness == row.max()


def test_thresholded_passes_respect_floor():
    floors_checked = 0

    def observer(pass_index, threshold, result, history):
        nonlocal floors_checked
        if threshold is not None:
            assert history.fitness.min() >= threshold
            floors_checked += 1

    run_dto(_probe_line_config(num_passes=4, np0=4, nt=3), observer=observer)
    run_dto(_random_config(num_passes=4, np0=4, nt=3), observer=observer)
    assert floors_checked > 0


def test_thresholds_rise_with_linear_ramp():
    config = _random_config(num_passes=5, np0=4, nt=4, seed=8, c_th=0.8)
    report = run_dto(config)
    thresholds = [rec.threshold for rec in report.passes[1:]]
    # monotone non-decreasing: the range can only widen and k/P grows
    assert all(b >= a - 1e-9 for a, b in zip(thresholds, thresholds[1:]))


def test_best_fitness_schedule_pins_threshold_to_pass_best():
    config = DtoConfig(
        num_passes=3,
        schedule=BestFitness(),
        cfo=CfoParams(n_probes=4, n_steps=3, ipd=ProbeLine(0.25)),
        objective=make_objective("schwefel226", 2),
        gamma_sweep=(0.25, 0.75),
    )
    report = run_dto(config)
    assert report.passes[1].threshold == report.passes[0].best_fitness
    assert report.passes[2].threshold == report.passes[1].best_fitness


def test_report_consistency_raw_fitness_at_best_coords():
    config = _random_config(num_passes=3, np0=4, nt=6, seed=21)
    report = run_dto(config)
    raw = float(
        np.asarray(config.objective.evaluate_batch(report.best_coords[None, :]))[0]
    )
    final_floor = report.passes[-1].threshold
    if final_floor is None or raw > final_floor:
        assert report.best_value == pytest.approx(raw, rel=1e-12, abs=1e-12)
    else:
        assert report.best_value == max(raw, final_floor)


def test_double_probes():
    sizes = []

    def observer(pass_index, threshold, result, history):
        sizes.append(history.n_probes)

    report = run_dto(_random_config(num_passes=10, np0=4, nt=0), observer=observer)
    assert sizes == [4 * 2**k for k in range(10)]
    assert sum(sizes) == 4092  # 106,392 / 26 evaluation sites per probe
    assert report.total_evals == expected_evals(1, 0, sizes)


def test_gamma_sweep_validation():
    with pytest.raises(ValueError):
        _probe_line_config(gamma_sweep=())
    with pytest.raises(ValueError):
        _probe_line_config(gamma_sweep=(0.0, 1.5))


def test_probe_line_run_deterministic():
    report_a = run_dto(_probe_line_config())
    report_b = run_dto(_probe_line_config())
    assert report_a.best_value == report_b.best_value
    assert np.array_equal(report_a.best_coords, report_b.best_coords)
    assert [r.threshold for r in report_a.passes] == [r.threshold for r in report_b.passes]
