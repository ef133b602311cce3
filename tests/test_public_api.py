import importlib
import types

import pytest

import dtopt

# What a run needs; the building blocks stay in their modules. A new export
# or knob is a deliberate edit of this list.
TOP_LEVEL_NAMES = {
    "BENCHMARKS", "BestFitness", "CfoParams", "ConfigError", "DecisionSpace", "DtoConfig",
    "ExperimentConfig", "FloorStats", "LinearRamp", "ObjectiveSpec", "PROFILES",
    "PassRecord", "ProbeLine", "RandomUniform", "RunReport", "make_objective",
    "parse_config", "run_cfo", "run_dto", "sample_threshold_floor", "to_dto_config",
}

# Each module's __all__, pinned the same way.
MODULE_NAMES = {
    "dtopt.cfo": {
        "CfoParams", "DEFAULT_GAMMA_SWEEP", "OptResult", "ProbeLine", "RandomUniform",
        "SwarmHistory", "compute_accelerations", "probe_line_ipd", "reposition_floor_probes",
        "retrieve_errant", "run_cfo", "scan_best", "scan_worst", "step_positions",
    },
    "dtopt.threshold": {
        "BestFitness", "FLOOR_MARGIN", "LinearRamp", "ThresholdState", "apply_threshold",
        "on_floor",
    },
    "dtopt.floorscan": {"FloorStats", "halton_points", "sample_threshold_floor"},
    "dtopt.driver": {"DtoConfig", "PassRecord", "RunReport", "run_dto"},
    "dtopt.report": {
        "ConfigError", "ExperimentConfig", "PROFILES", "average_distance_to_best", "fmt",
        "parse_config", "render_davg", "render_passes_csv", "render_summary", "render_surface",
        "render_surface_command", "to_dto_config", "write_text",
    },
    "dtopt.objectives": {
        "BENCHMARKS", "Benchmark", "DecisionSpace", "ObjectiveSpec", "benchmark_dims",
        "make_objective", "ramp", "rastrigin_offset", "schwefel226", "sgo",
    },
}


def test_top_level_names():
    public = {name for name, value in vars(dtopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == TOP_LEVEL_NAMES
    assert len(public) == 21


@pytest.mark.parametrize("module_name", sorted(MODULE_NAMES))
def test_module_all(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULE_NAMES[module_name]
    assert all(hasattr(module, name) for name in module.__all__)
