import importlib
import types

import pytest

import dtopt

# What a run needs; the building blocks stay in their modules. A new export
# or knob is a deliberate edit of this list.
TOP_LEVEL_NAMES = {
    "BENCHMARKS", "CfoParams", "ConfigError", "DecisionSpace", "DtoConfig",
    "ExperimentConfig", "FloorStats", "LinearRamp", "ObjectiveSpec", "PROFILES",
    "PassRecord", "ProbeLine", "RandomUniform", "RunReport", "make_objective",
    "parse_config", "run_cfo", "run_dto", "sample_threshold_floor", "to_dto_config",
}

# Each module's __all__, pinned the same way: 36 names in all.
MODULE_NAMES = {
    "dtopt.cfo": {
        "CfoParams", "DEFAULT_GAMMA_SWEEP", "OptResult", "ProbeLine", "RandomUniform",
        "SwarmHistory", "run_cfo",
    },
    "dtopt.threshold": {"LinearRamp"},
    "dtopt.floorscan": {"FLOOR_MARGIN", "FloorStats", "halton_points", "sample_threshold_floor"},
    "dtopt.driver": {"DtoConfig", "PassRecord", "RunReport", "run_dto"},
    "dtopt.report": {
        "ConfigError", "ExperimentConfig", "PROFILES", "average_distance_to_best",
        "parse_config", "render_davg", "render_passes_csv", "render_summary", "render_surface",
        "render_surface_command", "to_dto_config", "write_text",
    },
    "dtopt.objectives": {
        "BENCHMARKS", "DecisionSpace", "ObjectiveSpec", "make_objective", "ramp",
        "rastrigin_offset", "schwefel226", "sgo",
    },
}


def test_top_level_names():
    public = {name for name, value in vars(dtopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == TOP_LEVEL_NAMES
    assert len(public) == 20


@pytest.mark.parametrize("module_name", sorted(MODULE_NAMES))
def test_module_all(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULE_NAMES[module_name]
    assert all(hasattr(module, name) for name in module.__all__)


def test_module_all_total():
    assert sum(len(importlib.import_module(name).__all__) for name in MODULE_NAMES) == 36


# Out of __all__, yet module attributes under these names: bench/layers.py
# wraps the first six by name and reads ThresholdState's fields from
# apply_threshold's argument, and cli.py imports fmt. The three step
# functions check no input, since each runs every step of a search.
KEPT_OUT_OF_ALL = {
    "dtopt.cfo": {"compute_accelerations", "retrieve_errant", "scan_best", "scan_worst",
                  "step_positions"},
    "dtopt.threshold": {"ThresholdState", "apply_threshold"},
    "dtopt.objectives": {"Benchmark"},
    "dtopt.report": {"fmt"},
}


@pytest.mark.parametrize("module_name", sorted(KEPT_OUT_OF_ALL))
def test_names_kept_out_of_all_stay_module_attributes(module_name):
    module = importlib.import_module(module_name)
    assert KEPT_OUT_OF_ALL[module_name].isdisjoint(module.__all__)
    assert all(hasattr(module, name) for name in KEPT_OUT_OF_ALL[module_name])
