import types

import dtopt

# What a run needs; the building blocks stay in their modules. A new export
# or knob is a deliberate edit of this list.
TOP_LEVEL_NAMES = {
    "BENCHMARKS", "BestFitness", "CfoParams", "ConfigError", "DecisionSpace", "DtoConfig",
    "ExperimentConfig", "FloorStats", "LinearRamp", "ObjectiveSpec", "PROFILES",
    "PassRecord", "ProbeLine", "RandomUniform", "RunReport", "make_objective",
    "parse_config", "run_cfo", "run_dto", "sample_threshold_floor", "to_dto_config",
}


def test_top_level_names():
    public = {name for name, value in vars(dtopt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == TOP_LEVEL_NAMES
    assert len(public) == 21
