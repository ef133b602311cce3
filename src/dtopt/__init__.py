"""Dynamic threshold optimization.

A decision-space "compression" wrapper that bounds the objective from below
with a rising threshold, driven by a central force optimization inner search,
plus a quasirandom estimator of how much landscape the floor has flattened.
"""

from .cfo import (
    CfoParams,
    OptResult,
    ProbeLine,
    RandomUniform,
    SwarmHistory,
    compute_accelerations,
    cycle_frep,
    probe_line_ipd,
    random_ipd,
    reposition_floor_probes,
    retrieve_errant,
    run_cfo,
    scan_best,
    scan_worst,
    step_positions,
)
from .driver import DtoConfig, PassRecord, RunReport, double_probes, run_dto
from .floorscan import FloorStats, halton_points, sample_threshold_floor
from .objectives import (
    DecisionSpace,
    ObjectiveKind,
    ObjectiveSpec,
    make_objective,
    rastrigin_offset,
    schwefel226,
    sgo,
)
from .report import (
    PROFILES,
    ConfigError,
    ExperimentConfig,
    parse_config,
    to_dto_config,
    write_config,
    write_davg,
    write_passes_csv,
    write_summary,
    write_surface,
)
from .threshold import (
    BestFitness,
    LinearRamp,
    ThresholdState,
    apply_threshold,
    unit_step,
    update_threshold_best_fitness,
    update_threshold_linear,
)

__version__ = "0.1.0"
