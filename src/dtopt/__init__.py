"""Dynamic threshold optimization.

A decision-space "compression" wrapper that bounds the objective from below
with a rising threshold, driven by a central force optimization inner search,
plus a quasirandom estimator of how much landscape the floor has flattened.
"""

from .cfo import CfoParams, ProbeLine, RandomUniform, run_cfo
from .driver import DtoConfig, PassRecord, RunReport, run_dto
from .floorscan import FloorStats, sample_threshold_floor
from .objectives import BENCHMARKS, DecisionSpace, ObjectiveSpec, make_objective
from .report import PROFILES, ConfigError, ExperimentConfig, parse_config, to_dto_config
from .threshold import BestFitness, LinearRamp

__version__ = "0.1.0"
