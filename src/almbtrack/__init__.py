"""Multi-object tracking with adaptive mixed labeled multi-Bernoulli densities."""

from .densities import (DglmbDensity, Label, LmbDensity, dglmb_cardinality,
                        dglmb_to_lmb, lmb_cardinality, lmb_to_dglmb)
from .dglmb import dglmb_predict, dglmb_prune, dglmb_update
from .errors import ConfigurationError, NumericalError, UsageError
from .gaussian import (GaussianMixture, MotionModel, SensorModel, gm_predict,
                       gm_reduce)
from .lmb import lmb_predict, lmb_update
from .metrics import OspaParams, ospa, ospat
from .pipeline import (DensityGroup, MultiObjectTracker, PipelineConfig,
                       extract_tracks, pipeline_step)
from .scenarios import (BUILTIN_SCENARIOS, ScenarioConfig, builtin_scenario,
                        generate_measurements, generate_truth, load_scenario,
                        scenario_from_dict, truth_cardinality,
                        truth_positions)
from .switching import (Mode, Trigger, association_entropy, decide_switch,
                        kl_criterion, kl_divergence)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCENARIOS", "ConfigurationError", "DensityGroup",
    "DglmbDensity", "GaussianMixture", "Label", "LmbDensity", "Mode",
    "MotionModel", "MultiObjectTracker", "NumericalError", "OspaParams",
    "PipelineConfig", "ScenarioConfig", "SensorModel", "Trigger",
    "UsageError", "association_entropy", "builtin_scenario", "decide_switch", "dglmb_cardinality", "dglmb_predict",
    "dglmb_prune", "dglmb_to_lmb", "dglmb_update", "extract_tracks",
    "generate_measurements", "generate_truth", "gm_predict", "gm_reduce",
    "kl_criterion", "kl_divergence", "lmb_cardinality", "lmb_predict",
    "lmb_to_dglmb", "lmb_update", "load_scenario", "ospa", "ospat",
    "pipeline_step", "scenario_from_dict", "truth_cardinality",
    "truth_positions",
]
