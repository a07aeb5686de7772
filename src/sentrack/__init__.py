"""Distributed multi-sensor control for multi-target tracking.

Per-sensor particle LMB filters, adaptive complementary fusion of LMB
densities, information-driven coordinate-descent sensor control, a
flooding network simulator, and a reproducible scenario harness with
OSPA-based evaluation.

The package exports the entry points: the harness, the scenarios and
their config types.  The layers are imported from their own modules.
"""

from .control import ObjectiveParams
from .filtering import FilterConfig
from .fusion import FusionConfig
from .harness import METHODS, MonteCarloResult, RunResult, export_results, monte_carlo, run_single
from .scenarios import (
    MetricConfig,
    MonteCarloConfig,
    ScenarioConfig,
    SensorSpec,
    TargetSpec,
    build_scenario_1,
    build_scenario_2,
    load_scenario,
    save_scenario,
)
from .sensors import FovModel, MotionModel, SensorAction

__version__ = "0.1.0"
