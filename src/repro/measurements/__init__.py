"""Measurement campaigns, boxplot statistics, fits, paper datasets.

``datasets`` and ``fitting`` load eagerly: the solver reads the paper's
fits from here.  The campaign modules (``batch``, ``campaign``,
``validate``) pull in the whole link stack, so their symbols resolve
lazily (PEP 562) and a cold decision never imports them.
"""

from .datasets import (
    AIRPLANE_FIT,
    AIRPLANE_RELATIVE_SPEED_RANGE_MPS,
    FIG1_APPROACH_SPEED_MPS,
    FIG1_CROSSOVER_MB,
    FIG1_DATA_MB,
    FIG1_HOVER_RATES_MBPS,
    FIG1_MOVING_RATE_MBPS,
    FIG1_START_DISTANCE_M,
    FIG5_DISTANCES_M,
    FIG6_BEST_MCS_REGIONS,
    FIG6_DISTANCES_M,
    FIG6_FIXED_CANDIDATES,
    FIG7_HOVER_DISTANCES_M,
    FIG7_MOVING_SPEED_MPS,
    FIG7_SPEED_SWEEP_DISTANCE_M,
    FIG7_SPEED_SWEEP_MPS,
    INDOOR_THROUGHPUT_MBPS,
    MIN_SAFE_SEPARATION_M,
    PaperLogFit,
    QUADROCOPTER_FIT,
)
from .fitting import Log2Fit, fit_log2, r_squared

__all__ = [
    "BatchCampaignConfig",
    "BatchCampaignResult",
    "profile_by_name",
    "run_campaign",
    "run_scalar_reference",
    "AirplaneFlybyCampaign",
    "CampaignResult",
    "QuadApproachCampaign",
    "QuadHoverCampaign",
    "QuadSpeedCampaign",
    "default_controller_factory",
    "AIRPLANE_FIT",
    "AIRPLANE_RELATIVE_SPEED_RANGE_MPS",
    "FIG1_APPROACH_SPEED_MPS",
    "FIG1_CROSSOVER_MB",
    "FIG1_DATA_MB",
    "FIG1_HOVER_RATES_MBPS",
    "FIG1_MOVING_RATE_MBPS",
    "FIG1_START_DISTANCE_M",
    "FIG5_DISTANCES_M",
    "FIG6_BEST_MCS_REGIONS",
    "FIG6_DISTANCES_M",
    "FIG6_FIXED_CANDIDATES",
    "FIG7_HOVER_DISTANCES_M",
    "FIG7_MOVING_SPEED_MPS",
    "FIG7_SPEED_SWEEP_DISTANCE_M",
    "FIG7_SPEED_SWEEP_MPS",
    "INDOOR_THROUGHPUT_MBPS",
    "MIN_SAFE_SEPARATION_M",
    "PaperLogFit",
    "QUADROCOPTER_FIT",
    "Log2Fit",
    "fit_log2",
    "r_squared",
    "CalibrationCheck",
    "CalibrationReport",
    "validate_calibration",
]

#: Campaign symbols resolved lazily, by defining submodule.
_LAZY = {
    "BatchCampaignConfig": "batch",
    "BatchCampaignResult": "batch",
    "profile_by_name": "batch",
    "run_campaign": "batch",
    "run_scalar_reference": "batch",
    "AirplaneFlybyCampaign": "campaign",
    "CampaignResult": "campaign",
    "QuadApproachCampaign": "campaign",
    "QuadHoverCampaign": "campaign",
    "QuadSpeedCampaign": "campaign",
    "default_controller_factory": "campaign",
    "CalibrationCheck": "validate",
    "CalibrationReport": "validate",
    "validate_calibration": "validate",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule == "batch":
        from . import batch as module
    elif submodule == "campaign":
        from . import campaign as module
    elif submodule == "validate":
        from . import validate as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(module, name)


def __dir__():
    return sorted(__all__)
