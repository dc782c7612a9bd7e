"""Null-steered beamforming for simultaneous precise jamming and secure
communication over a random-subcarrier uniform linear array."""

__version__ = "0.1.0"

from .beamformers import (
    Method,
    ea_beamformer,
    min_rtp_beamformer,
    min_tp_beamformer,
    synthesize,
)
from .channel import build_subcarrier_plan, steering_vector
from .config import (
    ConfigError,
    InfeasibleGeometryError,
    PolarPosition,
    ScenarioConfig,
    SPEED_OF_LIGHT,
    path_loss,
)
from .metrics import (
    ber_monte_carlo,
    received_model,
    secrecy_rate,
    sinr,
    sinr_surface,
)
from .search import grid_search_gamma
from .experiments import (
    ExperimentKind,
    ExperimentSpec,
    load_config,
    power_for_snr_db,
    run_experiment,
)
