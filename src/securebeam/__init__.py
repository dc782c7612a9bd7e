"""Null-steered beamforming for simultaneous precise jamming and secure
communication over a random-subcarrier uniform linear array."""

__version__ = "0.1.0"

from .beamformers import (
    BeamPair,
    DEFAULT_GAMMAS,
    Method,
    Projector,
    RegularizationParams,
    ea_beamformer,
    min_rtp_beamformer,
    min_tp_beamformer,
    null_projector,
    synthesize,
)
from .channel import (
    SteeringVector,
    SubcarrierPlan,
    build_subcarrier_plan,
    path_loss,
    steering_vector,
)
from .config import (
    ConfigError,
    InfeasibleGeometryError,
    PolarPosition,
    ScenarioConfig,
    SPEED_OF_LIGHT,
)
from .metrics import (
    ReceivedModel,
    SinrSurface,
    SurfaceSample,
    ber_monte_carlo,
    received_model,
    secrecy_rate,
    sinr,
    sinr_surface,
)
from .search import GammaGrid, GammaSearchResult, grid_search_gamma
from .experiments import (
    ExperimentKind,
    ExperimentSpec,
    RunManifest,
    load_config,
    power_for_snr_db,
    run_experiment,
)
