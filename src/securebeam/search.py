# securebeam/search.py
"""Exhaustive 2-D search for the regularization pair maximizing secrecy rate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamformers import BeamPair, Method, RegularizationParams, min_rtp_beamformer, power_scaled
from .channel import SubcarrierPlan, steering_vector
from .config import ConfigError, ScenarioConfig
from .metrics import secrecy_rate


@dataclass(frozen=True)
class GammaGrid:
    """Ascending finite nonnegative grids for (gamma_cm, gamma_an)."""

    gamma_cm_values: np.ndarray
    gamma_an_values: np.ndarray

    def __post_init__(self):
        for name in ("gamma_cm_values", "gamma_an_values"):
            vals = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, vals)
            if vals.size == 0:
                raise ConfigError(f"{name} must be nonempty")
            if not np.all(np.isfinite(vals)) or vals[0] < 0.0:
                raise ConfigError(f"{name} must be finite and nonnegative")
            if vals.size > 1 and np.any(np.diff(vals) <= 0.0):
                raise ConfigError(f"{name} must be strictly ascending")

    @classmethod
    def linear(cls, maximum: float = 3.0, points: int = 31) -> "GammaGrid":
        vals = np.linspace(0.0, maximum, points)
        return cls(gamma_cm_values=vals, gamma_an_values=vals.copy())


@dataclass(frozen=True)
class GammaSearchResult:
    best: RegularizationParams
    best_sr: float
    surface: np.ndarray  # (len(gamma_cm_values), len(gamma_an_values))
    grid: GammaGrid


def grid_search_gamma(
    cfg: ScenarioConfig, plan: SubcarrierPlan, grid: GammaGrid
) -> GammaSearchResult:
    """Evaluate the regularized beamformer's secrecy rate on every grid cell and
    return the first row-major argmax (gamma_cm-major, deterministic ties).

    The message beam depends only on gamma_cm and the jamming beam only on
    gamma_an, so one beam is built per grid value. Stacked as (cm, 1, N) and
    (1, an, N), their gains and rates broadcast to the (cm, an) surface.
    """
    g_cm = grid.gamma_cm_values
    g_an = grid.gamma_an_values
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)
    beta = cfg.power_alloc
    w_cm = [power_scaled(cfg, min_rtp_beamformer(h_b, h_e, g), beta) for g in g_cm]
    w_an = [power_scaled(cfg, min_rtp_beamformer(h_e, h_b, g), 1.0 - beta) for g in g_an]
    beams = BeamPair(np.array(w_cm)[:, None, :], np.array(w_an)[None, :, :], Method.MIN_RTP)
    surface = secrecy_rate(cfg, plan, beams)
    flat_best = int(np.argmax(surface))  # first maximum in row-major order
    bi, bj = np.unravel_index(flat_best, surface.shape)
    best = RegularizationParams(float(g_cm[bi]), float(g_an[bj]))
    return GammaSearchResult(
        best=best, best_sr=float(surface[bi, bj]), surface=surface, grid=grid
    )
