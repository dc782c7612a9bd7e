# securebeam/search.py
"""Exhaustive 2-D search for the regularization pair maximizing secrecy rate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamformers import BeamPair, min_rtp_beamformer, power_scaled
from .channel import steering_vector
from .config import ConfigError, ScenarioConfig
from .metrics import secrecy_rate


@dataclass(frozen=True)
class GammaGrid:
    """Ascending finite nonnegative 1-D grids for (gamma_cm, gamma_an)."""

    gamma_cm_values: np.ndarray
    gamma_an_values: np.ndarray

    def __post_init__(self):
        for name in ("gamma_cm_values", "gamma_an_values"):
            vals = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, vals)
            if vals.ndim != 1:
                raise ConfigError(f"{name} must be 1-D, got shape {vals.shape}")
            if vals.size == 0:
                raise ConfigError(f"{name} must be nonempty")
            if not np.all(np.isfinite(vals)) or vals[0] < 0.0:
                raise ConfigError(f"{name} must be finite and nonnegative")
            if vals.size > 1 and np.any(np.diff(vals) <= 0.0):
                raise ConfigError(f"{name} must be strictly ascending")

    @classmethod
    def linear(cls, maximum: float, points: int) -> "GammaGrid":
        vals = np.linspace(0.0, maximum, points)
        return cls(gamma_cm_values=vals, gamma_an_values=vals.copy())


@dataclass(frozen=True)
class GammaSearchResult:
    best: tuple[float, float]  # (gamma_cm, gamma_an)
    best_sr: float
    surface: np.ndarray  # (len(gamma_cm_values), len(gamma_an_values))
    grid: GammaGrid


def grid_search_gamma(
    cfg: ScenarioConfig, plan: np.ndarray, grid: GammaGrid
) -> GammaSearchResult:
    """Evaluate the regularized beamformer's secrecy rate on every grid cell and
    return the first row-major argmax (gamma_cm-major, deterministic ties).

    The message beam depends only on gamma_cm and the jamming beam only on
    gamma_an, so each axis's beams come from one call on its (G, 1) column, one
    row per grid value. Stacked as (cm, 1, N) and (1, an, N), their gains and
    rates broadcast to the (cm, an) surface.
    """
    g_cm = grid.gamma_cm_values
    g_an = grid.gamma_an_values
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)
    beta = cfg.power_alloc
    w_cm = power_scaled(cfg, min_rtp_beamformer(h_b, h_e, g_cm[:, None]), beta)
    w_an = power_scaled(cfg, min_rtp_beamformer(h_e, h_b, g_an[:, None]), 1.0 - beta)
    beams = BeamPair(w_cm[:, None, :], w_an[None, :, :])
    surface = secrecy_rate(cfg, plan, beams)
    flat_best = int(np.argmax(surface))  # first maximum in row-major order
    bi, bj = np.unravel_index(flat_best, surface.shape)
    return GammaSearchResult(
        best=(float(g_cm[bi]), float(g_an[bj])), best_sr=float(surface[bi, bj]),
        surface=surface, grid=grid,
    )
