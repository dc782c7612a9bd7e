# securebeam/search.py
"""The secrecy-rate surface of the regularized beamformer over a 2-D grid of factors."""
from __future__ import annotations

import numpy as np

from .beamformers import min_rtp_beamformer, power_scaled
from .channel import steering_vector
from .config import ConfigError, ScenarioConfig
from .metrics import secrecy_rate


def grid_search_gamma(
    cfg: ScenarioConfig, plan: np.ndarray, gamma_cm: np.ndarray, gamma_an: np.ndarray
) -> np.ndarray:
    """The regularized beamformer's secrecy rate on every grid cell, as a
    (len(gamma_cm), len(gamma_an)) array.

    The message beam depends only on gamma_cm and the jamming beam only on
    gamma_an, so each axis's beams come from one call on its (G, 1) column, one
    row per grid value. Stacked as (cm, 1, N) and (1, an, N), their gains and
    rates broadcast to the (cm, an) surface.
    """
    g_cm = np.asarray(gamma_cm, dtype=np.float64)
    g_an = np.asarray(gamma_an, dtype=np.float64)
    for name, vals in (("gamma_cm", g_cm), ("gamma_an", g_an)):
        if vals.ndim != 1 or vals.size == 0:
            raise ConfigError(f"{name} must be 1-D and nonempty, got shape {vals.shape}")
        # finite first: np.diff warns on [inf, inf]
        if not np.all(np.isfinite(vals)) or vals[0] < 0.0:
            raise ConfigError(f"{name} must be finite and nonnegative")
        if np.any(np.diff(vals) <= 0.0):
            raise ConfigError(f"{name} must be strictly ascending")
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)
    beta = cfg.power_alloc
    w_cm = power_scaled(cfg, min_rtp_beamformer(h_b, h_e, g_cm[:, None]), beta)
    w_an = power_scaled(cfg, min_rtp_beamformer(h_e, h_b, g_an[:, None]), 1.0 - beta)
    return secrecy_rate(cfg, plan, (w_cm[:, None, :], w_an[None, :, :]))
