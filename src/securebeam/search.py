# securebeam/search.py
"""The secrecy-rate surface of the regularized beamformer over a 2-D grid of factors."""
from __future__ import annotations

import numpy as np

from .beamformers import Method, _pair
from .channel import _receivers
from .config import ConfigError, ScenarioConfig
from .metrics import _secrecy_rate


def grid_search_gamma(
    cfg: ScenarioConfig, plan: np.ndarray, gamma_cm: np.ndarray, gamma_an: np.ndarray
) -> np.ndarray:
    """The regularized beamformer's secrecy rate on every grid cell, as a
    (len(gamma_cm), len(gamma_an)) array.

    P (P^H P + gamma I)^-1 P^H = P / (1 + gamma) for the orthogonal null projector P, and
    the unit-gain rescale cancels 1 / (1 + gamma), so no factor changes either beam: the
    surface is flat, and one Min-RTP pair's secrecy rate fills every cell.
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
    factors = _receivers(plan, cfg)  # Bob's and Eve's, shared by the beams and the rate
    h_b, h_e = (a * b for a, b in factors)  # the steering vectors, as steering_vector forms them
    beams = _pair(h_b, h_e, Method.MIN_RTP, cfg.power_alloc, cfg.total_power_w)
    rate = _secrecy_rate(cfg, factors, beams)
    return np.full((g_cm.size, g_an.size), rate)
