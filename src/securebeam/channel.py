# securebeam/channel.py
"""Array geometry, random subcarrier assignment, and steering vectors."""
from __future__ import annotations

import numpy as np

from .config import SPEED_OF_LIGHT, ConfigError, PolarPosition, ScenarioConfig, check_count


def build_subcarrier_plan(seed: int, n_antennas: int, n_subcarriers: int) -> np.ndarray:
    """Draw the plan: N distinct subcarrier indices k_n, uniformly from {0, ..., N_S - 1},
    as an (N,) int64 array. Deterministic for a fixed seed.
    """
    check_count("n_antennas", n_antennas, 1)
    check_count("n_subcarriers", n_subcarriers, n_antennas)  # N distinct indices
    rng = np.random.default_rng(seed)
    return rng.choice(n_subcarriers, size=n_antennas, replace=False)


def steering_factors(
    plan: np.ndarray, cfg: ScenarioConfig,
    theta_rad: np.ndarray | float, range_m: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Angle factor a(theta), shape theta.shape + (N,), and range factor b(R), shape
    R.shape + (N,), of the normalized array response h(theta, R) = a(theta) * b(R).

    Element n (1-based) sees f_n = f_c + k_n df over the path R - (n-1) d cos(theta),
    with phase referenced to f_c R. The f_c R terms cancel exactly, so no phase is
    formed as a difference: a = exp(-j 2 pi f_n (n-1) d cos(theta) / c) and
    b = exp(j 2 pi k_n df R / c) / sqrt(N).

    Every plan passes through here, so this is where it is checked against cfg: an
    (N,) integer array of indices k_n in [0, N_S). A phase that is not finite is refused.
    """
    plan, n_s = np.asarray(plan), cfg.num_subcarriers
    if not (plan.shape == (cfg.num_antennas,) and np.issubdtype(plan.dtype, np.integer)
            and plan.min() >= 0 and plan.max() < n_s):
        raise ConfigError(f"plan must be {cfg.num_antennas} integers in [0, {n_s - 1}], got {plan!r}")
    two_pi_c = 2.0 * np.pi / SPEED_OF_LIGHT
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        f_n = cfg.carrier_freq_hz + plan * cfg.subcarrier_spacing_hz
        per_cos_theta = two_pi_c * f_n * (np.arange(len(plan)) * cfg.spacing_m)
        phase_a = np.multiply.outer(np.cos(theta_rad), per_cos_theta)
        phase_b = np.multiply.outer(range_m, two_pi_c * cfg.subcarrier_spacing_hz * plan)
    if not (np.isfinite(phase_a).all() and np.isfinite(phase_b).all()):
        raise ConfigError("steering phase not finite: element_spacing_m, carrier_freq_hz or range")
    return np.exp(-1j * phase_a), np.exp(1j * phase_b) / np.sqrt(len(plan))


def _receivers(plan: np.ndarray, cfg: ScenarioConfig) -> tuple[tuple, tuple]:
    """Bob's and Eve's steering factor pairs (a, b), one steering_factors call each: every
    beam pair and every point metric of (cfg, plan) is built from these two."""
    return tuple(steering_factors(plan, cfg, p.angle_rad, p.range_m) for p in (cfg.bob, cfg.eve))


def steering_vector(plan: np.ndarray, cfg: ScenarioConfig, pos: PolarPosition) -> np.ndarray:
    """Unit-norm array response h(theta, R) = a(theta) * b(R) at one position, shape (N,)."""
    a, b = steering_factors(plan, cfg, pos.angle_rad, pos.range_m)
    return a * b

