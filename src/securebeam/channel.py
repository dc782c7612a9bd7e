# securebeam/channel.py
"""Array geometry, random subcarrier assignment, steering vectors, and path loss."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, ConfigError, PolarPosition, ScenarioConfig


@dataclass(frozen=True)
class SubcarrierPlan:
    """Per-antenna subcarrier index assignment k_n, drawn without replacement."""

    indices: np.ndarray  # int array, shape (N,)
    num_subcarriers: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ConfigError("subcarrier indices must be a nonempty 1-D vector")
        if idx.min() < 0 or idx.max() >= self.num_subcarriers:
            raise ConfigError(
                f"subcarrier indices must lie in [0, {self.num_subcarriers - 1}]"
            )
        if np.unique(idx).size != idx.size:
            raise ConfigError("subcarrier indices must be pairwise distinct")

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class SteeringVector:
    """Unit-norm complex array response h(theta, R) with its generating position."""

    values: np.ndarray  # complex, shape (N,)
    origin: PolarPosition | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", v)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(f"steering vector must be unit norm, got ||h|| = {norm!r}")

    def __len__(self) -> int:
        return int(self.values.size)


def build_subcarrier_plan(seed: int, n_antennas: int, n_subcarriers: int) -> SubcarrierPlan:
    """Draw N distinct subcarrier indices uniformly from {0, ..., N_S - 1}.

    Deterministic for a fixed seed.
    """
    if n_antennas < 1:
        raise ConfigError(f"n_antennas must be >= 1, got {n_antennas}")
    if n_antennas > n_subcarriers:
        raise ConfigError(
            f"cannot assign {n_antennas} distinct subcarriers out of {n_subcarriers}"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(n_subcarriers, size=n_antennas, replace=False)
    return SubcarrierPlan(indices=indices, num_subcarriers=n_subcarriers)


def steering_phases(
    plan: SubcarrierPlan,
    cfg: ScenarioConfig,
    theta_rad: np.ndarray | float,
    range_m: np.ndarray | float,
) -> np.ndarray:
    """Per-element phases for positions (theta, R); output shape broadcast(...) + (N,).

    Element n (1-based) sees carrier f_c + k_n * df delayed by the geometric path
    R - (n-1) d cos(theta), referenced to the carrier phase at range R.
    """
    theta = np.asarray(theta_rad, dtype=np.float64)[..., np.newaxis]
    r = np.asarray(range_m, dtype=np.float64)[..., np.newaxis]
    n = np.arange(len(plan), dtype=np.float64)  # (n-1) for 1-based n
    f_n = cfg.carrier_freq_hz + plan.indices * cfg.subcarrier_spacing_hz
    path = r - n * cfg.element_spacing_m * np.cos(theta)
    two_pi_c = 2.0 * np.pi / SPEED_OF_LIGHT
    return two_pi_c * f_n * path - two_pi_c * cfg.carrier_freq_hz * r


def steering_vector(
    plan: SubcarrierPlan, cfg: ScenarioConfig, pos: PolarPosition
) -> SteeringVector:
    """Normalized array response h(theta, R) for one position."""
    if len(plan) != cfg.num_antennas:
        raise ConfigError(
            f"plan length {len(plan)} does not match num_antennas {cfg.num_antennas}"
        )
    psi = steering_phases(plan, cfg, pos.angle_rad, pos.range_m)
    values = np.exp(1j * psi) / np.sqrt(len(plan))
    return SteeringVector(values=values, origin=pos)


def path_loss(range_m: float) -> float:
    """Free-space square-law gain g = (R / 1 m)^-2, unit reference distance."""
    if not (math.isfinite(range_m) and range_m > 0.0):
        raise ConfigError(f"range_m must be finite and > 0, got {range_m}")
    return float(range_m) ** -2.0
