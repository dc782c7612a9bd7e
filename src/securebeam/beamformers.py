# securebeam/beamformers.py
"""Null-space projectors and the three beamformer pairs (EA, Min-TP, Min-RTP)."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import SteeringVector, steering_vector
from .config import ConfigError, InfeasibleGeometryError, ScenarioConfig

# minimum projected-target norm for the geometry to be feasible
FEASIBILITY_TOL = 1e-9


class Method(str, enum.Enum):
    EA = "ea"
    MIN_TP = "min_tp"
    MIN_RTP = "min_rtp"


@dataclass(frozen=True)
class RegularizationParams:
    """Ridge weights for the message (cm) and jamming (an) beams."""

    gamma_cm: float
    gamma_an: float

    def __post_init__(self):
        for gamma in (self.gamma_cm, self.gamma_an):
            _check_gamma(gamma)


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ConfigError(f"regularization factors must be finite and >= 0, got {gamma}")


#: plateau-region default used by the reference experiments
DEFAULT_GAMMAS = RegularizationParams(gamma_cm=2.1, gamma_an=1.8)


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector I_N - u u^H onto the complement of a unit-norm
    direction u: applied in O(N), its dense (N, N) matrix built only on request."""

    direction: np.ndarray  # complex, (N,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x = x - u (u^H x)."""
        u = self.direction
        return x - u * (u.conj() @ x)

    @property
    def matrix(self) -> np.ndarray:
        u = self.direction
        return np.eye(u.size, dtype=np.complex128) - np.outer(u, u.conj())


@dataclass(frozen=True)
class BeamPair:
    """Power-allocated message and jamming weight vectors for one method.

    ||w_cm||^2 = beta * P_s and ||w_an||^2 = (1 - beta) * P_s. The weights may
    be stacked along leading axes, shape (..., N), to evaluate many beams at once;
    a stack that mixes methods has method None.
    """

    w_cm: np.ndarray
    w_an: np.ndarray
    method: Method | None
    gammas: RegularizationParams | None = None


def null_projector(h: SteeringVector) -> Projector:
    """I_N - h h^H: Hermitian, idempotent, annihilates h, rank N-1."""
    return Projector(direction=h.values)


def min_tp_beamformer(h_target: SteeringVector, h_null: SteeringVector) -> np.ndarray:
    """Minimum-norm beam with unit gain on the target and a null on h_null.

    Uses the exact simplification P (P^H P)^+ P^H = P for an orthogonal
    projector P, so the direction is P h_target / ||P h_target||^2 with no
    numerical pseudo-inverse involved, computed in O(N).
    """
    p_ht = null_projector(h_null).apply(h_target.values)
    gain = np.linalg.norm(p_ht) ** 2  # equals h_target^H P h_target, real
    if np.sqrt(gain) <= FEASIBILITY_TOL:
        raise InfeasibleGeometryError(
            "target and nulled channels are parallel; unit gain and a null "
            "cannot hold simultaneously"
        )
    return p_ht / gain


def regularized_direction(
    h_target: SteeringVector, h_null: SteeringVector, gamma: float
) -> np.ndarray:
    """Ridge-regularized update P (P^H P + gamma I)^-1 P^H h_target, before the
    unit-gain rescale. For an orthogonal projector P this is exactly
    P h_target / (1 + gamma), so its norm shrinks monotonically as gamma grows."""
    _check_gamma(gamma)
    return null_projector(h_null).apply(h_target.values) / (1.0 + gamma)


def min_rtp_beamformer(
    h_target: SteeringVector, h_null: SteeringVector, gamma: float
) -> np.ndarray:
    """Regularized minimum-power beam: regularized_direction at unit target gain.

    P (P^H P + gamma I)^-1 P^H = P / (1 + gamma) for an orthogonal projector P,
    and the unit-gain rescale cancels 1 / (1 + gamma) exactly: Min-RTP equals
    Min-TP for every gamma >= 0, so this returns the Min-TP beam.
    """
    _check_gamma(gamma)
    return min_tp_beamformer(h_target, h_null)


def ea_beamformer(h_target: SteeringVector) -> np.ndarray:
    """Equal-amplitude baseline: every element at magnitude 1/sqrt(N) with the
    target's phase, so the target gain is real, positive, and maximal among
    equal-amplitude weights. No null is imposed."""
    v = h_target.values
    n = len(v)
    return np.exp(1j * np.angle(v)) / np.sqrt(n)


def synthesize(
    cfg: ScenarioConfig,
    plan,
    method: Method,
    gammas: RegularizationParams | None = None,
) -> BeamPair:
    """Build the power-allocated beam pair for one method.

    The message beam targets Bob and (for Min-TP / Min-RTP) nulls Eve; the
    jamming beam targets Eve and nulls Bob. Each direction is unit-normalized
    then scaled by sqrt(beta P_s) and sqrt((1 - beta) P_s).
    """
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)

    if method is Method.EA:
        d_cm = ea_beamformer(h_b)
        d_an = ea_beamformer(h_e)
        gammas = None
    elif method is Method.MIN_TP:
        d_cm = min_tp_beamformer(h_b, h_e)
        d_an = min_tp_beamformer(h_e, h_b)
        gammas = None
    elif method is Method.MIN_RTP:
        if gammas is None:
            gammas = DEFAULT_GAMMAS
        d_cm = min_rtp_beamformer(h_b, h_e, gammas.gamma_cm)
        d_an = min_rtp_beamformer(h_e, h_b, gammas.gamma_an)
    else:
        raise ConfigError(f"unknown method {method!r}")

    beta = cfg.power_alloc
    w_cm = power_scaled(cfg, d_cm, beta)
    w_an = power_scaled(cfg, d_an, 1.0 - beta)
    return BeamPair(w_cm=w_cm, w_an=w_an, method=method, gammas=gammas)


def power_scaled(cfg: ScenarioConfig, direction: np.ndarray, share: float) -> np.ndarray:
    """Unit-normalize a beam direction, then scale it to power share * P_s."""
    return np.sqrt(share * cfg.total_power_w) * direction / np.linalg.norm(direction)
