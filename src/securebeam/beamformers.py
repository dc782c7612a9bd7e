# securebeam/beamformers.py
"""The three beamformer pairs (EA, Min-TP, Min-RTP)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import steering_vector
from .config import ConfigError, InfeasibleGeometryError, NameEnum, ScenarioConfig

# minimum projected-target norm for the geometry to be feasible
FEASIBILITY_TOL = 1e-9


class Method(NameEnum):
    EA = "ea"
    MIN_TP = "min_tp"
    MIN_RTP = "min_rtp"


@dataclass(frozen=True)
class BeamPair:
    """Power-allocated message and jamming weight vectors.

    ||w_cm||^2 = beta * P_s and ||w_an||^2 = (1 - beta) * P_s. The weights may
    be stacked along leading axes, shape (..., N), to evaluate many beams at once,
    as the gamma search's (cm, 1, N) and (1, an, N) stacks are.
    """

    w_cm: np.ndarray
    w_an: np.ndarray


def min_tp_beamformer(h_target: np.ndarray, h_null: np.ndarray) -> np.ndarray:
    """Minimum-norm beam with unit gain on h_target and a null on the unit-norm
    h_null, both (N,) arrays.

    Uses the exact simplification P (P^H P)^+ P^H = P for the orthogonal projector
    P = I - h_null h_null^H, so the direction is P h_target / ||P h_target||^2
    with no numerical pseudo-inverse involved, computed in O(N) as h_t - h_n (h_n^H h_t).
    """
    p_ht = h_target - h_null * (h_null.conj() @ h_target)
    gain = np.linalg.norm(p_ht) ** 2  # equals h_target^H P h_target, real
    if np.sqrt(gain) <= FEASIBILITY_TOL:
        raise InfeasibleGeometryError(
            "target and nulled channels are parallel; unit gain and a null "
            "cannot hold simultaneously"
        )
    return p_ht / gain


def min_rtp_beamformer(
    h_target: np.ndarray, h_null: np.ndarray, gamma: float | np.ndarray
) -> np.ndarray:
    """Regularized minimum-power beam: the ridge update P (P^H P + gamma I)^-1 P^H
    h_target for P = I - h_null h_null^H, rescaled to unit target gain; both
    channels are (N,) arrays.

    P (P^H P + gamma I)^-1 P^H = P / (1 + gamma) for an orthogonal projector P,
    and the unit-gain rescale cancels 1 / (1 + gamma) exactly: Min-RTP equals
    Min-TP for every gamma >= 0, so this returns the Min-TP beam, built once and
    broadcast over an array gamma: a (G, 1) column gives a read-only (G, N) view.
    """
    gammas = np.asarray(gamma)
    bad = ~(np.isfinite(gammas) & (gammas >= 0.0))
    if bad.any():
        first = gammas[bad][0].item()
        raise ConfigError(f"regularization factors must be finite and >= 0, got {first}")
    beam = min_tp_beamformer(h_target, h_null)
    shape = np.broadcast_shapes(gammas.shape, beam.shape)
    return beam if shape == beam.shape else np.broadcast_to(beam, shape)


def ea_beamformer(h_target: np.ndarray) -> np.ndarray:
    """Equal-amplitude baseline for the (N,) h_target: every element at magnitude
    1/sqrt(N) with the target's phase, so the target gain is real, positive, and
    maximal among equal-amplitude weights. No null is imposed."""
    return np.exp(1j * np.angle(h_target)) / np.sqrt(len(h_target))


def synthesize(cfg: ScenarioConfig, plan: np.ndarray, method: Method | str) -> BeamPair:
    """Build the power-allocated beam pair for one method: a member or any name Method takes.

    The message beam targets Bob and (for Min-TP / Min-RTP) nulls Eve; the
    jamming beam targets Eve and nulls Bob. Each direction is unit-normalized
    then scaled by sqrt(beta P_s) and sqrt((1 - beta) P_s). Min-RTP is built at gamma = 0:
    no gamma changes its beam, so only the gamma search sets one.
    """
    method = Method(method)
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)

    if method is Method.EA:
        d_cm = ea_beamformer(h_b)
        d_an = ea_beamformer(h_e)
    elif method is Method.MIN_TP:
        d_cm = min_tp_beamformer(h_b, h_e)
        d_an = min_tp_beamformer(h_e, h_b)
    else:  # Method.MIN_RTP
        d_cm = min_rtp_beamformer(h_b, h_e, 0.0)
        d_an = min_rtp_beamformer(h_e, h_b, 0.0)

    beta = cfg.power_alloc
    return BeamPair(power_scaled(cfg, d_cm, beta), power_scaled(cfg, d_an, 1.0 - beta))


def power_scaled(cfg: ScenarioConfig, direction: np.ndarray, share: float) -> np.ndarray:
    """Unit-normalize each (N,) row of a (..., N) beam direction, then scale it to
    power share * P_s. Each row's norm is np.linalg.norm's sqrt(re . re + im . im), one
    BLAS dot per matmul row, so a stack keeps the bits of its rows' 1-D calls, which
    np.linalg.norm(..., axis=-1) does not."""
    re, im = direction.real[..., None, :], direction.imag[..., None, :]
    sqnorm = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)  # (..., 1, 1)
    return np.sqrt(share * cfg.total_power_w) * direction / np.sqrt(sqnorm[..., 0])
