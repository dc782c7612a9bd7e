# securebeam/beamformers.py
"""The three beamformer pairs (EA, Min-TP, Min-RTP)."""
from __future__ import annotations

import math

import numpy as np

from .channel import steering_vector
from .config import ConfigError, InfeasibleGeometryError, NameEnum, ScenarioConfig

# minimum projected-target norm for the geometry to be feasible
FEASIBILITY_TOL = 1e-9


class Method(NameEnum):
    EA = "ea"
    MIN_TP = "min_tp"
    MIN_RTP = "min_rtp"


def min_tp_beamformer(h_target: np.ndarray, h_null: np.ndarray) -> np.ndarray:
    """Minimum-norm beam with unit gain on h_target and a null on the unit-norm
    h_null, both (N,) arrays.

    Uses the exact simplification P (P^H P)^+ P^H = P for the orthogonal projector
    P = I - h_null h_null^H, so the direction is P h_target / ||P h_target||^2
    with no numerical pseudo-inverse involved, computed in O(N) as h_t - h_n (h_n^H h_t).
    That one Gram-Schmidt step cancels as |h_n^H h_t| -> 1, so it is applied twice
    ("twice is enough"; Giraud, Langou & Rozloznik, Comput. Math. Appl., 2005).
    """
    p_ht = h_target - h_null * (h_null.conj() @ h_target)
    p_ht -= h_null * (h_null.conj() @ p_ht)
    gain = np.linalg.norm(p_ht) ** 2  # equals h_target^H P h_target, real
    if np.sqrt(gain) <= FEASIBILITY_TOL:
        raise InfeasibleGeometryError(
            "target and nulled channels are parallel; unit gain and a null "
            "cannot hold simultaneously"
        )
    return p_ht / gain


def min_rtp_beamformer(h_target: np.ndarray, h_null: np.ndarray, gamma: float) -> np.ndarray:
    """Regularized minimum-power beam: the ridge update P (P^H P + gamma I)^-1 P^H
    h_target for P = I - h_null h_null^H, rescaled to unit target gain; both
    channels are (N,) arrays and gamma is one real factor.

    P (P^H P + gamma I)^-1 P^H = P / (1 + gamma) for an orthogonal projector P,
    and the unit-gain rescale cancels 1 / (1 + gamma) exactly: Min-RTP equals
    Min-TP for every gamma >= 0, so this checks gamma and returns the Min-TP beam.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ConfigError(f"regularization factors must be finite and >= 0, got {gamma}")
    return min_tp_beamformer(h_target, h_null)


def ea_beamformer(h_target: np.ndarray) -> np.ndarray:
    """Equal-amplitude baseline for the (N,) h_target: every element at magnitude
    1/sqrt(N) with the target's phase, so the target gain is real, positive, and
    maximal among equal-amplitude weights. No null is imposed."""
    return np.exp(1j * np.angle(h_target)) / np.sqrt(len(h_target))


def synthesize(
    cfg: ScenarioConfig, plan: np.ndarray, method: Method | str
) -> tuple[np.ndarray, np.ndarray]:
    """Build the power-allocated beam pair (w_cm, w_an) for one method: a member or any
    name Method takes.

    The message beam targets Bob and (for Min-TP / Min-RTP) nulls Eve; the
    jamming beam targets Eve and nulls Bob. Each direction is divided by its
    np.linalg.norm, then scaled by sqrt(beta P_s) and sqrt((1 - beta) P_s). Min-RTP is
    built at gamma = 0: no gamma changes its beam, so this one pair serves every cell of
    the gamma search's grid.
    """
    method = Method(method)
    h_b = steering_vector(plan, cfg, cfg.bob)
    h_e = steering_vector(plan, cfg, cfg.eve)
    return _pair(h_b, h_e, method, cfg.power_alloc, cfg.total_power_w)


def _pair(
    h_b: np.ndarray, h_e: np.ndarray, method: Method, beta: float, p_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """synthesize's pair for Bob's and Eve's steering vectors h_b and h_e, the power split
    beta and the total power P_s: the one place a beam pair is built."""
    if method is Method.EA:
        d_cm = ea_beamformer(h_b)
        d_an = ea_beamformer(h_e)
    elif method is Method.MIN_TP:
        d_cm = min_tp_beamformer(h_b, h_e)
        d_an = min_tp_beamformer(h_e, h_b)
    else:  # Method.MIN_RTP
        d_cm = min_rtp_beamformer(h_b, h_e, 0.0)
        d_an = min_rtp_beamformer(h_e, h_b, 0.0)

    w_cm = np.sqrt(beta * p_s) * d_cm / np.linalg.norm(d_cm)
    w_an = np.sqrt((1.0 - beta) * p_s) * d_an / np.linalg.norm(d_an)
    return w_cm, w_an
