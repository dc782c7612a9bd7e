# securebeam/metrics.py
"""Received-signal metrics: pointwise SINR, secrecy rate, and QPSK bit error rate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformers import BeamPair
from .channel import SubcarrierPlan, path_loss, steering_factors
from .config import ConfigError, PolarPosition, ScenarioConfig

# floor applied before converting powers to dB, avoids -inf at exact nulls
_DB_FLOOR = 1e-30


def _to_db(power: np.ndarray | float) -> np.ndarray | float:
    return 10.0 * np.log10(np.maximum(power, _DB_FLOOR))


@dataclass(frozen=True)
class ReceivedModel:
    """Complex effective gains of the message and jamming beams at one or more positions."""

    cm_gain: complex | np.ndarray
    an_gain: complex | np.ndarray
    noise_power: float

    def __post_init__(self):
        if not (math.isfinite(self.noise_power) and self.noise_power > 0.0):
            raise ConfigError(f"noise_power must be finite and > 0, got {self.noise_power}")


def _received(
    cfg: ScenarioConfig, plan: SubcarrierPlan, beams: BeamPair,
    theta_rad: np.ndarray | float, range_m: np.ndarray | float, noise_power: float,
) -> ReceivedModel:
    """Effective gains sqrt(g(R)) h(theta, R)^H w of the message and jamming beams on
    the grid of every angle with every range: weights stacked as B + (N,) give gains
    of shape B + theta.shape + range.shape."""
    amp = np.sqrt(path_loss(range_m))  # rejects bad ranges before any exponential
    a, b = steering_factors(plan, cfg, theta_rad, range_m)
    a_conj = a.conj().reshape(-1, len(plan))  # (Theta, N)
    b_cols = (np.expand_dims(amp, -1) * b.conj()).reshape(-1, len(plan)).T  # (N, R)

    def gain(w: np.ndarray) -> np.ndarray:
        # matmul takes each stacked beam's (Theta, N) slice as its own product, so a beam's
        # gains do not depend on its stack: at an exact null they are pure rounding
        gains = (a_conj * w.reshape(-1, 1, len(plan))) @ b_cols  # (B, Theta, R)
        return gains.reshape(w.shape[:-1] + a.shape[:-1] + b.shape[:-1])[()]

    return ReceivedModel(gain(beams.w_cm), gain(beams.w_an), noise_power)


def received_model(
    cfg: ScenarioConfig, plan: SubcarrierPlan, beams: BeamPair, pos: PolarPosition,
    noise_power: float,
) -> ReceivedModel:
    """Effective gains sqrt(g(R)) h(pos)^H w at one probe position."""
    return _received(cfg, plan, beams, pos.angle_rad, pos.range_m, noise_power)


def sinr(model: ReceivedModel) -> float | np.ndarray:
    """|cm|^2 / (|an|^2 + noise), linear; elementwise for stacked gains."""
    return abs(model.cm_gain) ** 2 / (abs(model.an_gain) ** 2 + model.noise_power)


def secrecy_rate(
    cfg: ScenarioConfig, plan: SubcarrierPlan, beams: BeamPair
) -> float | np.ndarray:
    """max{ log2(1 + SINR_Bob) - log2(1 + SINR_Eve), 0 } in bits per channel use;
    for stacked beams, one rate per stacked pair, broadcast over the leading axes."""
    bob = received_model(cfg, plan, beams, cfg.bob, cfg.noise_power_bob_w)
    eve = received_model(cfg, plan, beams, cfg.eve, cfg.noise_power_eve_w)
    return np.maximum(np.log2(1.0 + sinr(bob)) - np.log2(1.0 + sinr(eve)), 0.0)


def sinr_surface(
    cfg: ScenarioConfig,
    plan: SubcarrierPlan,
    beams: BeamPair,
    theta_deg_grid: np.ndarray,
    range_m_grid: np.ndarray,
    probe_noise: float,
) -> np.recarray:
    """Message-beam SINR (dB) and jamming power (dB) over an angle-range grid, as a
    record array with one record per grid point: the probe's angle and range, then
    the two fields in dB, under the names in its `dtype.names`.

    Every grid point is probed with the same receiver noise power. Records run
    theta-major, matching meshgrid order.
    """
    theta_deg = np.asarray(theta_deg_grid, dtype=np.float64)
    r = np.asarray(range_m_grid, dtype=np.float64)
    if theta_deg.size == 0 or r.size == 0 or not np.all(np.isfinite(theta_deg)):
        raise ConfigError("angle and range grids must be nonempty, with finite angles")
    if not (math.isfinite(probe_noise) and probe_noise > 0.0):
        raise ConfigError(f"probe_noise must be finite and > 0, got {probe_noise}")

    tt, rr = np.meshgrid(theta_deg, r, indexing="ij")
    model = _received(cfg, plan, beams, np.radians(theta_deg), r, probe_noise)
    columns = (tt, rr, _to_db(sinr(model)), _to_db(np.abs(model.an_gain) ** 2))
    return np.rec.fromarrays(
        [c.ravel() for c in columns], names=("theta_deg", "range_m", "cm_sinr_db", "an_power_db")
    )


def ber_monte_carlo(
    cfg: ScenarioConfig,
    plan: SubcarrierPlan,
    beams: BeamPair,
    pos: PolarPosition,
    num_symbols: int,
    seed: int,
) -> float | np.ndarray:
    """Bit error rate of coherent QPSK at Bob or at Eve, with that receiver's noise
    floor; for stacked beams, one rate per stacked pair, broadcast over the leading axes.

    The receiver knows its complex message gain; the jamming signal (unit-power
    circular Gaussian) is treated as noise. Bits, jamming and noise are drawn once
    and every stacked pair sees the same draws. Deterministic for a fixed seed.
    """
    if num_symbols < 1:
        raise ConfigError(f"num_symbols must be >= 1, got {num_symbols}")
    # Eve's entry comes last, so it wins when Bob and Eve share one position
    noise_power = {cfg.bob: cfg.noise_power_bob_w, cfg.eve: cfg.noise_power_eve_w}.get(pos)
    if noise_power is None:
        raise ConfigError(f"BER is defined at Bob or Eve only, got a probe at {pos}")
    model = received_model(cfg, plan, beams, pos, noise_power)

    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_symbols, 2))
    # Gray-mapped QPSK with unit average power sends (1 - 2b)/sqrt(2) per bit b; the rows
    # Re z, Im z, Re n, Im n of the jamming z and the noise n are one draw, in stream order
    sign, draws = np.empty((2, num_symbols)), rng.standard_normal((4, num_symbols))
    np.subtract(1.0, np.multiply(bits.T, 2.0, out=sign), out=sign)  # C order, as each g

    def bit_errors(cm_gain: complex, an_gain: complex) -> int:
        # decide on conj(cm) y = |cm|^2 x + conj(cm) (an z + n), whose parts have the signs
        # of those of y / cm; with no message gain, decisions are coin flips on noise
        rot = cm_gain.conjugate() if cm_gain != 0.0 else 1.0
        u, v = rot * an_gain / math.sqrt(2.0), rot * math.sqrt(noise_power / 2.0)
        rows = [[u.real, -u.imag, v.real, -v.imag], [u.imag, u.real, v.imag, v.real]]
        g = np.array(rows) @ draws  # one pair's products, freed before the next pair's
        return np.count_nonzero(np.multiply(g, sign, out=g) < -(abs(cm_gain) ** 2) / math.sqrt(2.0))

    pairs = np.broadcast(model.cm_gain, model.an_gain)
    ber = np.reshape([bit_errors(*pair) for pair in pairs], pairs.shape) / (2.0 * num_symbols)
    return ber if ber.ndim else float(ber)
