# securebeam/metrics.py
"""Received-signal metrics: pointwise SINR, secrecy rate, and QPSK bit error rate."""
from __future__ import annotations

import math

import numpy as np

from .beamformers import BeamPair
from .channel import path_loss, steering_factors
from .config import ConfigError, PolarPosition, ScenarioConfig

# floor applied before converting powers to dB, avoids -inf at exact nulls
_DB_FLOOR = 1e-30


def _to_db(power: np.ndarray | float) -> np.ndarray | float:
    return 10.0 * np.log10(np.maximum(power, _DB_FLOOR))


def _received(
    cfg: ScenarioConfig, plan: np.ndarray, beams: BeamPair,
    theta_rad: np.ndarray | float, range_m: np.ndarray | float,
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
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

    return gain(beams.w_cm), gain(beams.w_an)


def received_model(
    cfg: ScenarioConfig, plan: np.ndarray, beams: BeamPair, pos: PolarPosition
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """Effective gains (cm_gain, an_gain) = sqrt(g(R)) h(pos)^H w at one probe position."""
    return _received(cfg, plan, beams, pos.angle_rad, pos.range_m)


def sinr(
    cm_gain: complex | np.ndarray, an_gain: complex | np.ndarray, noise_power: float
) -> float | np.ndarray:
    """|cm|^2 / (|an|^2 + noise), linear; elementwise for stacked gains."""
    if not (math.isfinite(noise_power) and noise_power > 0.0):
        raise ConfigError(f"noise_power must be finite and > 0, got {noise_power}")
    return abs(cm_gain) ** 2 / (abs(an_gain) ** 2 + noise_power)


def secrecy_rate(
    cfg: ScenarioConfig, plan: np.ndarray, beams: BeamPair
) -> float | np.ndarray:
    """max{ log2(1 + SINR_Bob) - log2(1 + SINR_Eve), 0 } in bits per channel use;
    for stacked beams, one rate per stacked pair, broadcast over the leading axes."""
    sinr_b = sinr(*received_model(cfg, plan, beams, cfg.bob), cfg.noise_power_bob_w)
    sinr_e = sinr(*received_model(cfg, plan, beams, cfg.eve), cfg.noise_power_eve_w)
    return np.maximum(np.log2(1.0 + sinr_b) - np.log2(1.0 + sinr_e), 0.0)


def sinr_surface(
    cfg: ScenarioConfig,
    plan: np.ndarray,
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

    tt, rr = np.meshgrid(theta_deg, r, indexing="ij")
    cm, an = _received(cfg, plan, beams, np.radians(theta_deg), r)
    try:
        cm_sinr = sinr(cm, an, probe_noise)
    except ConfigError as exc:
        raise ConfigError(f"probe_noise: {exc}") from exc
    columns = (tt, rr, _to_db(cm_sinr), _to_db(np.abs(an) ** 2))
    return np.rec.fromarrays(
        [c.ravel() for c in columns], names=("theta_deg", "range_m", "cm_sinr_db", "an_power_db")
    )


def ber_monte_carlo(
    cfg: ScenarioConfig,
    plan: np.ndarray,
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
    cm_gains, an_gains = received_model(cfg, plan, beams, pos)

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

    pairs = np.broadcast(cm_gains, an_gains)
    ber = np.reshape([bit_errors(*pair) for pair in pairs], pairs.shape) / (2.0 * num_symbols)
    return ber if ber.ndim else float(ber)
