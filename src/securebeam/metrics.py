# securebeam/metrics.py
"""Received-signal metrics: pointwise SINR, secrecy rate, and QPSK bit error rate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformers import BeamPair
from .channel import SubcarrierPlan, path_loss, steering_phases, steering_vector
from .config import ConfigError, PolarPosition, ScenarioConfig

# floor applied before converting powers to dB, avoids -inf at exact nulls
_DB_FLOOR = 1e-30


def _to_db(power: np.ndarray | float) -> np.ndarray | float:
    return 10.0 * np.log10(np.maximum(power, _DB_FLOOR))


@dataclass(frozen=True)
class ReceivedModel:
    """Complex effective gains of the message and jamming beams at one position."""

    cm_gain: complex | np.ndarray
    an_gain: complex | np.ndarray
    noise_power: float

    def __post_init__(self):
        if self.noise_power <= 0.0:
            raise ConfigError(f"noise_power must be > 0, got {self.noise_power}")


@dataclass(frozen=True)
class SurfaceSample:
    """One angle-range grid point of the SINR / jamming-power field."""

    theta_deg: float
    range_m: float
    cm_sinr_db: float
    an_power_db: float
    method: str


def received_model(
    cfg: ScenarioConfig,
    plan: SubcarrierPlan,
    beams: BeamPair,
    pos: PolarPosition,
    noise_power: float,
) -> ReceivedModel:
    """Effective gains sqrt(g(R)) h(pos)^H w at one probe position."""
    h_conj = steering_vector(plan, cfg, pos).values.conj()
    amp = math.sqrt(path_loss(pos.range_m))
    return ReceivedModel(
        cm_gain=amp * (beams.w_cm @ h_conj),
        an_gain=amp * (beams.w_an @ h_conj),
        noise_power=noise_power,
    )


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
) -> list[SurfaceSample]:
    """Message-beam SINR (dB) and jamming power (dB) over an angle-range grid.

    Every grid point is probed with the same receiver noise power. Rows are
    emitted theta-major, matching meshgrid order.
    """
    theta_deg = np.asarray(theta_deg_grid, dtype=np.float64)
    r = np.asarray(range_m_grid, dtype=np.float64)
    if theta_deg.size == 0 or r.size == 0:
        raise ConfigError("angle and range grids must be nonempty")
    if probe_noise <= 0.0:
        raise ConfigError(f"probe_noise must be > 0, got {probe_noise}")

    tt, rr = np.meshgrid(theta_deg, r, indexing="ij")
    psi = steering_phases(plan, cfg, np.radians(tt), rr)  # (T, R, N)
    h = np.exp(1j * psi) / np.sqrt(cfg.num_antennas)
    gain = np.sqrt(rr**-2.0)  # amplitude path loss, unit reference distance
    cm_pow = np.abs(gain * (h.conj() @ beams.w_cm)) ** 2
    an_pow = np.abs(gain * (h.conj() @ beams.w_an)) ** 2
    cm_sinr_db = _to_db(cm_pow / (an_pow + probe_noise))
    an_pow_db = _to_db(an_pow)

    method = beams.method.value
    return [
        SurfaceSample(
            theta_deg=float(tt[i, j]),
            range_m=float(rr[i, j]),
            cm_sinr_db=float(cm_sinr_db[i, j]),
            an_power_db=float(an_pow_db[i, j]),
            method=method,
        )
        for i in range(theta_deg.size)
        for j in range(r.size)
    ]


def _qpsk_symbols(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped QPSK with unit average power; bits shaped (n_sym, 2)."""
    return ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / math.sqrt(2.0)


def ber_monte_carlo(
    cfg: ScenarioConfig,
    plan: SubcarrierPlan,
    beams: BeamPair,
    pos: PolarPosition,
    num_symbols: int,
    seed: int,
) -> float:
    """Bit error rate of coherent QPSK at a probe position.

    The receiver knows its complex message gain; the jamming signal (unit-power
    circular Gaussian) is treated as noise. Deterministic for a fixed seed.
    """
    if num_symbols < 1:
        raise ConfigError(f"num_symbols must be >= 1, got {num_symbols}")
    if pos == cfg.eve:
        noise_power = cfg.noise_power_eve_w
    else:
        noise_power = cfg.noise_power_bob_w
    model = received_model(cfg, plan, beams, pos, noise_power)

    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_symbols, 2))
    x = _qpsk_symbols(bits)
    z = (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) / math.sqrt(2.0)
    n = (
        rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)
    ) * math.sqrt(noise_power / 2.0)
    y = model.cm_gain * x + model.an_gain * z + n

    if model.cm_gain == 0.0:
        decided = y  # no coherent reference; decisions are coin flips on noise
    else:
        decided = y / model.cm_gain
    bhat0 = (decided.real < 0.0).astype(np.int64)
    bhat1 = (decided.imag < 0.0).astype(np.int64)
    errors = np.count_nonzero(bhat0 != bits[:, 0]) + np.count_nonzero(bhat1 != bits[:, 1])
    return errors / (2.0 * num_symbols)
