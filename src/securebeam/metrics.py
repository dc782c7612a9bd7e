# securebeam/metrics.py
"""Received-signal metrics: pointwise SINR, secrecy rate, and QPSK bit error rate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformers import BeamPair
from .channel import SubcarrierPlan, path_loss, steering_values
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


@dataclass(frozen=True)
class SurfaceSample:
    """One angle-range grid point of the SINR / jamming-power field."""

    theta_deg: float
    range_m: float
    cm_sinr_db: float
    an_power_db: float
    method: str


@dataclass(frozen=True, eq=False)
class SinrSurface:
    """A SINR / jamming-power field kept as one array and read as a sequence of SurfaceSample:
    row i of `values` is (theta_deg, range_m, cm_sinr_db, an_power_db) at grid point i."""

    values: np.ndarray  # (points, 4)
    method: str

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> SurfaceSample:
        return SurfaceSample(*self.values[i].tolist(), self.method)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, SinrSurface) and self.method == other.method
        return same and np.array_equal(self.values, other.values)


def _received(
    cfg: ScenarioConfig, plan: SubcarrierPlan, beams: BeamPair,
    theta_rad: np.ndarray | float, range_m: np.ndarray | float, noise_power: float,
) -> ReceivedModel:
    """Effective gains sqrt(g(R)) h(theta, R)^H w of the message and jamming beams:
    weights stacked as B + (N,) at positions of shape P give gains of shape B + P."""
    amp = np.sqrt(path_loss(range_m))
    h_conj = steering_values(plan, cfg, theta_rad, range_m).conj()
    h_cols = h_conj.reshape(-1, len(plan)).T  # (N, P)

    def gain(w: np.ndarray) -> np.ndarray:
        # one product per stacked beam, so a beam's gains do not depend on its stack:
        # at an exact null they are pure rounding, which any other summation changes
        rows = [row @ h_cols for row in w.reshape(-1, len(plan))]
        return amp * np.reshape(rows, w.shape[:-1] + h_conj.shape[:-1])

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
) -> SinrSurface:
    """Message-beam SINR (dB) and jamming power (dB) over an angle-range grid.

    Every grid point is probed with the same receiver noise power. Entries run
    theta-major, matching meshgrid order.
    """
    theta_deg = np.asarray(theta_deg_grid, dtype=np.float64)
    r = np.asarray(range_m_grid, dtype=np.float64)
    if theta_deg.size == 0 or r.size == 0 or not np.all(np.isfinite(theta_deg)):
        raise ConfigError("angle and range grids must be nonempty, with finite angles")
    if not (math.isfinite(probe_noise) and probe_noise > 0.0):
        raise ConfigError(f"probe_noise must be finite and > 0, got {probe_noise}")

    tt, rr = np.meshgrid(theta_deg, r, indexing="ij")
    model = _received(cfg, plan, beams, np.radians(tt), rr, probe_noise)
    columns = (tt, rr, _to_db(sinr(model)), _to_db(np.abs(model.an_gain) ** 2))
    return SinrSurface(np.column_stack([c.ravel() for c in columns]), beams.method.value)


def ber_monte_carlo(
    cfg: ScenarioConfig,
    plan: SubcarrierPlan,
    beams: BeamPair,
    pos: PolarPosition,
    num_symbols: int,
    seed: int,
) -> float | np.ndarray:
    """Bit error rate of coherent QPSK at a probe position; for stacked beams, one
    rate per stacked pair, broadcast over the leading axes.

    The receiver knows its complex message gain; the jamming signal (unit-power
    circular Gaussian) is treated as noise. Bits, jamming and noise are drawn once
    and every stacked pair sees the same draws. Deterministic for a fixed seed.
    """
    if num_symbols < 1:
        raise ConfigError(f"num_symbols must be >= 1, got {num_symbols}")
    noise_power = cfg.noise_power_eve_w if pos == cfg.eve else cfg.noise_power_bob_w
    model = received_model(cfg, plan, beams, pos, noise_power)

    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_symbols, 2))
    # Gray-mapped QPSK with unit average power
    x = ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / math.sqrt(2.0)
    z = (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) / math.sqrt(2.0)
    n = (
        rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)
    ) * math.sqrt(noise_power / 2.0)

    def bit_errors(cm_gain: complex, an_gain: complex) -> int:
        # one pair's symbols live only in this call, freed before the next pair's
        y = cm_gain * x + an_gain * z + n
        if cm_gain != 0.0:  # with no message gain, decisions are coin flips on noise
            y /= cm_gain
        return np.count_nonzero(np.stack([y.real < 0.0, y.imag < 0.0], axis=-1) != bits)

    pairs = np.broadcast(model.cm_gain, model.an_gain)
    ber = np.reshape([bit_errors(*pair) for pair in pairs], pairs.shape) / (2.0 * num_symbols)
    return ber if ber.ndim else float(ber)
