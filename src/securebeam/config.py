# securebeam/config.py
"""Scenario parameters: one validated record for all physical and protocol settings."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


class ConfigError(ValueError):
    """A scenario or experiment parameter violates its constraints."""


class InfeasibleGeometryError(RuntimeError):
    """Bob and Eve are indistinguishable in channel space; null + alignment contradict."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class PolarPosition:
    """Receiver location seen from the array: direction angle (rad) and range (m)."""

    angle_rad: float
    range_m: float

    def __post_init__(self):
        if not (0.0 < self.angle_rad < math.pi):
            raise ConfigError(f"angle_rad must lie strictly in (0, pi), got {self.angle_rad}")
        if not (math.isfinite(self.range_m) and self.range_m > 0.0):
            raise ConfigError(f"range_m must be finite and > 0, got {self.range_m}")

    @classmethod
    def from_degrees(cls, angle_deg: float, range_m: float) -> "PolarPosition":
        return cls(math.radians(angle_deg), range_m)

    @property
    def angle_deg(self) -> float:
        return math.degrees(self.angle_rad)


def _default_bob() -> PolarPosition:
    return PolarPosition.from_degrees(70.0, 1000.0)


def _default_eve() -> PolarPosition:
    return PolarPosition.from_degrees(100.0, 750.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters of one transmission scenario.

    Defaults reproduce the standard desk setup: 5 MHz total bandwidth split over
    1024 subcarriers at a 3 GHz carrier, half-wavelength element spacing, equal
    power split between message and jamming, -60 dBm noise floors, Bob at
    (70 deg, 1000 m) and Eve at (100 deg, 750 m).
    """

    num_antennas: int = 8
    num_subcarriers: int = 1024
    carrier_freq_hz: float = 3e9
    total_bandwidth_hz: float = 5e6
    element_spacing_m: float | None = None  # None -> half wavelength
    power_alloc: float = 0.5  # fraction of total power given to the message beam
    total_power_w: float = 0.1  # 20 dBm; equals 20 dB SNR through Bob's path loss
    noise_power_bob_w: float = 1e-9  # -60 dBm
    noise_power_eve_w: float = 1e-9  # -60 dBm
    bob: PolarPosition = field(default_factory=_default_bob)
    eve: PolarPosition = field(default_factory=_default_eve)
    rng_seed: int = 42

    def __post_init__(self):
        if self.num_antennas < 2:
            raise ConfigError(f"num_antennas must be >= 2, got {self.num_antennas}")
        if self.num_subcarriers < self.num_antennas:
            raise ConfigError(
                f"num_subcarriers ({self.num_subcarriers}) must be >= num_antennas "
                f"({self.num_antennas})"
            )
        for name in ("carrier_freq_hz", "total_bandwidth_hz", "total_power_w",
                     "noise_power_bob_w", "noise_power_eve_w"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        # narrowband-per-subcarrier model: total spread must stay far below carrier
        if self.total_bandwidth_hz > self.carrier_freq_hz / 10.0:
            raise ConfigError(
                f"total_bandwidth_hz ({self.total_bandwidth_hz:g}) exceeds a tenth of "
                f"carrier_freq_hz ({self.carrier_freq_hz:g}); narrowband model invalid"
            )
        if not (0.0 <= self.power_alloc <= 1.0):
            raise ConfigError(f"power_alloc (beta) must lie in [0, 1], got {self.power_alloc}")
        if self.element_spacing_m is None:
            object.__setattr__(self, "element_spacing_m", self.wavelength_m / 2.0)
        elif not (math.isfinite(self.element_spacing_m) and self.element_spacing_m > 0.0):
            raise ConfigError(f"element_spacing_m must be finite and > 0, got {self.element_spacing_m}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.total_bandwidth_hz / self.num_subcarriers

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)
