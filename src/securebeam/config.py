# securebeam/config.py
"""Scenario parameters: one validated record for all physical and protocol settings,
and the path loss that decides which ranges it takes."""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


class ConfigError(ValueError):
    """A scenario or experiment parameter violates its constraints."""


class NameEnum(str, enum.Enum):
    """A str enum that reads its values in any case, with '-', '_' or neither, and spaces
    around: " Min-TP " is min_tp; str() gives the value, so NumPy and text see "ea"."""

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        name = str(value).strip().lower().replace("-", "").replace("_", "")
        for member in (m for m in cls if m.value.replace("_", "") == name):
            return member
        raise ConfigError(f"{value!r} is not a valid {cls.__qualname__}")


class InfeasibleGeometryError(RuntimeError):
    """Bob and Eve are indistinguishable in channel space; null + alignment contradict."""


def path_loss(range_m: np.ndarray | float) -> np.ndarray | float:
    """Free-space square-law gain g = (R / 1 m)^-2, unit reference distance; elementwise.
    Refuses a range that is not > 0 or whose gain is not a normal float: below 7.46e-155 m
    the gain overflows, and above 6.7e153 m it is subnormal (fewer digits) or 0."""
    r = np.asarray(range_m, dtype=np.float64)
    # r[()] unwraps a scalar range, whose pow matches a float's; the array loop may differ by 1 ulp
    with np.errstate(over="ignore", divide="ignore"):  # the check below names the range
        gain = r[()] ** -2.0
    bad = r[~((r > 0.0) & (gain >= np.finfo(np.float64).tiny) & (gain < np.inf))]  # NaN: False
    if bad.size:
        raise ConfigError(
            f"range_m must be finite and > 0 with a normal, finite path loss, got {bad[0]}")
    return gain


def check_count(name: str, value, low: int, high: float = 2**63) -> int:
    """value as an int in [low, high), if operator.index takes it (8.0 it does not) and it is
    no bool; numpy sizes arrays and draws with int64, so a count that sizes one stays below
    2**63."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} is not an integer: {value!r}") from None
    if count < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if count >= high:
        raise ConfigError(f"{name} must be < {high}, got {value}")
    return count


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


@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters of one transmission scenario, as given; what they imply (the
    positions, the spacing, the wavelength) is derived by properties.

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
    bob_theta_deg: float = 70.0  # angles in degrees, kept exactly as given
    bob_range_m: float = 1000.0
    eve_theta_deg: float = 100.0
    eve_range_m: float = 750.0
    rng_seed: int = 42

    def __post_init__(self):
        check_count("num_antennas", self.num_antennas, 2)
        check_count("num_subcarriers", self.num_subcarriers, self.num_antennas)
        check_count("rng_seed", self.rng_seed, 0, math.inf)  # a seed sizes nothing
        for name in ("carrier_freq_hz", "total_bandwidth_hz", "total_power_w",
                     "noise_power_bob_w", "noise_power_eve_w", "bob_range_m", "eve_range_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("bob_range_m", "eve_range_m"):
            try:
                path_loss(getattr(self, name))
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        # narrowband-per-subcarrier model: total spread must stay far below carrier
        if self.total_bandwidth_hz > self.carrier_freq_hz / 10.0:
            raise ConfigError(
                f"total_bandwidth_hz ({self.total_bandwidth_hz:g}) exceeds a tenth of "
                f"carrier_freq_hz ({self.carrier_freq_hz:g}); narrowband model invalid"
            )
        if not (0.0 <= self.power_alloc <= 1.0):
            raise ConfigError(f"power_alloc (beta) must lie in [0, 1], got {self.power_alloc}")
        for name in ("bob_theta_deg", "eve_theta_deg"):  # PolarPosition's bound, in radians
            value = getattr(self, name)
            if not (0.0 < math.radians(value) < math.pi):
                raise ConfigError(f"{name} must lie strictly between 0 and 180, got {value}")
        spacing = self.element_spacing_m
        if spacing is not None and not (math.isfinite(spacing) and spacing > 0.0):
            raise ConfigError(f"element_spacing_m must be finite and > 0, got {spacing}")
        # the largest phase of each factor of channel.steering_factors, in its float64 order:
        # element N - 1 on subcarrier N_S - 1 at |cos theta| = 1, and the farther of Bob and Eve
        two_pi_c, k = 2.0 * math.pi / SPEED_OF_LIGHT, self.num_subcarriers - 1
        df, far = self.subcarrier_spacing_hz, max("bob_range_m", "eve_range_m", key=vars(self).get)
        for name, phase in (("element_spacing_m", two_pi_c * (self.carrier_freq_hz + k * df)
                             * ((self.num_antennas - 1) * self.spacing_m)),
                            (far, getattr(self, far) * (two_pi_c * df * k))):
            if not math.isfinite(phase):
                raise ConfigError(f"steering phase not finite: {name} = {getattr(self, name)}")

    @property
    def bob(self) -> PolarPosition:
        return PolarPosition.from_degrees(self.bob_theta_deg, self.bob_range_m)

    @property
    def eve(self) -> PolarPosition:
        return PolarPosition.from_degrees(self.eve_theta_deg, self.eve_range_m)

    @property
    def spacing_m(self) -> float:
        """The element spacing: element_spacing_m if set, else half the carrier's wavelength."""
        return self.wavelength_m / 2.0 if self.element_spacing_m is None else self.element_spacing_m

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.total_bandwidth_hz / self.num_subcarriers
