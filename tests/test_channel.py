import math

import numpy as np
import pytest

from securebeam import (
    ConfigError,
    PolarPosition,
    ScenarioConfig,
    SPEED_OF_LIGHT,
    build_subcarrier_plan,
    path_loss,
    steering_vector,
)
from securebeam.channel import SubcarrierPlan

# frozen regression fixture: first draw of the seeded sampler (seed=42, N=8, N_S=1024)
PLAN_SEED42_N8_NS1024 = [87, 714, 877, 667, 442, 447, 90, 787]


@pytest.fixture
def cfg():
    return ScenarioConfig(num_antennas=4)


class TestSubcarrierPlan:
    def test_single_antenna_single_subcarrier(self):
        plan = build_subcarrier_plan(123, 1, 1)
        assert plan.indices.tolist() == [0]

    def test_exhaustion_gives_permutation(self):
        plan = build_subcarrier_plan(5, 8, 8)
        assert sorted(plan.indices.tolist()) == list(range(8))

    def test_frozen_reference_draw(self):
        plan = build_subcarrier_plan(42, 8, 1024)
        assert plan.indices.tolist() == PLAN_SEED42_N8_NS1024

    def test_deterministic(self):
        a = build_subcarrier_plan(7, 16, 1024)
        b = build_subcarrier_plan(7, 16, 1024)
        assert np.array_equal(a.indices, b.indices)

    def test_too_many_antennas_rejected(self):
        with pytest.raises(ConfigError):
            build_subcarrier_plan(0, 9, 8)

    def test_many_seeds_all_valid(self):
        for seed in range(1000):
            plan = build_subcarrier_plan(seed, 8, 64)
            idx = plan.indices
            assert np.unique(idx).size == 8
            assert idx.min() >= 0 and idx.max() < 64

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ConfigError):
            SubcarrierPlan(indices=np.array([0, 1, 1]), num_subcarriers=8)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SubcarrierPlan(indices=np.array([0, 9]), num_subcarriers=8)


class TestSteeringVector:
    def test_broadside_common_subcarrier_is_flat(self, cfg):
        # bypass the distinct-index invariant: identical k_n is the classic ULA case
        plan = SubcarrierPlan(indices=np.array([0, 1, 2, 3]), num_subcarriers=1024)
        object.__setattr__(plan, "indices", np.zeros(4, dtype=np.int64))
        h = steering_vector(plan, cfg, PolarPosition(math.pi / 2, 500.0))
        np.testing.assert_allclose(h.values, np.full(4, 0.5 + 0j), atol=1e-9)

    def test_unit_norm(self, cfg):
        for seed in range(50):
            plan = build_subcarrier_plan(seed, 4, 1024)
            h = steering_vector(plan, cfg, PolarPosition.from_degrees(37.0, 820.0))
            assert abs(np.linalg.norm(h.values) - 1.0) <= 1e-12

    def test_deterministic_bitwise(self, cfg):
        plan = build_subcarrier_plan(3, 4, 1024)
        pos = PolarPosition.from_degrees(70.0, 1000.0)
        a = steering_vector(plan, cfg, pos)
        b = steering_vector(plan, cfg, pos)
        assert np.array_equal(a.values, b.values)

    def test_phase_formula_against_scalar_oracle(self, cfg):
        # oracle: one-line scalar evaluation of the per-element phase, 1-based n
        plan = SubcarrierPlan(indices=np.array([12, 500, 711, 1023]), num_subcarriers=1024)
        pos = PolarPosition.from_degrees(70.0, 1000.0)
        h = steering_vector(plan, cfg, pos)
        df = cfg.total_bandwidth_hz / cfg.num_subcarriers
        d = cfg.element_spacing_m
        for n in range(1, 5):
            k = plan.indices[n - 1]
            psi = (
                2.0 * math.pi * (cfg.carrier_freq_hz + k * df)
                * (pos.range_m - (n - 1) * d * math.cos(pos.angle_rad)) / SPEED_OF_LIGHT
                - 2.0 * math.pi * cfg.carrier_freq_hz * pos.range_m / SPEED_OF_LIGHT
            )
            expected = math.cos(psi) / 2.0 + 1j * math.sin(psi) / 2.0
            assert abs(h.values[n - 1] - expected) < 1e-10

    def test_common_subcarrier_is_range_independent(self, cfg):
        plan = SubcarrierPlan(indices=np.array([1, 2, 3, 4]), num_subcarriers=1024)
        object.__setattr__(plan, "indices", np.zeros(4, dtype=np.int64))
        theta = math.radians(55.0)
        h1 = steering_vector(plan, cfg, PolarPosition(theta, 300.0))
        h2 = steering_vector(plan, cfg, PolarPosition(theta, 4000.0))
        np.testing.assert_allclose(h1.values, h2.values, atol=1e-9)

    def test_plan_length_mismatch_rejected(self, cfg):
        plan = build_subcarrier_plan(0, 5, 1024)
        with pytest.raises(ConfigError):
            steering_vector(plan, cfg, PolarPosition.from_degrees(50.0, 100.0))


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0) == 1.0

    def test_square_law(self):
        assert path_loss(1000.0) == pytest.approx(1e-6, rel=1e-15)
        assert path_loss(750.0) == pytest.approx(1.0 / 562500.0, rel=1e-15)

    @pytest.mark.parametrize("r", [0.0, -3.0])
    def test_nonpositive_range_rejected(self, r):
        with pytest.raises(ConfigError):
            path_loss(r)


class TestConfigValidation:
    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError, match="beta"):
            ScenarioConfig(power_alloc=1.5)

    def test_bandwidth_too_wide_for_carrier(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(carrier_freq_hz=3e9, total_bandwidth_hz=5e8)

    def test_angle_must_be_interior(self):
        with pytest.raises(ConfigError):
            PolarPosition(0.0, 100.0)
        with pytest.raises(ConfigError):
            PolarPosition(math.pi, 100.0)

    @pytest.mark.parametrize(
        "field",
        [
            "carrier_freq_hz",
            "total_bandwidth_hz",
            "element_spacing_m",
            "power_alloc",
            "total_power_w",
            "noise_power_bob_w",
            "noise_power_eve_w",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scenario_value_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("angle, range_m", [(1.0, math.nan), (1.0, math.inf), (math.nan, 100.0)])
    def test_non_finite_position_rejected(self, angle, range_m):
        with pytest.raises(ConfigError):
            PolarPosition(angle, range_m)

    def test_default_spacing_is_half_wavelength(self):
        cfg = ScenarioConfig()
        assert cfg.element_spacing_m == pytest.approx(
            SPEED_OF_LIGHT / (2.0 * 3e9), rel=1e-15
        )
