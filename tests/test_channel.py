import math
import re
from dataclasses import asdict, replace

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
from securebeam.channel import steering_factors

# frozen regression fixture: first draw of the seeded sampler (seed=42, N=8, N_S=1024)
PLAN_SEED42_N8_NS1024 = [87, 714, 877, 667, 442, 447, 90, 787]


@pytest.fixture
def cfg():
    return ScenarioConfig(num_antennas=4)


class TestSubcarrierPlan:
    def test_single_antenna_single_subcarrier(self):
        plan = build_subcarrier_plan(123, 1, 1)
        assert plan.tolist() == [0]

    def test_exhaustion_gives_permutation(self):
        plan = build_subcarrier_plan(5, 8, 8)
        assert sorted(plan.tolist()) == list(range(8))

    def test_frozen_reference_draw(self):
        plan = build_subcarrier_plan(42, 8, 1024)
        assert plan.tolist() == PLAN_SEED42_N8_NS1024

    def test_deterministic(self):
        a = build_subcarrier_plan(7, 16, 1024)
        b = build_subcarrier_plan(7, 16, 1024)
        assert np.array_equal(a, b)

    def test_too_many_antennas_rejected(self):
        with pytest.raises(ConfigError):
            build_subcarrier_plan(0, 9, 8)

    @pytest.mark.parametrize(
        "n_antennas, n_subcarriers, name",
        [(0, 8, "n_antennas"), (2.0, 8, "n_antennas"), (2, 8.0, "n_subcarriers"),
         (2, 2**70, "n_subcarriers")],
    )
    def test_bad_count_rejected(self, n_antennas, n_subcarriers, name):
        with pytest.raises(ConfigError, match=f"^{name} "):
            build_subcarrier_plan(42, n_antennas, n_subcarriers)

    def test_many_seeds_all_valid(self):
        for seed in range(1000):
            plan = build_subcarrier_plan(seed, 8, 64)
            assert plan.shape == (8,) and plan.dtype == np.int64
            assert np.unique(plan).size == 8
            assert plan.min() >= 0 and plan.max() < 64

    def test_out_of_range_rejected(self, cfg):
        # a plan is checked against the scenario that uses it: cfg has 1,024 subcarriers
        for plan in ([0, 1, 2, 1024], [-1, 1, 2, 3]):
            with pytest.raises(ConfigError, match="1023"):
                steering_vector(np.array(plan), cfg, cfg.bob)


class TestSteeringVector:
    def test_broadside_common_subcarrier_is_flat(self, cfg):
        # identical k_n, which the RSS draw never gives, is the classic ULA case
        h = steering_vector(np.zeros(4, dtype=np.int64), cfg, PolarPosition(math.pi / 2, 500.0))
        np.testing.assert_allclose(h, np.full(4, 0.5 + 0j), atol=1e-9)

    def test_unit_norm(self, cfg):
        # steering vectors are plain arrays, so unit norm is checked here and nowhere else
        for seed in range(50):
            plan = build_subcarrier_plan(seed, 4, 1024)
            h = steering_vector(plan, cfg, PolarPosition.from_degrees(37.0, 820.0))
            assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
        for n in (2, 8, 256, 1024):  # 1024 uses every subcarrier
            cfg_n = replace(cfg, num_antennas=n)
            for seed in range(5):
                plan = build_subcarrier_plan(seed, n, 1024)
                for theta in (0.5, 37.0, 90.0, 143.0, 179.5):
                    for r in (1.0, 820.0, 2500.0, 5000.0):
                        h = steering_vector(plan, cfg_n, PolarPosition.from_degrees(theta, r))
                        assert abs(np.linalg.norm(h) - 1.0) <= 1e-12

    def test_deterministic_bitwise(self, cfg):
        plan = build_subcarrier_plan(3, 4, 1024)
        pos = PolarPosition.from_degrees(70.0, 1000.0)
        a = steering_vector(plan, cfg, pos)
        b = steering_vector(plan, cfg, pos)
        assert np.array_equal(a, b)

    def test_common_subcarrier_is_range_independent(self, cfg):
        plan = np.zeros(4, dtype=np.int64)
        theta = math.radians(55.0)
        h1 = steering_vector(plan, cfg, PolarPosition(theta, 300.0))
        h2 = steering_vector(plan, cfg, PolarPosition(theta, 4000.0))
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    def test_plan_length_mismatch_rejected(self, cfg):
        pos = PolarPosition.from_degrees(50.0, 100.0)
        for plan in (build_subcarrier_plan(0, 5, 1024), np.arange(4).reshape(2, 2),
                     np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0])):
            with pytest.raises(ConfigError, match="4 integers in"):
                steering_vector(plan, cfg, pos)

    def test_plan_drawn_for_a_wider_band_rejected(self):
        cfg = ScenarioConfig()
        plan = build_subcarrier_plan(42, cfg.num_antennas, 4096)  # indices up to 3,515
        with pytest.raises(ConfigError, match="1023"):
            steering_vector(plan, cfg, cfg.bob)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0) == 1.0

    def test_square_law(self):
        assert path_loss(1000.0) == pytest.approx(1e-6, rel=1e-15)
        assert path_loss(750.0) == pytest.approx(1.0 / 562500.0, rel=1e-15)

    @pytest.mark.parametrize("r", [0.0, -3.0, math.nan, math.inf])
    def test_nonpositive_range_rejected(self, r):
        with pytest.raises(ConfigError):
            path_loss(r)

    @pytest.mark.parametrize(
        "r, named", [(1e-160, "1e-160"), (5e-324, "5e-324"), ([1000.0, 1e-300], "1e-300")]
    )
    def test_range_whose_gain_overflows_rejected(self, r, named):
        # (R / 1 m)^-2 is inf below 7.46e-155 m, and would reach the CSVs as NaN
        with pytest.raises(ConfigError, match=f"^range_m .* finite path loss, got {named}$"):
            path_loss(r)

    def test_small_range_with_a_finite_gain_accepted(self):
        assert path_loss(1e-154) == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("r, named", [(1e300, 1e300), (6.71e153, 6.71e153),
                                          ([1000.0, 1e160], 1e160)])
    def test_range_whose_gain_is_not_normal_rejected(self, r, named):
        # above 6.7e153 m the gain is subnormal, with fewer digits, and above 6.4e161 m it is 0
        message = f"^range_m .* normal, finite path loss, got {re.escape(str(named))}$"
        with pytest.raises(ConfigError, match=message):
            path_loss(r)

    def test_large_range_with_a_normal_gain_accepted(self):
        assert path_loss(1e153) == pytest.approx(1e-306, rel=1e-15)
        assert path_loss(6.7e153) >= np.finfo(np.float64).tiny


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

    def test_degrees_kept_as_given(self):
        # 212 of these 1,799 angles change in a radians round trip, 94 of them for good;
        # the scenario keeps the degrees given, and its positions hold their radians
        for tenths in range(1, 1800):
            deg = tenths / 10.0
            cfg = ScenarioConfig(bob_theta_deg=deg, eve_theta_deg=180.0 - deg)
            assert cfg.bob_theta_deg == deg and cfg.bob.angle_rad == math.radians(deg)
            assert cfg.eve_theta_deg == 180.0 - deg
            assert cfg.eve.angle_rad == math.radians(180.0 - deg)
            assert asdict(cfg)["bob_theta_deg"] == deg
        from_radians = PolarPosition(math.radians(3.0), 100.0)
        assert from_radians == PolarPosition.from_degrees(3.0, 100.0)  # same radians, same place

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
        assert cfg.element_spacing_m is None  # kept as given
        assert cfg.spacing_m == pytest.approx(SPEED_OF_LIGHT / (2.0 * 3e9), rel=1e-15)

    def test_default_spacing_follows_carrier_on_replace(self):
        cfg = replace(ScenarioConfig(), carrier_freq_hz=6e9)
        assert cfg.spacing_m == SPEED_OF_LIGHT / (2.0 * 6e9)
        assert replace(cfg, carrier_freq_hz=3e9) == ScenarioConfig()

    def test_explicit_spacing_survives_replace(self):
        cfg = replace(ScenarioConfig(element_spacing_m=0.04), carrier_freq_hz=6e9)
        assert cfg.spacing_m == cfg.element_spacing_m == 0.04
        assert replace(cfg, num_antennas=4).spacing_m == 0.04

    @pytest.mark.parametrize("name", ["bob_range_m", "eve_range_m"])
    @pytest.mark.parametrize("value", [1e-160, 1e300])
    def test_range_whose_path_loss_is_not_normal_rejected(self, name, value):
        # path_loss's rule, applied when the record is made and naming the field
        message = f"^{name}: range_m .* normal, finite path loss, got {re.escape(str(value))}$"
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize(
        "fields, named",
        [({"element_spacing_m": 1e308}, "element_spacing_m = 1e+308"),
         ({"carrier_freq_hz": 1e300, "total_bandwidth_hz": 1e299, "bob_range_m": 1e100},
          "bob_range_m = 1e+100"),
         ({"carrier_freq_hz": 1e300, "total_bandwidth_hz": 1e299, "eve_range_m": 1e100},
          "eve_range_m = 1e+100")],
        ids=["spacing", "bob-range", "eve-range"],
    )
    def test_steering_phase_that_overflows_rejected_by_field(self, fields, named):
        # each used to construct and fail only when a run first computed its steering
        with pytest.raises(ConfigError, match=f"^steering phase not finite: {re.escape(named)}$"):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize(
        "name, base",
        [("element_spacing_m", {}),
         ("bob_range_m", {"carrier_freq_hz": 1e300, "total_bandwidth_hz": 1e299})],
    )
    def test_steering_phase_bound_is_that_of_steering_factors(self, name, base):
        # the last value the record takes gives finite phases at element N - 1 on subcarrier
        # N_S - 1 at cos theta = 1, and the next float up does not: the same float64 order
        def accepted(value):
            try:
                return ScenarioConfig(**base, **{name: value})
            except ConfigError:
                return None

        def as_float(bits):  # positive floats order as their bits, read as integers
            return float(np.int64(bits).view(np.float64))

        lo, hi = (int(np.float64(v).view(np.int64)) for v in (1.0, 1e308))
        assert accepted(as_float(lo)) and not accepted(as_float(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(as_float(mid)) else (lo, mid)
        cfg = accepted(as_float(lo))
        plan = np.full(cfg.num_antennas, cfg.num_subcarriers - 1)
        a, b = steering_factors(plan, cfg, 0.0, cfg.bob_range_m)
        assert np.isfinite(a).all() and np.isfinite(b).all()
        object.__setattr__(cfg, name, as_float(hi))  # past the record's check
        with pytest.raises(ConfigError, match="^steering phase not finite"):
            steering_factors(plan, cfg, 0.0, cfg.bob_range_m)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="rng_seed"):
            ScenarioConfig(rng_seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [("num_antennas", 8.5), ("num_antennas", 8.0), ("num_subcarriers", 1024.5),
         ("num_subcarriers", 2**70), ("rng_seed", 1.5), ("rng_seed", math.nan)],
    )
    def test_count_that_is_not_an_int64_integer_rejected(self, name, value):
        # each used to construct, then fail at run time with a raw TypeError or OverflowError
        with pytest.raises(ConfigError, match=f"^{name} "):
            ScenarioConfig(**{name: value})

    def test_integer_counts_accepted(self):
        # any integer operator.index takes; a seed sizes no array, so it has no int64 bound
        assert ScenarioConfig(num_antennas=np.int64(8)).num_antennas == 8
        assert ScenarioConfig(num_subcarriers=np.uint16(1024)).num_subcarriers == 1024
        assert ScenarioConfig(rng_seed=2**64).rng_seed == 2**64
