import math

import numpy as np
import pytest

from securebeam import (
    BeamPair,
    ConfigError,
    Method,
    PolarPosition,
    ReceivedModel,
    ScenarioConfig,
    ber_monte_carlo,
    build_subcarrier_plan,
    null_projector,
    path_loss,
    received_model,
    secrecy_rate,
    sinr,
    sinr_surface,
    steering_vector,
    synthesize,
)
from securebeam.experiments import power_for_snr_db


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@pytest.fixture
def scenario():
    cfg = ScenarioConfig(num_antennas=8)
    plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
    return cfg, plan


class TestReceivedModel:
    def test_min_tp_nulls_at_receivers(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        bob = received_model(cfg, plan, beams, cfg.bob, cfg.noise_power_bob_w)
        eve = received_model(cfg, plan, beams, cfg.eve, cfg.noise_power_eve_w)
        assert abs(bob.an_gain) <= 1e-8 * np.linalg.norm(beams.w_an)
        assert abs(eve.cm_gain) <= 1e-8 * np.linalg.norm(beams.w_cm)

    def test_zero_jamming_weights_give_zero_gain(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg.replace(power_alloc=1.0), plan, Method.MIN_TP)
        model = received_model(cfg, plan, beams, cfg.eve, cfg.noise_power_eve_w)
        assert model.an_gain == 0.0

    def test_noise_power_must_be_positive(self):
        with pytest.raises(ConfigError):
            ReceivedModel(cm_gain=1.0, an_gain=0.0, noise_power=0.0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise_power"):
            ReceivedModel(cm_gain=1.0, an_gain=0.0, noise_power=noise)


class TestSinr:
    def test_unity_when_signal_equals_noise(self):
        model = ReceivedModel(cm_gain=1e-3, an_gain=0.0, noise_power=1e-6)
        assert sinr(model) == pytest.approx(1.0, rel=1e-12)

    def test_zero_signal(self):
        model = ReceivedModel(cm_gain=0.0, an_gain=0.5, noise_power=1e-6)
        assert sinr(model) == 0.0

    def test_scalar_arithmetic_oracle(self):
        # hand calculator: |cm|^2 = 1e-6 * beta * P_s with the desk parameter set
        beta_ps = 0.5 * 0.1
        cm = math.sqrt(1e-6 * beta_ps)
        an = 2e-4
        model = ReceivedModel(cm_gain=cm, an_gain=an, noise_power=1e-9)
        expected = (1e-6 * beta_ps) / (4e-8 + 1e-9)
        assert sinr(model) == pytest.approx(expected, rel=1e-12)


class TestSecrecyRate:
    def test_identical_positions_clamp_to_zero(self, scenario):
        cfg, plan = scenario
        cfg = cfg.replace(eve=cfg.bob)
        beams = synthesize(cfg, plan, Method.EA)
        assert secrecy_rate(cfg, plan, beams) == 0.0

    def test_min_tp_algebraic_reduction(self, scenario):
        # with both nulls exact, SR reduces to Bob's message-only capacity
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        proj_gain = np.linalg.norm(null_projector(h_e).matrix @ h_b.values) ** 2
        g_b = path_loss(cfg.bob.range_m)
        expected = math.log2(
            1.0
            + g_b * cfg.power_alloc * cfg.total_power_w * proj_gain / cfg.noise_power_bob_w
        )
        assert secrecy_rate(cfg, plan, beams) == pytest.approx(expected, abs=1e-9)

    def test_scalar_recomputation_oracle(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.EA)
        sr = secrecy_rate(cfg, plan, beams)
        # spreadsheet-style recomputation from the raw complex gains
        h_b = steering_vector(plan, cfg, cfg.bob).values
        h_e = steering_vector(plan, cfg, cfg.eve).values
        g_b, g_e = path_loss(cfg.bob.range_m), path_loss(cfg.eve.range_m)
        sinr_b = (g_b * abs(h_b.conj() @ beams.w_cm) ** 2) / (
            g_b * abs(h_b.conj() @ beams.w_an) ** 2 + cfg.noise_power_bob_w
        )
        sinr_e = (g_e * abs(h_e.conj() @ beams.w_cm) ** 2) / (
            g_e * abs(h_e.conj() @ beams.w_an) ** 2 + cfg.noise_power_eve_w
        )
        expected = max(math.log2(1.0 + sinr_b) - math.log2(1.0 + sinr_e), 0.0)
        assert sr == pytest.approx(expected, abs=1e-9)

    def test_invariant_under_common_power_scaling(self, scenario):
        cfg, plan = scenario
        scale = 37.0
        scaled = cfg.replace(
            total_power_w=scale * cfg.total_power_w,
            noise_power_bob_w=scale * cfg.noise_power_bob_w,
            noise_power_eve_w=scale * cfg.noise_power_eve_w,
        )
        for method in Method:
            sr_a = secrecy_rate(cfg, plan, synthesize(cfg, plan, method))
            sr_b = secrecy_rate(scaled, plan, synthesize(scaled, plan, method))
            assert sr_b == pytest.approx(sr_a, rel=1e-9)

    def test_nonnegative(self, scenario):
        cfg, plan = scenario
        for method in Method:
            assert secrecy_rate(cfg, plan, synthesize(cfg, plan, method)) >= 0.0


class TestSinrSurface:
    def test_single_point_grid(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        samples = sinr_surface(
            cfg, plan, beams, np.array([70.0]), np.array([1000.0]), cfg.noise_power_bob_w
        )
        assert len(samples) == 1
        assert samples[0].theta_deg == 70.0 and samples[0].range_m == 1000.0

    def test_empty_grid_rejected(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        with pytest.raises(ConfigError):
            sinr_surface(cfg, plan, beams, np.array([]), np.array([1.0]), 1e-9)

    @pytest.mark.parametrize(
        "theta, r",
        [
            (70.0, 0.0),
            (70.0, -5.0),
            (70.0, math.nan),
            (70.0, math.inf),
            (math.nan, 1000.0),
            (math.inf, 1000.0),
        ],
    )
    def test_non_finite_or_nonpositive_grid_rejected(self, scenario, theta, r):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        grid = (np.array([10.0, theta]), np.array([1000.0, r]))
        with pytest.raises(ConfigError):
            sinr_surface(cfg, plan, beams, *grid, 1e-9)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_probe_noise_rejected(self, scenario, noise):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        with pytest.raises(ConfigError, match="probe_noise"):
            sinr_surface(cfg, plan, beams, np.array([70.0]), np.array([1000.0]), noise)

    def test_peaks_and_leakage(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        theta = np.linspace(0.0, 180.0, 91)
        ranges = np.linspace(500.0, 2987.5, 100)
        samples = sinr_surface(cfg, plan, beams, theta, ranges, cfg.noise_power_bob_w)
        cm = np.array([s.cm_sinr_db for s in samples])
        an = np.array([s.an_power_db for s in samples])
        # exact receiver positions, appended as their own probes
        at_bob = sinr_surface(
            cfg, plan, beams, np.array([70.0]), np.array([1000.0]), cfg.noise_power_bob_w
        )[0]
        at_eve = sinr_surface(
            cfg, plan, beams, np.array([100.0]), np.array([750.0]), cfg.noise_power_bob_w
        )[0]
        assert at_bob.cm_sinr_db >= cm.max() - 1e-9
        assert at_eve.an_power_db >= an.max() - 1e-9
        # nulled fields at the opposite receiver sit at least 80 dB down
        assert at_eve.cm_sinr_db <= at_bob.cm_sinr_db - 80.0
        assert at_bob.an_power_db <= at_eve.an_power_db - 80.0

    @pytest.mark.parametrize("method", list(Method))
    def test_matches_pointwise_received_model(self, scenario, method):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, method)
        theta, ranges = np.linspace(0.0, 180.0, 37), np.linspace(500.0, 2987.5, 40)
        samples = sinr_surface(cfg, plan, beams, theta, ranges, cfg.noise_power_bob_w)
        for i in np.random.default_rng(3).choice(len(samples), size=60, replace=False):
            s = samples[i]
            if not 0.0 < s.theta_deg < 180.0:
                continue  # endfire rows lie outside PolarPosition's open interval
            pos = PolarPosition.from_degrees(s.theta_deg, s.range_m)
            model = received_model(cfg, plan, beams, pos, cfg.noise_power_bob_w)
            cm_db = 10.0 * math.log10(max(sinr(model), 1e-30))
            an_db = 10.0 * math.log10(max(abs(model.an_gain) ** 2, 1e-30))
            assert s.cm_sinr_db == pytest.approx(cm_db, abs=1e-9)
            assert s.an_power_db == pytest.approx(an_db, abs=1e-9)

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_RTP)
        theta, ranges = np.linspace(10, 170, 9), np.linspace(600, 1400, 9)
        a = sinr_surface(cfg, plan, beams, theta, ranges, 1e-9)
        b = sinr_surface(cfg, plan, beams, theta, ranges, 1e-9)
        assert a == b


class TestBerMonteCarlo:
    def test_noiseless_jamming_free_is_error_free(self, scenario):
        cfg, plan = scenario
        quiet = cfg.replace(
            power_alloc=1.0, noise_power_bob_w=1e-30, noise_power_eve_w=1e-30
        )
        beams = synthesize(quiet, plan, Method.MIN_TP)
        assert ber_monte_carlo(quiet, plan, beams, quiet.bob, 10_000, 0) == 0.0

    def test_no_signal_is_coin_flipping(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg.replace(power_alloc=1.0), plan, Method.MIN_TP)
        # probe Eve with the message beam exactly nulled there
        ber = ber_monte_carlo(cfg, plan, beams, cfg.eve, 100_000, 1)
        assert ber == pytest.approx(0.5, abs=0.01)

    def test_invalid_symbol_count(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        with pytest.raises(ConfigError):
            ber_monte_carlo(cfg, plan, beams, cfg.bob, 0, 0)

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.EA)
        a = ber_monte_carlo(cfg, plan, beams, cfg.bob, 50_000, 9)
        b = ber_monte_carlo(cfg, plan, beams, cfg.bob, 50_000, 9)
        assert a == b

    def test_stacked_beams_equal_unstacked_calls(self, scenario):
        # one draw shared by every stacked pair must give each pair's own result
        cfg, plan = scenario
        pairs = [synthesize(cfg, plan, m) for m in Method]
        stacked = BeamPair(
            np.array([b.w_cm for b in pairs]), np.array([b.w_an for b in pairs]), method=None
        )
        for pos in (cfg.bob, cfg.eve):
            got = ber_monte_carlo(cfg, plan, stacked, pos, 50_000, 4)
            assert got.shape == (len(pairs),)
            for ber, beams in zip(got, pairs):
                assert ber == ber_monte_carlo(cfg, plan, beams, pos, 50_000, 4)

    def test_jammed_ber_matches_q_of_sqrt_sinr(self, scenario):
        # per bit, QPSK sees amplitude |cm|/sqrt(2) in Gaussian noise of variance
        # (|an|^2 + noise)/2, so the BER is Q(sqrt(SINR)) with the jamming on
        cfg, plan = scenario
        num_symbols = 1_000_000
        for i, snr_db in enumerate((0.0, 6.0, 12.0)):
            cfg_p = cfg.replace(total_power_w=power_for_snr_db(cfg, snr_db))
            pairs = [synthesize(cfg_p, plan, m) for m in Method]
            stacked = BeamPair(
                np.array([b.w_cm for b in pairs]), np.array([b.w_an for b in pairs]), None
            )
            bers = ber_monte_carlo(cfg_p, plan, stacked, cfg.bob, num_symbols, 100 + i)
            for ber, beams in zip(bers, pairs):
                model = received_model(cfg_p, plan, beams, cfg.bob, cfg.noise_power_bob_w)
                expected = qfunc(math.sqrt(sinr(model)))
                se = math.sqrt(expected * (1.0 - expected) / (2.0 * num_symbols))
                assert abs(ber - expected) <= 3.0 * se, (snr_db, beams.method, ber, expected)

    def test_awgn_qpsk_oracle(self, scenario):
        # jamming disabled: measured BER must match the closed-form AWGN curve
        cfg, plan = scenario
        num_symbols = 200_000
        for ebn0_db in (0.0, 4.0):
            ebn0 = 10.0 ** (ebn0_db / 10.0)
            cfg1 = cfg.replace(power_alloc=1.0, total_power_w=1.0)
            beams = synthesize(cfg1, plan, Method.MIN_TP)
            model = received_model(cfg1, plan, beams, cfg1.bob, cfg1.noise_power_bob_w)
            # rescale total power so the per-symbol SNR hits 2 Eb/N0 exactly
            es_n0 = abs(model.cm_gain) ** 2 / cfg1.noise_power_bob_w
            cfg2 = cfg1.replace(total_power_w=2.0 * ebn0 / es_n0)
            beams2 = synthesize(cfg2, plan, Method.MIN_TP)
            ber = ber_monte_carlo(cfg2, plan, beams2, cfg2.bob, num_symbols, 77)
            expected = qfunc(math.sqrt(2.0 * ebn0))
            se = math.sqrt(expected * (1.0 - expected) / (2.0 * num_symbols))
            assert abs(ber - expected) <= 3.0 * se

    def test_monotone_in_snr(self, scenario):
        cfg, plan = scenario
        bers = []
        for i, snr_db in enumerate(range(0, 13, 4)):
            cfg_p = cfg.replace(total_power_w=power_for_snr_db(cfg, snr_db))
            beams = synthesize(cfg_p, plan, Method.MIN_TP)
            bers.append(ber_monte_carlo(cfg_p, plan, beams, cfg.bob, 100_000, 5 + i))
        n_bits = 2 * 100_000
        for lo, hi in zip(bers[1:], bers[:-1]):
            se = math.sqrt(max(hi, 1e-6) * (1.0 - max(hi, 1e-6)) / n_bits)
            assert lo <= hi + 3.0 * se
