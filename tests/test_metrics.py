import itertools
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from securebeam import (
    ConfigError,
    Method,
    PolarPosition,
    ScenarioConfig,
    ber_monte_carlo,
    build_subcarrier_plan,
    grid_search_gamma,
    path_loss,
    received_model,
    secrecy_rate,
    sinr,
    sinr_surface,
    steering_vector,
    synthesize,
)
from securebeam import metrics
from securebeam.experiments import (
    DEFAULT_RANGE_GRID_M,
    DEFAULT_THETA_GRID_DEG,
    _ber_seed,
    power_for_snr_db,
)
from securebeam.metrics import _CHUNK, ber_sweep
from tests.test_beamformers import null_projector


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
        _, bob_an = received_model(cfg, plan, beams, cfg.bob)
        eve_cm, _ = received_model(cfg, plan, beams, cfg.eve)
        assert abs(bob_an) <= 1e-8 * np.linalg.norm(beams[1])
        assert abs(eve_cm) <= 1e-8 * np.linalg.norm(beams[0])

    def test_zero_jamming_weights_give_zero_gain(self, scenario):
        cfg, plan = scenario
        beams = synthesize(replace(cfg, power_alloc=1.0), plan, Method.MIN_TP)
        _, an_gain = received_model(cfg, plan, beams, cfg.eve)
        assert an_gain == 0.0

    def test_noise_power_must_be_positive(self):
        with pytest.raises(ConfigError):
            sinr(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise_power"):
            sinr(1.0, 0.0, noise)


class TestSinr:
    def test_unity_when_signal_equals_noise(self):
        assert sinr(1e-3, 0.0, 1e-6) == pytest.approx(1.0, rel=1e-12)

    def test_zero_signal(self):
        assert sinr(0.0, 0.5, 1e-6) == 0.0

    def test_scalar_arithmetic_oracle(self):
        # hand calculator: |cm|^2 = 1e-6 * beta * P_s with the desk parameter set
        beta_ps = 0.5 * 0.1
        cm = math.sqrt(1e-6 * beta_ps)
        an = 2e-4
        expected = (1e-6 * beta_ps) / (4e-8 + 1e-9)
        assert sinr(cm, an, 1e-9) == pytest.approx(expected, rel=1e-12)


class TestSecrecyRate:
    def test_identical_positions_clamp_to_zero(self, scenario):
        cfg, plan = scenario
        cfg = replace(cfg, eve_theta_deg=cfg.bob_theta_deg, eve_range_m=cfg.bob_range_m)
        beams = synthesize(cfg, plan, Method.EA)
        assert secrecy_rate(cfg, plan, beams) == 0.0

    def test_min_tp_algebraic_reduction(self, scenario):
        # with both nulls exact, SR reduces to Bob's message-only capacity
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        proj_gain = np.linalg.norm(null_projector(h_e) @ h_b) ** 2
        g_b = path_loss(cfg.bob.range_m)
        expected = math.log2(
            1.0
            + g_b * cfg.power_alloc * cfg.total_power_w * proj_gain / cfg.noise_power_bob_w
        )
        assert secrecy_rate(cfg, plan, beams) == pytest.approx(expected, abs=1e-9)

    def test_scalar_recomputation_oracle(self, scenario):
        cfg, plan = scenario
        w_cm, w_an = beams = synthesize(cfg, plan, Method.EA)
        sr = secrecy_rate(cfg, plan, beams)
        # spreadsheet-style recomputation from the raw complex gains
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        g_b, g_e = path_loss(cfg.bob.range_m), path_loss(cfg.eve.range_m)
        sinr_b = (g_b * abs(h_b.conj() @ w_cm) ** 2) / (
            g_b * abs(h_b.conj() @ w_an) ** 2 + cfg.noise_power_bob_w
        )
        sinr_e = (g_e * abs(h_e.conj() @ w_cm) ** 2) / (
            g_e * abs(h_e.conj() @ w_an) ** 2 + cfg.noise_power_eve_w
        )
        expected = max(math.log2(1.0 + sinr_b) - math.log2(1.0 + sinr_e), 0.0)
        assert sr == pytest.approx(expected, abs=1e-9)

    def test_invariant_under_common_power_scaling(self, scenario):
        cfg, plan = scenario
        scale = 37.0
        scaled = replace(
            cfg,
            total_power_w=scale * cfg.total_power_w,
            noise_power_bob_w=scale * cfg.noise_power_bob_w,
            noise_power_eve_w=scale * cfg.noise_power_eve_w,
        )
        for method in Method:
            sr_a = secrecy_rate(cfg, plan, synthesize(cfg, plan, method))
            sr_b = secrecy_rate(scaled, plan, synthesize(scaled, plan, method))
            assert sr_b == pytest.approx(sr_a, rel=1e-9)

    def test_min_tp_is_optimal_among_nulled_pairs(self):
        # with both nulls exact, SR = log2(1 + beta P g_b / (||d||^2 s_b)) for a
        # unit-gain message direction d, largest at the minimum-norm d: Min-TP.
        # Adding components orthogonal to h_b and h_e keeps both nulls; at the same
        # power it can only lower Bob's message gain.
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            cfg = ScenarioConfig(
                num_antennas=n,
                bob_theta_deg=rng.uniform(5, 175), bob_range_m=rng.uniform(100, 2000),
                eve_theta_deg=rng.uniform(5, 175), eve_range_m=rng.uniform(100, 2000),
                total_power_w=10.0 ** rng.uniform(-4, 1),
                power_alloc=rng.uniform(0.05, 0.95),
                rng_seed=int(rng.integers(0, 2**31)),
            )
            plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
            h_b = steering_vector(plan, cfg, cfg.bob)
            h_e = steering_vector(plan, cfg, cfg.eve)
            # orthonormal basis of the complement of span{h_b, h_e}; empty at N = 2
            complement = np.linalg.qr(np.column_stack([h_b, h_e]), mode="complete")[0][:, 2:]
            best = synthesize(cfg, plan, Method.MIN_TP)

            def perturbed(w):
                # add a random component in the complement, at the same power
                c = rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2)
                size = 10.0 ** rng.uniform(-3, 1) * np.linalg.norm(w) / math.sqrt(n)
                v = w + size * (complement @ c)
                return v * np.linalg.norm(w) / np.linalg.norm(v)

            w_cm, w_an = perturbed(best[0]), perturbed(best[1])
            assert abs(h_e.conj() @ w_cm) <= 1e-10 * np.linalg.norm(w_cm)
            assert abs(h_b.conj() @ w_an) <= 1e-10 * np.linalg.norm(w_an)
            sr = secrecy_rate(cfg, plan, (w_cm, w_an))
            assert sr <= secrecy_rate(cfg, plan, best) + 1e-12

    def test_nonnegative(self, scenario):
        cfg, plan = scenario
        for method in Method:
            assert secrecy_rate(cfg, plan, synthesize(cfg, plan, method)) >= 0.0

    def test_closed_forms_in_rho(self):
        # with rho = h_e^H h_b and S_b, S_e the transmit SNRs through each path loss:
        # Min-TP:  SR = log2(1 + beta S_b (1 - |rho|^2));
        # EA, whose weights are h_b and h_e themselves:
        #   SR = max(log2(1 + beta S_b / ((1 - beta) S_b |rho|^2 + 1))
        #            - log2(1 + beta S_e |rho|^2 / ((1 - beta) S_e + 1)), 0)
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            cfg = ScenarioConfig(
                num_antennas=n,
                bob_theta_deg=rng.uniform(5, 175), bob_range_m=rng.uniform(100, 2000),
                eve_theta_deg=rng.uniform(5, 175), eve_range_m=rng.uniform(100, 2000),
                power_alloc=rng.uniform(0.05, 0.95),
                rng_seed=int(rng.integers(0, 2**31)),
            )
            plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
            h_b = steering_vector(plan, cfg, cfg.bob)
            h_e = steering_vector(plan, cfg, cfg.eve)
            rho2 = abs(h_e.conj() @ h_b) ** 2
            beta = cfg.power_alloc
            s_b = cfg.total_power_w * path_loss(cfg.bob.range_m) / cfg.noise_power_bob_w
            s_e = cfg.total_power_w * path_loss(cfg.eve.range_m) / cfg.noise_power_eve_w
            expected = {
                Method.MIN_TP: math.log2(1.0 + beta * s_b * (1.0 - rho2)),
                Method.EA: max(
                    math.log2(1.0 + beta * s_b / ((1.0 - beta) * s_b * rho2 + 1.0))
                    - math.log2(1.0 + beta * s_e * rho2 / ((1.0 - beta) * s_e + 1.0)),
                    0.0,
                ),
            }
            for method, want in expected.items():
                got = secrecy_rate(cfg, plan, synthesize(cfg, plan, method))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=method.value)

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    @pytest.mark.parametrize("seed", [1, 7, 42, 901])
    def test_each_receivers_sinr_closed_form_in_rho(self, seed, n):
        # EA is MRT here: every steering entry has modulus 1/sqrt(N), so EA's weights are
        # h_b and h_e themselves. With rho = h_e^H h_b and S_b, S_e each receiver's SNR,
        #   EA:     SINR_b = beta S_b / ((1 - beta) S_b |rho|^2 + 1)
        #           SINR_e = beta S_e |rho|^2 / ((1 - beta) S_e + 1)
        #   Min-TP: SINR_b = beta S_b (1 - |rho|^2), SINR_e = 0
        # at each receiver's own gains and in the rate of the pair, whose Bob and Eve
        # factors are shared by the beams and the metric in the gamma search
        for beta, snr_db in itertools.product([0.1, 0.5, 0.9], range(-30, 31, 6)):
            cfg = ScenarioConfig(num_antennas=n, power_alloc=beta, rng_seed=seed)
            cfg = replace(cfg, total_power_w=power_for_snr_db(cfg, snr_db))
            plan = build_subcarrier_plan(seed, n, cfg.num_subcarriers)
            h_b, h_e = (steering_vector(plan, cfg, pos) for pos in (cfg.bob, cfg.eve))
            rho2 = abs(np.vdot(h_e, h_b)) ** 2
            s_b = cfg.total_power_w * path_loss(cfg.bob_range_m) / cfg.noise_power_bob_w
            s_e = cfg.total_power_w * path_loss(cfg.eve_range_m) / cfg.noise_power_eve_w
            want = {
                Method.EA: (beta * s_b / ((1.0 - beta) * s_b * rho2 + 1.0),
                            beta * s_e * rho2 / ((1.0 - beta) * s_e + 1.0)),
                Method.MIN_TP: (beta * s_b * (1.0 - rho2), 0.0),
            }
            for method, (want_b, want_e) in want.items():
                beams = synthesize(cfg, plan, method)
                got_b = sinr(*received_model(cfg, plan, beams, cfg.bob), cfg.noise_power_bob_w)
                got_e = sinr(*received_model(cfg, plan, beams, cfg.eve), cfg.noise_power_eve_w)
                case = f"{method.value} beta {beta} at {snr_db} dB"
                np.testing.assert_allclose(got_b, want_b, rtol=1e-12, atol=0.0, err_msg=case)
                if method is Method.EA:
                    np.testing.assert_allclose(got_e, want_e, rtol=1e-12, atol=0.0, err_msg=case)
                else:  # an exact null leaves rounding only
                    assert got_e <= 1e-25 * got_b, case
                rate = max(math.log1p((want_b - want_e) / (1.0 + want_e)) / math.log(2.0), 0.0)
                np.testing.assert_allclose(
                    secrecy_rate(cfg, plan, beams), rate, rtol=1e-12, atol=0.0, err_msg=case)
            # Min-RTP is Min-TP, and the last rate above is Min-TP's
            surface = grid_search_gamma(cfg, plan, [0.0], [0.0])
            np.testing.assert_allclose(surface, [[rate]], rtol=1e-12, atol=0.0, err_msg=case)


class TestSinrSurface:
    def test_single_point_grid(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        samples = sinr_surface(cfg, plan, beams, np.array([70.0]), np.array([1000.0]))
        assert len(samples) == 1
        assert samples.dtype.names == ("cm_sinr_db", "an_power_db")

    def test_empty_grid_rejected(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        with pytest.raises(ConfigError):
            sinr_surface(cfg, plan, beams, np.array([]), np.array([1.0]))

    def test_one_beam_pair_only(self, scenario, monkeypatch):
        # a stack of 2 pairs on a 5 x 4 grid used to give 40 records, so record
        # i * len(ranges) + j no longer probed (theta[i], ranges[j])
        cfg, plan = scenario
        w_cm, w_an = synthesize(cfg, plan, Method.EA)
        grid = (np.linspace(0.0, 180.0, 5), np.linspace(500.0, 2000.0, 4))
        monkeypatch.setattr(metrics, "steering_factors", lambda *args: pytest.fail("evaluated"))
        stacked = (np.stack([w_cm, w_cm]), np.stack([w_an, w_an]))
        for beams in (stacked, (w_cm, stacked[1]), (w_cm, w_an[:4])):
            shapes = re.escape(str([w.shape for w in beams]))
            with pytest.raises(ValueError, match=rf"one pair of shape \(8,\), got {shapes}"):
                sinr_surface(cfg, plan, beams, *grid)

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
            sinr_surface(cfg, plan, beams, *grid)

    @pytest.mark.parametrize("noise_bob", [1e-12, 1e-9, 1e-5])
    def test_probed_at_bobs_noise_floor(self, scenario, noise_bob):
        # every grid point, Eve's included, sees Bob's noise floor and not Eve's
        cfg, plan = scenario
        cfg = replace(cfg, noise_power_bob_w=noise_bob, noise_power_eve_w=1.0)
        beams = synthesize(cfg, plan, Method.EA)
        theta, ranges = np.array([70.0, 100.0]), np.array([750.0, 1000.0])
        field = sinr_surface(cfg, plan, beams, theta, ranges)
        cells = [(t, r) for t in theta for r in ranges]  # theta-major
        for s, (t, r) in zip(field, cells, strict=True):
            gains = received_model(cfg, plan, beams, PolarPosition.from_degrees(t, r))
            want = 10.0 * math.log10(sinr(*gains, noise_bob))
            assert s.cm_sinr_db == pytest.approx(want, abs=1e-9)

    def test_peaks_and_leakage(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_TP)
        theta = np.linspace(0.0, 180.0, 91)
        ranges = np.linspace(500.0, 2987.5, 100)
        samples = sinr_surface(cfg, plan, beams, theta, ranges)
        cm, an = samples.cm_sinr_db, samples.an_power_db
        # exact receiver positions, appended as their own probes
        at_bob = sinr_surface(cfg, plan, beams, np.array([70.0]), np.array([1000.0]))[0]
        at_eve = sinr_surface(cfg, plan, beams, np.array([100.0]), np.array([750.0]))[0]
        assert at_bob.cm_sinr_db >= cm.max() - 1e-9
        assert at_eve.an_power_db >= an.max() - 1e-9
        # nulled fields at the opposite receiver sit at least 80 dB down
        assert at_eve.cm_sinr_db <= at_bob.cm_sinr_db - 80.0
        assert at_bob.an_power_db <= at_eve.an_power_db - 80.0

    @pytest.mark.parametrize(
        "method, n",
        [pytest.param(m, n, id=m.value if n == 8 else f"{m.value}-{n}")
         for n in (8, 256) for m in Method],
    )
    def test_matches_pointwise_received_model(self, method, n):
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        beams = synthesize(cfg, plan, method)
        theta, ranges = np.linspace(0.0, 180.0, 37), np.linspace(500.0, 2987.5, 40)
        samples = sinr_surface(cfg, plan, beams, theta, ranges)
        tt, rr = (g.ravel() for g in np.meshgrid(theta, ranges, indexing="ij"))
        for i in np.random.default_rng(3).choice(len(samples), size=60, replace=False):
            s = samples[i]
            if not 0.0 < tt[i] < 180.0:
                continue  # endfire rows lie outside PolarPosition's open interval
            pos = PolarPosition.from_degrees(tt[i], rr[i])
            cm_gain, an_gain = received_model(cfg, plan, beams, pos)
            cm_db = 10.0 * math.log10(max(sinr(cm_gain, an_gain, cfg.noise_power_bob_w), 1e-30))
            an_db = 10.0 * math.log10(max(abs(an_gain) ** 2, 1e-30))
            assert s.cm_sinr_db == pytest.approx(cm_db, abs=1e-9)
            assert s.an_power_db == pytest.approx(an_db, abs=1e-9)

    @pytest.mark.parametrize(
        "n, fields",
        [
            pytest.param(8, {}, id="8"),
            pytest.param(256, {}, id="256"),
            # the grid product left Eve's message gain at 0.41 eps sqrt(g(R)) ||w|| here,
            # which printed as -298.33 dB before such residues were zeroed
            pytest.param(8, {"rng_seed": 7, "power_alloc": 1.0}, id="8-seed7-beta1"),
        ],
    )
    @pytest.mark.parametrize("method", [Method.MIN_TP, Method.MIN_RTP])
    def test_nulls_sit_at_the_floor_on_the_default_grid(self, n, fields, method):
        # both nulls are exact, so the grid product leaves only rounding there, which
        # sinr_surface zeroes: the cells read the -300 dB floor, whatever the rounding
        cfg = ScenarioConfig(num_antennas=n, **fields)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        beams = synthesize(cfg, plan, method)
        theta, ranges = np.linspace(*DEFAULT_THETA_GRID_DEG), np.linspace(*DEFAULT_RANGE_GRID_M)
        field = sinr_surface(cfg, plan, beams, theta, ranges)
        tt, rr = (g.ravel() for g in np.meshgrid(theta, ranges, indexing="ij"))

        def cell(theta_deg, range_m):
            hit = np.isclose(tt, theta_deg, rtol=0.0) & (rr == range_m)
            assert np.count_nonzero(hit) == 1  # the default grid holds Bob and Eve
            return field[hit][0]

        assert cell(cfg.eve_theta_deg, cfg.eve_range_m).cm_sinr_db == -300.0
        assert cell(cfg.bob_theta_deg, cfg.bob_range_m).an_power_db == -300.0

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.MIN_RTP)
        theta, ranges = np.linspace(10, 170, 9), np.linspace(600, 1400, 9)
        a = sinr_surface(cfg, plan, beams, theta, ranges)
        b = sinr_surface(cfg, plan, beams, theta, ranges)
        assert np.array_equal(a, b)


def literal_ber(cfg, plan, beams, pos, noise_power, num_symbols, seed):
    """BER by the complex decision rule written out in full: Gray-mapped QPSK x,
    unit-power jamming z and noise n drawn from `seed`, y = cm x + an z + n, and
    sign decisions on y / cm (on y itself when cm == 0), one stacked pair at a time."""
    cm_gains, an_gains = received_model(cfg, plan, beams, pos)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_symbols, 2))
    x = ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / math.sqrt(2.0)
    z = (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) / math.sqrt(2.0)
    n = (
        rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)
    ) * math.sqrt(noise_power / 2.0)
    pairs = np.broadcast(cm_gains, an_gains)
    errors = []
    for cm, an in pairs:
        y = cm * x + an * z + n
        if cm != 0.0:
            y = y / cm
        errors.append(np.count_nonzero(np.stack([y.real < 0.0, y.imag < 0.0], axis=-1) != bits))
    return np.reshape(errors, pairs.shape) / (2.0 * num_symbols)


def stack(pairs):
    return tuple(np.array(ws) for ws in zip(*pairs))


class TestBerMonteCarlo:
    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_error_counts_equal_literal_complex_decisions(self, n, beta):
        # at 6 dB every probe errs often, so many decisions sit near their threshold
        cfg = ScenarioConfig(num_antennas=n)
        cfg = replace(cfg, power_alloc=beta, total_power_w=power_for_snr_db(cfg, 6.0))
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        pairs = [synthesize(cfg, plan, m) for m in Method]
        stacked, num_symbols = stack(pairs), 20_000
        for pos, noise in ((cfg.bob, cfg.noise_power_bob_w), (cfg.eve, cfg.noise_power_eve_w)):
            for seed in (0, 1, 2):
                want = literal_ber(cfg, plan, stacked, pos, noise, num_symbols, seed)
                got = ber_monte_carlo(cfg, plan, stacked, pos, num_symbols, seed)
                np.testing.assert_array_equal(got, want)
                for beams, ber in zip(pairs, want):
                    assert ber_monte_carlo(cfg, plan, beams, pos, num_symbols, seed) == ber

    @pytest.mark.parametrize("num_symbols", [1, 2, 7, _CHUNK, 3 * _CHUNK + 7])
    def test_chunked_decisions_equal_literal_ones(self, scenario, num_symbols):
        # odd counts and counts off the chunk size draw the same stream as one draw
        cfg, plan = scenario
        stacked = stack([synthesize(cfg, plan, m) for m in Method])
        for pos, noise in ((cfg.bob, cfg.noise_power_bob_w), (cfg.eve, cfg.noise_power_eve_w)):
            want = literal_ber(cfg, plan, stacked, pos, noise, num_symbols, 3)
            got = ber_monte_carlo(cfg, plan, stacked, pos, num_symbols, 3)
            np.testing.assert_array_equal(got, want)

    def test_exact_zero_message_gain_is_coin_flipping(self, scenario):
        # beta = 0 sends no message power, so cm == 0 exactly and the decisions see
        # only jamming and noise
        cfg, plan = scenario
        cfg = replace(cfg, power_alloc=0.0)
        stacked = stack([synthesize(cfg, plan, m) for m in Method])
        num_symbols = 100_000
        cm_gains, _ = received_model(cfg, plan, stacked, cfg.bob)
        assert np.all(cm_gains == 0.0)
        bers = ber_monte_carlo(cfg, plan, stacked, cfg.bob, num_symbols, 6)
        se = math.sqrt(0.25 / (2.0 * num_symbols))
        assert np.all(np.abs(bers - 0.5) <= 3.0 * se), bers
        want = literal_ber(cfg, plan, stacked, cfg.bob, cfg.noise_power_bob_w, num_symbols, 6)
        np.testing.assert_array_equal(bers, want)

    def test_noiseless_jamming_free_is_error_free(self, scenario):
        cfg, plan = scenario
        quiet = replace(cfg, power_alloc=1.0, noise_power_bob_w=1e-30, noise_power_eve_w=1e-30)
        beams = synthesize(quiet, plan, Method.MIN_TP)
        assert ber_monte_carlo(quiet, plan, beams, quiet.bob, 10_000, 0) == 0.0

    def test_no_signal_is_coin_flipping(self, scenario):
        cfg, plan = scenario
        beams = synthesize(replace(cfg, power_alloc=1.0), plan, Method.MIN_TP)
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

    def test_probe_off_bob_and_eve_rejected(self, scenario):
        # the noise floor is only known at Bob and Eve
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.EA)
        past_eve = PolarPosition(cfg.eve.angle_rad, cfg.eve.range_m + 1e-9)
        with pytest.raises(ConfigError, match="Bob or Eve"):
            ber_monte_carlo(cfg, plan, beams, past_eve, 1000, 0)

    def test_colocated_receivers_use_eve_noise(self, scenario):
        cfg, plan = scenario
        cfg = replace(cfg, eve_theta_deg=cfg.bob_theta_deg, eve_range_m=cfg.bob_range_m, noise_power_eve_w=1e-6)
        beams = synthesize(cfg, plan, Method.EA)
        ber = ber_monte_carlo(cfg, plan, beams, cfg.bob, 20_000, 3)
        eve_floor = replace(cfg, noise_power_bob_w=1e-6)
        assert ber == ber_monte_carlo(eve_floor, plan, beams, cfg.bob, 20_000, 3)

    def test_stacked_beams_equal_unstacked_calls(self, scenario):
        # one draw shared by every stacked pair must give each pair's own result, also
        # when only one of the two beams is stacked and the other broadcasts against it
        cfg, plan = scenario
        pairs = [synthesize(cfg, plan, m) for m in Method]
        (w_cm, w_an), (cm_stack, an_stack) = pairs[1], stack(pairs)
        for pos in (cfg.bob, cfg.eve):
            for stacked, each in (
                ((cm_stack, an_stack), pairs),
                ((w_cm, an_stack), [(w_cm, w) for w in an_stack]),
                ((cm_stack, w_an), [(w, w_an) for w in cm_stack]),
            ):
                got = ber_monte_carlo(cfg, plan, stacked, pos, 50_000, 4)
                assert got.shape == (len(pairs),)
                for ber, beams in zip(got, each):
                    assert ber == ber_monte_carlo(cfg, plan, beams, pos, 50_000, 4)

    def test_memory_is_three_gaussian_rows(self, scenario):
        # Re z, Im z and Re n are held for every symbol, 24 bytes each; Im n is drawn chunk
        # by chunk, and the chunk temporaries of three stacked pairs stay below 2 MiB
        cfg, plan = scenario
        stacked, n = stack([synthesize(cfg, plan, m) for m in Method]), 1_000_000
        ber_monte_carlo(cfg, plan, stacked, cfg.bob, 1000, 1)  # one-time caches stay out
        tracemalloc.start()
        try:
            ber_monte_carlo(cfg, plan, stacked, cfg.bob, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n + 2 * 2**20, peak

    def test_jammed_ber_matches_q_of_sqrt_sinr(self, scenario):
        # per bit, QPSK sees amplitude |cm|/sqrt(2) in Gaussian noise of variance
        # (|an|^2 + noise)/2, so the BER is Q(sqrt(SINR)) with the jamming on
        cfg, plan = scenario
        num_symbols = 1_000_000
        for i, snr_db in enumerate((0.0, 6.0, 12.0)):
            cfg_p = replace(cfg, total_power_w=power_for_snr_db(cfg, snr_db))
            pairs = [synthesize(cfg_p, plan, m) for m in Method]
            bers = ber_monte_carlo(cfg_p, plan, stack(pairs), cfg.bob, num_symbols, 100 + i)
            for method, ber, beams in zip(Method, bers, pairs):
                gains = received_model(cfg_p, plan, beams, cfg.bob)
                expected = qfunc(math.sqrt(sinr(*gains, cfg.noise_power_bob_w)))
                se = math.sqrt(expected * (1.0 - expected) / (2.0 * num_symbols))
                assert abs(ber - expected) <= 3.0 * se, (snr_db, method, ber, expected)

    def test_awgn_qpsk_oracle(self, scenario):
        # jamming disabled: measured BER must match the closed-form AWGN curve
        cfg, plan = scenario
        num_symbols = 200_000
        for ebn0_db in (0.0, 4.0):
            ebn0 = 10.0 ** (ebn0_db / 10.0)
            cfg1 = replace(cfg, power_alloc=1.0, total_power_w=1.0)
            beams = synthesize(cfg1, plan, Method.MIN_TP)
            cm_gain, _ = received_model(cfg1, plan, beams, cfg1.bob)
            # rescale total power so the per-symbol SNR hits 2 Eb/N0 exactly
            es_n0 = abs(cm_gain) ** 2 / cfg1.noise_power_bob_w
            cfg2 = replace(cfg1, total_power_w=2.0 * ebn0 / es_n0)
            beams2 = synthesize(cfg2, plan, Method.MIN_TP)
            ber = ber_monte_carlo(cfg2, plan, beams2, cfg2.bob, num_symbols, 77)
            expected = qfunc(math.sqrt(2.0 * ebn0))
            se = math.sqrt(expected * (1.0 - expected) / (2.0 * num_symbols))
            assert abs(ber - expected) <= 3.0 * se

    def test_monotone_in_snr(self, scenario):
        cfg, plan = scenario
        bers = []
        for i, snr_db in enumerate(range(0, 13, 4)):
            cfg_p = replace(cfg, total_power_w=power_for_snr_db(cfg, snr_db))
            beams = synthesize(cfg_p, plan, Method.MIN_TP)
            bers.append(ber_monte_carlo(cfg_p, plan, beams, cfg.bob, 100_000, 5 + i))
        n_bits = 2 * 100_000
        for lo, hi in zip(bers[1:], bers[:-1]):
            se = math.sqrt(max(hi, 1e-6) * (1.0 - max(hi, 1e-6)) / n_bits)
            assert lo <= hi + 3.0 * se


class TestBerStream:
    # the BER core reads the bits as raw PCG64 words in chunks, and the Gaussian rows
    # from a second generator advanced past the bits; these pin the numpy behaviour
    # that makes that the single stream of literal_ber: int64 bits, then the Gaussians

    @staticmethod
    def raw_words(seed, n):
        bit_gen = np.random.PCG64(seed)
        return np.concatenate(
            [bit_gen.random_raw(min(_CHUNK, n - start)) for start in range(0, n, _CHUNK)]
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 3 * _CHUNK + 7])
    def test_raw_word_bits_are_the_int64_stream(self, n):
        u = self.raw_words(11, n)
        bits = np.stack([(u >> np.uint64(31)) & np.uint64(1), u >> np.uint64(63)], axis=-1)
        np.testing.assert_array_equal(bits, np.random.default_rng(11).integers(0, 2, (n, 2)))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 3 * _CHUNK + 7])
    def test_bits_span_one_64_bit_output_per_symbol(self, n):
        advanced = np.random.PCG64(11).advance(n).state
        bit_gen = np.random.PCG64(11)
        bit_gen.random_raw(n)
        assert bit_gen.state == advanced
        rng = np.random.default_rng(11)
        rng.integers(0, 2, size=(n, 2))
        state = rng.bit_generator.state  # its stale 'uinteger' is unused at has_uint32 == 0
        assert (state["state"], state["has_uint32"]) == (advanced["state"], 0)

    @pytest.mark.parametrize("n", [7, 3 * _CHUNK + 7])
    def test_chunked_bits_equal_one_draw(self, n):
        np.testing.assert_array_equal(self.raw_words(11, n), np.random.PCG64(11).random_raw(n))

    def test_sign_bit_flip_is_multiplication(self):
        # the masks of _bit_errors flip exactly the products whose bit is 1, as 1 - 2b
        # does, at signed zeros and at values equal to a threshold too
        threshold = -(0.3**2) / math.sqrt(2.0)
        values = np.array([0.0, -0.0, threshold, -threshold, 5e-324, -1.5, math.inf])
        # every value with every pair of bits, and with raw words' other bits set
        words = np.array([0, 1 << 31, 1 << 63, (1 << 63) | (1 << 31), 2**64 - 1], np.uint64)
        g, u = (a.ravel() for a in np.meshgrid(values, np.append(words, self.raw_words(5, 4))))
        sign = np.uint64(1 << 63)
        for b, mask in (
            ((u >> np.uint64(31)) & np.uint64(1), (u << np.uint64(32)) & sign),
            (u >> np.uint64(63), u & sign),
        ):
            flipped = (g.view(np.uint64) ^ mask).view(np.float64)
            want = g * (1.0 - 2.0 * b)
            np.testing.assert_array_equal(flipped.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(flipped < threshold, want < threshold)


@pytest.fixture
def switchy():
    """Switch threads every microsecond, so an unsafe interleaving shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestBerSweep:
    @pytest.mark.parametrize("workers", [None, 1, 3, 8], ids=lambda w: f"workers={w}")
    @pytest.mark.parametrize("beta", [0.0, 0.5])  # beta = 0: cm == 0 exactly, coin flips
    def test_points_equal_serial_calls(self, scenario, monkeypatch, switchy, workers, beta):
        # W workers against one: ber_monte_carlo is the one-point sweep, on the calling
        # thread. 7 points: more than workers, an odd count; symbols off the chunk size
        if workers is not None:  # None: as many as the code picks for this machine
            monkeypatch.setattr(metrics, "_ber_workers", lambda points: min(workers, points))
        cfg, plan = scenario
        cfg = replace(cfg, power_alloc=beta)
        snrs_db, num_symbols = np.arange(0.0, 14.0, 2.0), 3 * _CHUNK + 7
        seeds = [_ber_seed(cfg.rng_seed, i) for i in range(len(snrs_db))]
        by_method = [
            [synthesize(replace(cfg, total_power_w=p), plan, m) for p in power_for_snr_db(cfg, snrs_db)]
            for m in Method
        ]
        cm_swept, an_swept = stack([stack(row) for row in by_method])  # (methods, points, N)
        w_cm, w_an = by_method[1][3]  # one unstacked pair, to broadcast against a stack
        stackings = [  # both beams stacked, then either one unstacked; each point's beams
            ((cm_swept, an_swept), lambda i: (cm_swept[:, i], an_swept[:, i])),
            ((w_cm, an_swept), lambda i: (w_cm, an_swept[:, i])),
            ((cm_swept, w_an), lambda i: (cm_swept[:, i], w_an)),
        ]
        for (swept, point), pos in itertools.product(stackings, (cfg.bob, cfg.eve)):
            assert np.all(received_model(cfg, plan, swept, pos)[0] == 0.0) == (beta == 0.0)
            got = ber_sweep(cfg, plan, swept, pos, num_symbols, seeds)
            assert got.shape == (len(Method), len(snrs_db))
            for i, seed in enumerate(seeds):
                want = ber_monte_carlo(cfg, plan, point(i), pos, num_symbols, seed)
                np.testing.assert_array_equal(got[:, i], want)
            if beta == 0.0:
                se = math.sqrt(0.25 / (2.0 * num_symbols))
                assert np.all(np.abs(got - 0.5) <= 4.0 * se), got

    def test_error_counts_do_not_depend_on_the_chunk(self, scenario, monkeypatch):
        # _CHUNK sets memory and time only: 2 pairs at 3 points, a count no chunk size divides
        cfg, plan = scenario
        snrs_db, num_symbols = np.array([0.0, 3.0, 6.0]), 2 * (1 << 14) + 5
        seeds = [_ber_seed(cfg.rng_seed, i) for i in range(len(snrs_db))]
        beams = stack([
            stack([synthesize(replace(cfg, total_power_w=p), plan, m)
                   for p in power_for_snr_db(cfg, snrs_db)])
            for m in (Method.EA, Method.MIN_TP)
        ])  # (pairs, points, N)
        counts = []
        for chunk in (1 << 12, 3 << 12, 1 << 13, 1 << 14):
            monkeypatch.setattr(metrics, "_CHUNK", chunk)
            counts.append(ber_sweep(cfg, plan, beams, cfg.bob, num_symbols, seeds))
        assert counts[0].shape == (2, 3) and np.all(counts[0] > 0.0)
        for got in counts[1:]:
            np.testing.assert_array_equal(got, counts[0])

    def test_seed_count_must_match_points(self, scenario):
        cfg, plan = scenario
        beams = synthesize(cfg, plan, Method.EA)
        with pytest.raises(ValueError, match="one pair per seed"):
            ber_sweep(cfg, plan, beams, cfg.bob, 1000, [1, 2])

    def test_one_point_runs_on_the_calling_thread(self):
        assert metrics._ber_workers(1) == 1
