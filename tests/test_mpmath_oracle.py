"""Steering responses, secrecy rates and SINR-field cells against a 50-digit mpmath
evaluation of the model's defining formulas.

The oracle takes every float the code is given (frequencies, spacing, angles in
radians, ranges, beam weights) as exact and evaluates the phase in its defining
form psi_n = 2 pi / c [f_n (R - (n-1) d cos theta) - f_c R], where the two
~6e4 rad terms cancel harmlessly at 50 digits. Near the feasibility edge and at
-30 dB the oracle takes the float steering factors as exact instead, so that it
measures the beams' and rates' own rounding, not that of the phases.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from securebeam import (
    Method,
    PolarPosition,
    ScenarioConfig,
    SPEED_OF_LIGHT,
    build_subcarrier_plan,
    secrecy_rate,
    sinr_surface,
    steering_vector,
    synthesize,
)
from securebeam.channel import steering_factors
from securebeam.experiments import DEFAULT_RANGE_GRID_M, DEFAULT_THETA_GRID_DEG, power_for_snr_db

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def mp_steering(cfg, plan, theta_rad, range_m):
    c, fc = mp.mpf(SPEED_OF_LIGHT), mp.mpf(cfg.carrier_freq_hz)
    df, d = mp.mpf(cfg.subcarrier_spacing_hz), mp.mpf(cfg.spacing_m)
    r, cos_t = mp.mpf(range_m), mp.cos(mp.mpf(theta_rad))
    scale = 1 / mp.sqrt(len(plan))
    h = []
    for n, k in enumerate(plan.tolist()):
        f_n = fc + k * df
        psi = 2 * mp.pi / c * (f_n * (r - n * d * cos_t) - fc * r)
        h.append(mp.expj(psi) * scale)
    return h


def mp_gain_power(cfg, plan, w, theta_rad, range_m):
    """|sqrt(g(R)) h(theta, R)^H w|^2 with g = R^-2."""
    h = mp_steering(cfg, plan, theta_rad, range_m)
    gain = mp.fsum(mp.conj(hn) * mp.mpc(complex(wn)) for hn, wn in zip(h, w))
    return abs(gain) ** 2 / mp.mpf(range_m) ** 2


def mp_sinr(cfg, plan, beams, theta_rad, range_m, noise):
    w_cm, w_an = beams
    cm = mp_gain_power(cfg, plan, w_cm, theta_rad, range_m)
    an = mp_gain_power(cfg, plan, w_an, theta_rad, range_m)
    return cm / (an + mp.mpf(noise)), an


def default_scenario(n):
    cfg = ScenarioConfig(num_antennas=n)
    return cfg, build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)


def test_steering_values_match_oracle():
    # a float64 phase of psi rad is itself off by up to ~psi * 1e-16; out to Bob's
    # 1 km every phase stays below ~110 rad, which leaves room for 1e-14 absolute
    rng = np.random.default_rng(21)
    # a hand-picked plan that spans the band, at Bob's default position, then random cases
    cases = [(np.array([12, 500, 711, 1023]),
              PolarPosition.from_degrees(70.0, 1000.0))]
    for _ in range(40):
        n = int(rng.integers(2, 65))
        plan = build_subcarrier_plan(int(rng.integers(0, 2**31)), n, 1024)
        cases.append(
            (plan, PolarPosition(rng.uniform(0.01, np.pi - 0.01), rng.uniform(1.0, 1000.0)))
        )
    for plan, pos in cases:
        cfg = ScenarioConfig(num_antennas=len(plan))
        got = steering_vector(plan, cfg, pos)
        want = np.array(
            [complex(v) for v in mp_steering(cfg, plan, pos.angle_rad, pos.range_m)]
        )
        assert np.max(np.abs(got - want)) <= 1e-14, (plan, pos)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_default_secrecy_rate_matches_oracle(n, method):
    cfg, plan = default_scenario(n)
    beams = synthesize(cfg, plan, method)
    bob, eve = cfg.bob, cfg.eve
    sinr_b, _ = mp_sinr(cfg, plan, beams, bob.angle_rad, bob.range_m, cfg.noise_power_bob_w)
    sinr_e, _ = mp_sinr(cfg, plan, beams, eve.angle_rad, eve.range_m, cfg.noise_power_eve_w)
    want = max(mp.log(1 + sinr_b, 2) - mp.log(1 + sinr_e, 2), 0)
    got = secrecy_rate(cfg, plan, beams)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("method", [Method.EA, Method.MIN_TP], ids=lambda m: m.value)
def test_deepest_field_cells_match_oracle(method):
    # the deepest cells above the -300 dB floor cancel the most, so they show the
    # steering formula's rounding first
    cfg, plan = default_scenario(8)
    beams = synthesize(cfg, plan, method)
    theta, ranges = np.linspace(*DEFAULT_THETA_GRID_DEG), np.linspace(*DEFAULT_RANGE_GRID_M)
    field = sinr_surface(cfg, plan, beams, theta, ranges)
    tt, rr = (g.ravel() for g in np.meshgrid(theta, ranges, indexing="ij"))
    for column in ("cm_sinr_db", "an_power_db"):
        values = field[column]
        above = np.flatnonzero(values > -300.0)
        for i in above[np.argsort(values[above])[:15]]:
            sinr_cm, an = mp_sinr(
                cfg, plan, beams, np.radians(tt[i]), rr[i], cfg.noise_power_bob_w
            )
            want = 10 * mp.log10(sinr_cm if column == "cm_sinr_db" else an)
            assert abs(values[i] - want) <= 1e-10, (column, tt[i], rr[i])


EPS = np.finfo(np.float64).eps


def mp_response(cfg, plan, pos):
    """h(pos) = a(theta) * b(R) of the float factors steering_factors computes, taken as exact."""
    a, b = steering_factors(plan, cfg, pos.angle_rad, pos.range_m)
    return [mp.mpc(x) * mp.mpc(y) for x, y in zip(a.tolist(), b.tolist())]


def mp_dot(u, v):
    """u^H v of two sequences of mpc."""
    return mp.fsum(mp.conj(x) * y for x, y in zip(u, v))


def mp_power(h, w):
    """|h^H w|^2 of the float weights w, taken as exact."""
    return abs(mp_dot(h, [mp.mpc(x) for x in w.tolist()])) ** 2


@pytest.mark.parametrize("k", range(2, 17))
def test_min_tp_near_the_feasibility_edge(k):
    # N = 8 at 20 dB with Eve at Bob's range and at 70 deg + dtheta, so that 1 - |rho|^2 is
    # about 10**-k. The rate's relative error grows as eps / sqrt(1 - |rho|^2), measured at
    # most 0.73 times that (0.77 from 1.1e-18 to 1e-17); one projection and log2(1 + s) erred
    # by 0.44 at 1e-15 and by 2.1 at 1e-16
    cfg = ScenarioConfig(num_antennas=8, eve_theta_deg=70.0 + math.sqrt(10.0**-k / 1.4e-2),
                         eve_range_m=ScenarioConfig.bob_range_m)
    cfg = replace(cfg, total_power_w=float(power_for_snr_db(cfg, 20.0)))
    plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
    h_b, h_e = mp_response(cfg, plan, cfg.bob), mp_response(cfg, plan, cfg.eve)
    n_b, n_e, rho = mp_dot(h_b, h_b).real, mp_dot(h_e, h_e).real, mp_dot(h_e, h_b)
    gap = 1 - abs(rho) ** 2 / (n_b * n_e)
    assert 0.5 < gap * 10**k < 2
    # the exact pair nulls both leaks, so Eve's SINR is 0 and Bob's is
    # beta P g_b ||P_e h_b||^2 / sigma_b, with P_e the projector off h_e
    power = mp.mpf(cfg.power_alloc) * mp.mpf(cfg.total_power_w) / mp.mpf(cfg.bob_range_m) ** 2
    want = mp.log(1 + power * (n_b - abs(rho) ** 2 / n_e) / mp.mpf(cfg.noise_power_bob_w), 2)
    w_cm, w_an = synthesize(cfg, plan, Method.MIN_TP)
    got = secrecy_rate(cfg, plan, (w_cm, w_an))
    assert abs(got - want) <= 2 * EPS / mp.sqrt(gap) * want, (got, want)
    # each beam's null holds to rounding at its own power: the leaks were measured at most
    # 0.28 eps^2 of it, where one projection leaked up to 1e16 eps^2 at 1e-16
    assert mp_power(h_e, w_cm) <= EPS**2 * cfg.power_alloc * cfg.total_power_w
    assert mp_power(h_b, w_an) <= EPS**2 * (1 - cfg.power_alloc) * cfg.total_power_w


@pytest.mark.parametrize("n", [8, 64])
def test_ea_rate_at_minus_30_db(n):
    # both SINRs are below 1e-3, so the two log terms nearly cancel; one log1p of their
    # quotient errs by 0.47 eps (N = 8) and 1.4 eps (N = 64), where log2(1 + s_b) -
    # log2(1 + s_e) erred by about 400 eps
    cfg, plan = default_scenario(n)
    cfg = replace(cfg, total_power_w=float(power_for_snr_db(cfg, -30.0)))
    w_cm, w_an = synthesize(cfg, plan, Method.EA)
    sinrs = []
    for pos, noise in ((cfg.bob, cfg.noise_power_bob_w), (cfg.eve, cfg.noise_power_eve_w)):
        h, loss = mp_response(cfg, plan, pos), 1 / mp.mpf(pos.range_m) ** 2
        sinrs.append(loss * mp_power(h, w_cm) / (loss * mp_power(h, w_an) + mp.mpf(noise)))
    want = mp.log((1 + sinrs[0]) / (1 + sinrs[1]), 2)
    assert abs(secrecy_rate(cfg, plan, (w_cm, w_an)) - want) <= 4 * EPS * want
