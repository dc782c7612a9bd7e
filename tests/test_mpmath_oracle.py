"""Steering responses, secrecy rates and SINR-field cells against a 50-digit mpmath
evaluation of the model's defining formulas.

The oracle takes every float the code is given (frequencies, spacing, angles in
radians, ranges, beam weights) as exact and evaluates the phase in its defining
form psi_n = 2 pi / c [f_n (R - (n-1) d cos theta) - f_c R], where the two
~6e4 rad terms cancel harmlessly at 50 digits.
"""
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
from securebeam.experiments import DEFAULT_RANGE_GRID_M, DEFAULT_THETA_GRID_DEG

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
