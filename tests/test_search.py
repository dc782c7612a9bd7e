import numpy as np
import pytest

from securebeam import (
    ConfigError,
    Method,
    ScenarioConfig,
    build_subcarrier_plan,
    grid_search_gamma,
    min_rtp_beamformer,
    secrecy_rate,
    steering_vector,
    synthesize,
)
from securebeam import search


@pytest.fixture
def scenario():
    cfg = ScenarioConfig(num_antennas=8)
    plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
    return cfg, plan


class TestGridRefused:
    # each grid is checked at the search door, before any channel is evaluated or beam built,
    # and the refusal names its axis
    @pytest.mark.parametrize(
        "bad, why",
        [
            ([], "1-D and nonempty"),
            ([1.0, 0.5], "strictly ascending"),
            ([0.0, np.nan], "finite and nonnegative"),
            ([0.0, np.inf], "finite and nonnegative"),
            ([np.nan, 1.0], "finite and nonnegative"),
            ([np.inf, 1.0], "finite and nonnegative"),
            ([np.inf, np.inf], "finite and nonnegative"),  # np.diff would warn on it
            ([-1.0, 0.5], "finite and nonnegative"),
            # each grid is one axis of the surface, so it is 1-D
            (np.float64(0.5), "1-D and nonempty"),
            ([[0.0, 1.0]], "1-D and nonempty"),
            ([[0.5]], "1-D and nonempty"),
            (np.zeros((2, 0)), "1-D and nonempty"),
        ],
    )
    @pytest.mark.parametrize("name", ["gamma_cm", "gamma_an"])
    def test_bad_grid_refused_naming_its_axis(self, scenario, monkeypatch, name, bad, why):
        cfg, plan = scenario
        monkeypatch.setattr(search, "_receivers", lambda *args: pytest.fail("channel evaluated"))
        grids = {"gamma_cm": [0.0], "gamma_an": [0.0], name: bad}
        with pytest.raises(ConfigError, match=f"^{name} must be {why}"):
            grid_search_gamma(cfg, plan, grids["gamma_cm"], grids["gamma_an"])


class TestGridSearch:
    def test_single_cell(self, scenario):
        cfg, plan = scenario
        surface = grid_search_gamma(cfg, plan, np.array([2.1]), np.array([1.8]))
        assert surface.shape == (1, 1) and surface.dtype == np.float64

    @pytest.mark.parametrize("seed, beta", [(42, 0.5), (7, 1.0), (42, 0.1)])
    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_every_cell_is_min_tp_rate(self, n, seed, beta):
        # P (P + gamma I)^-1 P = P / (1 + gamma) and the unit-gain rescale cancels the
        # 1 / (1 + gamma), so no factor moves a bit of the surface off Min-TP's rate;
        # beta = 1 gives the jamming beam no power
        cfg = ScenarioConfig(num_antennas=n, rng_seed=seed, power_alloc=beta)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        gammas = np.linspace(0.0, 3.0, 31)
        surface = grid_search_gamma(cfg, plan, gammas, gammas)
        sr_tp = secrecy_rate(cfg, plan, synthesize(cfg, plan, Method.MIN_TP))
        assert np.array_equal(surface, np.broadcast_to(sr_tp, (31, 31)))

    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_per_cell_synthesis(self, n):
        # oracle: per cell, the literal N x N ridge solve P (P^H P + gamma I)^-1 P^H h_t at
        # unit target gain for each beam, then secrecy_rate, on a non-square grid; it does
        # not lean on the search's shortcut that the surface is flat
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        g_cm, g_an = np.array([0.0, 0.4, 2.1]), np.array([0.05, 0.7, 1.8, 3.0, 25.0])
        surface = grid_search_gamma(cfg, plan, g_cm, g_an)
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta, p_s = cfg.power_alloc, cfg.total_power_w

        def ridge(h_t, h_n, gamma, share):
            p = np.eye(n, dtype=complex) - np.outer(h_n, h_n.conj())
            d = p @ np.linalg.solve(p.conj().T @ p + gamma * np.eye(n), p.conj().T @ h_t)
            d /= h_t.conj() @ d
            return np.sqrt(share * p_s) * d / np.linalg.norm(d)

        expected = np.array(
            [
                [
                    secrecy_rate(cfg, plan, (
                        ridge(h_b, h_e, gc, beta), ridge(h_e, h_b, ga, 1.0 - beta)
                    ))
                    for ga in g_an
                ]
                for gc in g_cm
            ]
        )
        assert surface.shape == (3, 5)
        np.testing.assert_allclose(surface, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_surface_equals_per_cell_loop_exactly(self, n):
        # reference: one beam pair per cell, built at that cell's factors, on a non-square grid
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        g_cm, g_an = np.array([0.0, 0.4, 2.1, 7.0]), np.array([0.05, 1.8, 25.0])
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta, p_s = cfg.power_alloc, cfg.total_power_w

        def scaled(d, share):
            return np.sqrt(share * p_s) * d / np.linalg.norm(d)

        expected = np.array(
            [
                [
                    secrecy_rate(cfg, plan, (
                        scaled(min_rtp_beamformer(h_b, h_e, gc), beta),
                        scaled(min_rtp_beamformer(h_e, h_b, ga), 1.0 - beta),
                    ))
                    for ga in g_an
                ]
                for gc in g_cm
            ]
        )
        assert np.array_equal(grid_search_gamma(cfg, plan, g_cm, g_an), expected)

    def test_one_pair_for_every_cell(self, scenario, monkeypatch):
        # no factor changes a beam, so the whole grid costs one channel evaluation (Bob's and
        # Eve's steering factors), one pair and one rate
        cfg, plan = scenario
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("_receivers", "_pair", "_secrecy_rate"):
            monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
        gammas = np.linspace(0.0, 3.0, 31)
        assert grid_search_gamma(cfg, plan, gammas, gammas).shape == (31, 31)
        assert calls == ["_receivers", "_pair", "_secrecy_rate"]

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        gammas = np.linspace(0.0, 2.0, 5)
        a = grid_search_gamma(cfg, plan, gammas, gammas)
        b = grid_search_gamma(cfg, plan, gammas, gammas)
        assert np.array_equal(a, b)
