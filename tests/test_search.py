import numpy as np
import pytest

from securebeam import (
    ConfigError,
    Method,
    ScenarioConfig,
    build_subcarrier_plan,
    ea_beamformer,
    grid_search_gamma,
    min_rtp_beamformer,
    min_tp_beamformer,
    secrecy_rate,
    steering_vector,
    synthesize,
)
from securebeam import beamformers, search
from securebeam.beamformers import power_scaled


@pytest.fixture
def scenario():
    cfg = ScenarioConfig(num_antennas=8)
    plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
    return cfg, plan


class TestGridRefused:
    # each grid is checked at the search door, before any beam is built, and the refusal
    # names its axis
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
            # the search stacks each axis as a (G, 1) column, so a grid is 1-D
            (np.float64(0.5), "1-D and nonempty"),
            ([[0.0, 1.0]], "1-D and nonempty"),
            ([[0.5]], "1-D and nonempty"),
            (np.zeros((2, 0)), "1-D and nonempty"),
        ],
    )
    @pytest.mark.parametrize("name", ["gamma_cm", "gamma_an"])
    def test_bad_grid_refused_naming_its_axis(self, scenario, monkeypatch, name, bad, why):
        cfg, plan = scenario
        monkeypatch.setattr(search, "steering_vector", lambda *args: pytest.fail("beam built"))
        grids = {"gamma_cm": [0.0], "gamma_an": [0.0], name: bad}
        with pytest.raises(ConfigError, match=f"^{name} must be {why}"):
            grid_search_gamma(cfg, plan, grids["gamma_cm"], grids["gamma_an"])


class TestGridSearch:
    def test_single_cell(self, scenario):
        cfg, plan = scenario
        surface = grid_search_gamma(cfg, plan, np.array([2.1]), np.array([1.8]))
        assert surface.shape == (1, 1) and surface.dtype == np.float64

    @pytest.mark.parametrize("n", [8, 128])
    def test_every_cell_is_min_tp_rate(self, n):
        # P (P + gamma I)^-1 P = P / (1 + gamma) and the unit-gain rescale cancels the
        # 1 / (1 + gamma), so no factor moves a bit of the default surface off Min-TP's rate
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        gammas = np.linspace(0.0, 3.0, 31)
        surface = grid_search_gamma(cfg, plan, gammas, gammas)
        sr_tp = secrecy_rate(cfg, plan, synthesize(cfg, plan, Method.MIN_TP))
        assert np.array_equal(surface, np.broadcast_to(sr_tp, (31, 31)))

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("blend", [False, True])
    def test_matches_per_cell_synthesis(self, n, blend, monkeypatch):
        # oracle: one beam pair + secrecy_rate per cell, on a non-square grid.
        # Min-RTP's surface is flat, so a gamma-dependent stand-in beam also
        # checks that each gamma lands on its own row and column.
        if blend:
            def blended(h_t, h_n, gamma):
                w = gamma / (1.0 + gamma)
                return (1.0 - w) * min_tp_beamformer(h_t, h_n) + w * ea_beamformer(h_t)

            monkeypatch.setattr(beamformers, "min_rtp_beamformer", blended)
            monkeypatch.setattr(search, "min_rtp_beamformer", blended)
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        g_cm, g_an = np.array([0.0, 0.4, 2.1]), np.array([0.05, 0.7, 1.8, 3.0, 25.0])
        surface = grid_search_gamma(cfg, plan, g_cm, g_an)
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta = cfg.power_alloc

        def pair(gc, ga):  # looked up on the module, so the stand-in applies
            w_cm = power_scaled(cfg, beamformers.min_rtp_beamformer(h_b, h_e, gc), beta)
            w_an = power_scaled(cfg, beamformers.min_rtp_beamformer(h_e, h_b, ga), 1.0 - beta)
            return w_cm, w_an

        expected = np.array(
            [
                [secrecy_rate(cfg, plan, pair(gc, ga)) for ga in g_an]
                for gc in g_cm
            ]
        )
        assert surface.shape == (3, 5)
        assert (np.ptp(expected) > 1e-3) == blend
        np.testing.assert_allclose(surface, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [8, 128])
    def test_surface_equals_per_cell_loop_exactly(self, n):
        # the stacked beams keep every bit of the per-value beams, so the surface does too
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        g_cm, g_an = np.array([0.0, 0.4, 2.1, 7.0]), np.array([0.05, 1.8, 25.0])
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta = cfg.power_alloc
        expected = np.array(
            [
                [
                    secrecy_rate(cfg, plan, (
                        power_scaled(cfg, min_rtp_beamformer(h_b, h_e, gc), beta),
                        power_scaled(cfg, min_rtp_beamformer(h_e, h_b, ga), 1.0 - beta),
                    ))
                    for ga in g_an
                ]
                for gc in g_cm
            ]
        )
        assert np.array_equal(grid_search_gamma(cfg, plan, g_cm, g_an), expected)

    def test_one_beam_call_per_axis(self, scenario, monkeypatch):
        cfg, plan = scenario
        calls = []

        def counting(h_t, h_n, gamma):
            calls.append(np.shape(gamma))
            return min_rtp_beamformer(h_t, h_n, gamma)

        monkeypatch.setattr(search, "min_rtp_beamformer", counting)
        gammas = np.linspace(0.0, 3.0, 31)
        grid_search_gamma(cfg, plan, gammas, gammas)
        assert calls == [(31, 1), (31, 1)]

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        gammas = np.linspace(0.0, 2.0, 5)
        a = grid_search_gamma(cfg, plan, gammas, gammas)
        b = grid_search_gamma(cfg, plan, gammas, gammas)
        assert np.array_equal(a, b)
