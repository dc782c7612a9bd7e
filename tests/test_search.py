import numpy as np
import pytest

from securebeam import (
    BeamPair,
    ConfigError,
    GammaGrid,
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


class TestGammaGrid:
    def test_linear_factory(self):
        grid = GammaGrid.linear(3.0, 31)
        assert grid.gamma_cm_values[0] == 0.0
        assert grid.gamma_cm_values[-1] == 3.0
        assert grid.gamma_cm_values.size == 31

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            GammaGrid(gamma_cm_values=np.array([]), gamma_an_values=np.array([1.0]))

    def test_descending_rejected(self):
        with pytest.raises(ConfigError):
            GammaGrid(gamma_cm_values=np.array([1.0, 0.5]), gamma_an_values=np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError):
            GammaGrid(gamma_cm_values=np.array([0.0, bad]), gamma_an_values=np.array([0.0]))
        with pytest.raises(ConfigError):
            GammaGrid(gamma_cm_values=np.array([0.0]), gamma_an_values=np.array([bad, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            GammaGrid(gamma_cm_values=np.array([-1.0, 0.5]), gamma_an_values=np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.float64(0.5), [[0.0, 1.0]], [[0.5]], np.zeros((2, 0))])
    @pytest.mark.parametrize("name", ["gamma_cm_values", "gamma_an_values"])
    def test_not_1d_rejected(self, name, bad):
        # the search stacks each axis as a (G, 1) column, so a grid is 1-D
        fields = {"gamma_cm_values": [0.0], "gamma_an_values": [0.0], name: bad}
        with pytest.raises(ConfigError, match=f"^{name} must be 1-D, got shape"):
            GammaGrid(**fields)


class TestGridSearch:
    def test_single_cell(self, scenario):
        cfg, plan = scenario
        grid = GammaGrid(gamma_cm_values=np.array([2.1]), gamma_an_values=np.array([1.8]))
        result = grid_search_gamma(cfg, plan, grid)
        assert result.best == (2.1, 1.8)
        assert result.surface.shape == (1, 1)
        assert result.best_sr == result.surface[0, 0]

    def test_zero_cell_matches_unregularized(self, scenario):
        cfg, plan = scenario
        grid = GammaGrid(
            gamma_cm_values=np.array([0.0, 1.0]), gamma_an_values=np.array([0.0, 1.0])
        )
        result = grid_search_gamma(cfg, plan, grid)
        sr_tp = secrecy_rate(cfg, plan, synthesize(cfg, plan, Method.MIN_TP))
        assert result.surface[0, 0] == pytest.approx(sr_tp, abs=1e-9)

    def test_argmax_against_full_rescan(self, scenario):
        cfg, plan = scenario
        grid = GammaGrid.linear(3.0, 7)
        result = grid_search_gamma(cfg, plan, grid)
        assert result.best_sr == result.surface.max()
        assert np.all(result.best_sr >= result.surface)
        # first row-major maximum wins ties
        flat = int(np.argmax(result.surface))
        bi, bj = np.unravel_index(flat, result.surface.shape)
        assert result.best[0] == grid.gamma_cm_values[bi]
        assert result.best[1] == grid.gamma_an_values[bj]

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
        grid = GammaGrid(
            gamma_cm_values=np.array([0.0, 0.4, 2.1]),
            gamma_an_values=np.array([0.05, 0.7, 1.8, 3.0, 25.0]),
        )
        result = grid_search_gamma(cfg, plan, grid)
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta = cfg.power_alloc

        def pair(gc, ga):  # looked up on the module, so the stand-in applies
            w_cm = power_scaled(cfg, beamformers.min_rtp_beamformer(h_b, h_e, gc), beta)
            w_an = power_scaled(cfg, beamformers.min_rtp_beamformer(h_e, h_b, ga), 1.0 - beta)
            return BeamPair(w_cm, w_an)

        expected = np.array(
            [
                [secrecy_rate(cfg, plan, pair(gc, ga)) for ga in grid.gamma_an_values]
                for gc in grid.gamma_cm_values
            ]
        )
        assert result.surface.shape == (3, 5)
        assert (np.ptp(expected) > 1e-3) == blend
        np.testing.assert_allclose(result.surface, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [8, 128])
    def test_surface_equals_per_cell_loop_exactly(self, n):
        # the stacked beams keep every bit of the per-value beams, so the surface does too
        cfg = ScenarioConfig(num_antennas=n)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        grid = GammaGrid(
            gamma_cm_values=np.array([0.0, 0.4, 2.1, 7.0]),
            gamma_an_values=np.array([0.05, 1.8, 25.0]),
        )
        h_b, h_e = steering_vector(plan, cfg, cfg.bob), steering_vector(plan, cfg, cfg.eve)
        beta = cfg.power_alloc
        expected = np.array(
            [
                [
                    secrecy_rate(cfg, plan, BeamPair(
                        power_scaled(cfg, min_rtp_beamformer(h_b, h_e, gc), beta),
                        power_scaled(cfg, min_rtp_beamformer(h_e, h_b, ga), 1.0 - beta),
                    ))
                    for ga in grid.gamma_an_values
                ]
                for gc in grid.gamma_cm_values
            ]
        )
        assert np.array_equal(grid_search_gamma(cfg, plan, grid).surface, expected)

    def test_one_beam_call_per_axis(self, scenario, monkeypatch):
        cfg, plan = scenario
        calls = []

        def counting(h_t, h_n, gamma):
            calls.append(np.shape(gamma))
            return min_rtp_beamformer(h_t, h_n, gamma)

        monkeypatch.setattr(search, "min_rtp_beamformer", counting)
        grid_search_gamma(cfg, plan, GammaGrid.linear(3.0, 31))
        assert calls == [(31, 1), (31, 1)]

    def test_deterministic(self, scenario):
        cfg, plan = scenario
        grid = GammaGrid.linear(2.0, 5)
        a = grid_search_gamma(cfg, plan, grid)
        b = grid_search_gamma(cfg, plan, grid)
        assert a.best == b.best
        assert np.array_equal(a.surface, b.surface)
