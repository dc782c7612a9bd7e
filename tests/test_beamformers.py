from dataclasses import replace

import numpy as np
import pytest

from securebeam import (
    ConfigError,
    InfeasibleGeometryError,
    Method,
    ScenarioConfig,
    build_subcarrier_plan,
    ea_beamformer,
    min_rtp_beamformer,
    min_tp_beamformer,
    steering_vector,
    synthesize,
)
from securebeam.beamformers import power_scaled


def random_unit(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def null_projector(h):
    """Dense reference I_N - h h^H for a unit-norm h: Hermitian, idempotent, annihilates h,
    rank N-1. The beamformers apply it in rank-1 form, h_t - h (h^H h_t), and never build it."""
    return np.eye(h.size, dtype=np.complex128) - np.outer(h, h.conj())


def kkt_min_norm(h_target, h_null):
    """Independent oracle: assemble and solve the full KKT system for
    min ||v||^2 s.t. h_null^H v = 0, h_target^H v = 1."""
    n = len(h_target)
    c = np.column_stack([h_null, h_target])
    kkt = np.zeros((n + 2, n + 2), dtype=np.complex128)
    kkt[:n, :n] = 2.0 * np.eye(n)
    kkt[:n, n:] = c
    kkt[n:, :n] = c.conj().T
    rhs = np.zeros(n + 2, dtype=np.complex128)
    rhs[n + 1] = 1.0
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n]


class TestNullProjector:
    def test_single_antenna_projects_to_zero(self):
        h = np.array([1.0 + 0j])
        assert np.allclose(null_projector(h), np.zeros((1, 1)))

    def test_two_antenna_hand_expansion(self):
        h = np.array([1.0, 1j]) / np.sqrt(2.0)
        expected = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
        np.testing.assert_allclose(null_projector(h), expected, atol=1e-15)

    def test_projector_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = random_unit(6, rng)
            p = null_projector(h)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            assert np.linalg.norm(p @ h) <= 1e-12
            assert np.linalg.matrix_rank(p) == 5


class TestMinTp:
    def test_orthogonal_channels_return_target(self):
        h_t = np.array([1.0, 0, 0, 0], dtype=complex)
        h_n = np.array([0, 1.0, 0, 0], dtype=complex)
        v = min_tp_beamformer(h_t, h_n)
        np.testing.assert_allclose(v, h_t, atol=1e-12)

    def test_parallel_channels_infeasible(self):
        rng = np.random.default_rng(1)
        h = random_unit(4, rng)
        with pytest.raises(InfeasibleGeometryError):
            min_tp_beamformer(h, h)

    def test_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h_t, h_n = random_unit(5, rng), random_unit(5, rng)
            v = min_tp_beamformer(h_t, h_n)
            assert abs(h_n.conj() @ v) <= 1e-10
            assert abs(h_t.conj() @ v - 1.0) <= 1e-10

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(3)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        v = min_tp_beamformer(h_t, h_n)
        v_ref = kkt_min_norm(h_t, h_n)
        np.testing.assert_allclose(v, v_ref, rtol=1e-8, atol=1e-12)

    def test_matches_projected_target_simplification(self):
        # second oracle: for an orthogonal projector P, the closed form collapses
        # to P h_t / ||P h_t||^2
        rng = np.random.default_rng(4)
        for _ in range(20):
            h_t, h_n = random_unit(6, rng), random_unit(6, rng)
            v = min_tp_beamformer(h_t, h_n)
            p_ht = null_projector(h_n) @ h_t
            v_ref = p_ht / np.linalg.norm(p_ht) ** 2
            np.testing.assert_allclose(v, v_ref, rtol=1e-10)

    def test_minimum_norm_among_feasible_perturbations(self):
        rng = np.random.default_rng(5)
        h_t, h_n = random_unit(6, rng), random_unit(6, rng)
        v = min_tp_beamformer(h_t, h_n)
        # orthonormal basis of the constrained pair, to build feasible directions
        q, _ = np.linalg.qr(np.column_stack([h_n, h_t]))
        for _ in range(100):
            delta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            delta -= q @ (q.conj().T @ delta)
            assert abs(h_n.conj() @ delta) < 1e-12
            assert abs(h_t.conj() @ delta) < 1e-12
            assert np.linalg.norm(v + delta) >= np.linalg.norm(v) - 1e-12


class TestMinRtp:
    def test_vanishing_gamma_matches_min_tp(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h_t, h_n = random_unit(5, rng), random_unit(5, rng)
            v0 = min_tp_beamformer(h_t, h_n)
            v = min_rtp_beamformer(h_t, h_n, 1e-12)
            np.testing.assert_allclose(v, v0, rtol=1e-6)

    def test_gamma_zero_falls_back(self):
        rng = np.random.default_rng(7)
        h_t, h_n = random_unit(5, rng), random_unit(5, rng)
        np.testing.assert_array_equal(
            min_rtp_beamformer(h_t, h_n, 0.0), min_tp_beamformer(h_t, h_n)
        )

    def test_orthogonal_channels_return_target(self):
        h_t = np.array([0, 0, 1.0, 0], dtype=complex)
        h_n = np.array([1.0, 0, 0, 0], dtype=complex)
        for gamma in (0.3, 2.1, 10.0):
            v = min_rtp_beamformer(h_t, h_n, gamma)
            np.testing.assert_allclose(v, h_t, atol=1e-12)

    def test_constraints_hold_for_positive_gamma(self):
        rng = np.random.default_rng(9)
        for gamma in (0.1, 1.8, 5.0):
            h_t, h_n = random_unit(6, rng), random_unit(6, rng)
            v = min_rtp_beamformer(h_t, h_n, gamma)
            assert abs(h_n.conj() @ v) <= 1e-10
            assert abs(h_t.conj() @ v - 1.0) <= 1e-10

    def test_matches_dense_ridge_solve_at_unit_gain(self):
        # oracle: the literal N x N ridge solve P (P^H P + gamma I)^-1 P^H h_t,
        # rescaled to unit gain on the target
        rng = np.random.default_rng(14)
        cases = [(n, gamma) for n in (2, 5, 16, 64) for gamma in np.logspace(-2, 2, 9)]
        for n, gamma in cases + [(8, 2.1)]:
            h_t, h_n = random_unit(n, rng), random_unit(n, rng)
            p = np.eye(n, dtype=complex) - np.outer(h_n, h_n.conj())
            reg = p.conj().T @ p + gamma * np.eye(n)
            ref = p @ np.linalg.solve(reg, p.conj().T @ h_t)
            ref /= h_t.conj() @ ref
            got = min_rtp_beamformer(h_t, h_n, gamma)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (n, gamma)

    def test_identical_to_min_tp_for_positive_gamma(self):
        rng = np.random.default_rng(15)
        for gamma in (1e-12, 0.01, 2.1, 100.0):
            h_t, h_n = random_unit(7, rng), random_unit(7, rng)
            np.testing.assert_array_equal(
                min_rtp_beamformer(h_t, h_n, gamma), min_tp_beamformer(h_t, h_n)
            )

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        rng = np.random.default_rng(16)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        with pytest.raises(ConfigError):
            min_rtp_beamformer(h_t, h_n, gamma)

    def test_negative_gamma_rejected(self):
        rng = np.random.default_rng(11)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        with pytest.raises(ConfigError):
            min_rtp_beamformer(h_t, h_n, -0.1)

    def test_gamma_column_gives_one_row_per_value(self):
        # the gamma search builds each axis with one call on a (G, 1) column
        rng = np.random.default_rng(17)
        h_t, h_n = random_unit(9, rng), random_unit(9, rng)
        gammas = np.array([0.0, 1e-12, 0.4, 2.1, 1e6])
        got = min_rtp_beamformer(h_t, h_n, gammas[:, None])
        assert got.shape == (5, 9)
        for row, gamma in zip(got, gammas):
            assert np.array_equal(row, min_rtp_beamformer(h_t, h_n, float(gamma)))

    def test_shape_follows_gamma_arithmetic(self):
        rng = np.random.default_rng(18)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        for gamma in (2.1, np.float64(2.1), np.array(2.1), np.ones((2, 3, 1)), np.ones(4)):
            want = np.broadcast_shapes(np.shape(gamma), (4,))
            assert min_rtp_beamformer(h_t, h_n, gamma).shape == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_entry_anywhere_rejected_and_named(self, bad):
        rng = np.random.default_rng(19)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        gammas = np.array([[0.0], [1.0], [bad], [-3.0]])
        with pytest.raises(ConfigError, match=f"finite and >= 0, got {bad}$"):
            min_rtp_beamformer(h_t, h_n, gammas)


class TestPowerScaled:
    # each row of a stack is normalized bit for bit as the 1-D call on it, and that call
    # as np.linalg.norm on the row, so the gamma search's stacked beams keep every bit

    @staticmethod
    def by_linalg_norm(cfg, row, share):
        return np.sqrt(share * cfg.total_power_w) * row / np.linalg.norm(row)

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 128, 512, 1024])
    def test_stack_rows_equal_the_1d_call(self, n):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((3, 7, n)) + 1j * rng.standard_normal((3, 7, n))
        got = power_scaled(cfg, stack, 0.3)
        assert got.shape == stack.shape
        for index in np.ndindex(3, 7):
            one = power_scaled(cfg, stack[index], 0.3)
            assert one.shape == (n,)
            assert np.array_equal(one, self.by_linalg_norm(cfg, stack[index], 0.3)), index
            assert np.array_equal(got[index], one), index

    def test_stride_zero_stack(self):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(21)
        d = random_unit(128, rng) * 3.0
        got = power_scaled(cfg, np.broadcast_to(d, (31, 128)), 0.5)
        assert got.shape == (31, 128)
        assert all(np.array_equal(row, self.by_linalg_norm(cfg, d, 0.5)) for row in got)


class TestEa:
    def test_aligned_input_is_fixed_point(self):
        h = np.full(4, 0.5 + 0j)
        np.testing.assert_allclose(ea_beamformer(h), h, atol=1e-15)

    def test_equal_amplitudes(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = random_unit(8, rng)
            v = ea_beamformer(h)
            np.testing.assert_allclose(np.abs(v), np.full(8, 1.0 / np.sqrt(8)), atol=1e-14)

    def test_unit_gain_on_steering_vectors(self):
        cfg = ScenarioConfig(num_antennas=8)
        plan = build_subcarrier_plan(1, 8, 1024)
        h = steering_vector(plan, cfg, cfg.bob)
        gain = h.conj() @ ea_beamformer(h)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_maximal_among_equal_amplitude_weights(self):
        rng = np.random.default_rng(13)
        h = random_unit(8, rng)
        best = abs(h.conj() @ ea_beamformer(h))
        for _ in range(1000):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 8)) / np.sqrt(8)
            assert abs(h.conj() @ w) <= best + 1e-12


class TestSynthesize:
    @pytest.fixture
    def setup(self):
        cfg = ScenarioConfig(num_antennas=8)
        plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
        return cfg, plan

    def test_power_split(self, setup):
        cfg, plan = setup
        for method in Method:
            beams = synthesize(cfg, plan, method)
            p = cfg.total_power_w
            assert np.linalg.norm(beams.w_cm) ** 2 == pytest.approx(0.5 * p, abs=1e-9 * p)
            assert np.linalg.norm(beams.w_an) ** 2 == pytest.approx(0.5 * p, abs=1e-9 * p)

    def test_min_tp_nulls(self, setup):
        cfg, plan = setup
        beams = synthesize(cfg, plan, Method.MIN_TP)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        assert abs(h_e.conj() @ beams.w_cm) <= 1e-8 * np.linalg.norm(beams.w_cm)
        assert abs(h_b.conj() @ beams.w_an) <= 1e-8 * np.linalg.norm(beams.w_an)

    def test_min_rtp_alignment_phase(self, setup):
        cfg, plan = setup
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        for w_cm in (
            synthesize(cfg, plan, Method.MIN_RTP).w_cm,
            power_scaled(cfg, min_rtp_beamformer(h_b, h_e, 2.1), cfg.power_alloc),
        ):
            gain = h_b.conj() @ w_cm
            assert abs(np.angle(gain)) <= 1e-8
            assert gain.real > 0.0

    def test_all_power_to_message(self, setup):
        cfg, plan = setup
        beams = synthesize(replace(cfg, power_alloc=1.0), plan, Method.MIN_TP)
        assert np.linalg.norm(beams.w_an) == 0.0

    def test_power_scale_covariance(self, setup):
        cfg, plan = setup
        base = synthesize(cfg, plan, Method.MIN_TP)
        doubled = synthesize(replace(cfg, total_power_w=2.0 * cfg.total_power_w), plan, Method.MIN_TP)
        np.testing.assert_allclose(doubled.w_cm, np.sqrt(2.0) * base.w_cm, rtol=1e-15)
        np.testing.assert_allclose(doubled.w_an, np.sqrt(2.0) * base.w_an, rtol=1e-15)

    def test_colocated_receivers_infeasible(self, setup):
        cfg, plan = setup
        bad = replace(cfg, eve_theta_deg=cfg.bob_theta_deg, eve_range_m=cfg.bob_range_m)
        with pytest.raises(InfeasibleGeometryError):
            synthesize(bad, plan, Method.MIN_TP)

    def test_unknown_method_rejected(self, setup):
        cfg, plan = setup
        with pytest.raises(ConfigError, match="^'bogus' is not a valid Method$"):
            synthesize(cfg, plan, "bogus")

    @pytest.mark.parametrize(
        "name, method", [("ea", Method.EA), ("Min-TP", Method.MIN_TP), ("min_rtp", Method.MIN_RTP)]
    )
    def test_method_names_give_the_members_beams(self, setup, name, method):
        # synthesize takes every spelling the CLI and ExperimentSpec take
        cfg, plan = setup
        got, want = synthesize(cfg, plan, name), synthesize(cfg, plan, method)
        assert got.w_cm.tobytes() == want.w_cm.tobytes()
        assert got.w_an.tobytes() == want.w_an.tobytes()


class TestMethod:
    @pytest.mark.parametrize(
        "text, method",
        [("min_tp", Method.MIN_TP), ("min-tp", Method.MIN_TP), ("mintp", Method.MIN_TP),
         ("MIN-TP", Method.MIN_TP), (" MinTP ", Method.MIN_TP), ("Min_RTP", Method.MIN_RTP),
         ("EA", Method.EA), (np.str_("min_rtp"), Method.MIN_RTP)],
    )
    def test_every_spelling_names_its_member(self, text, method):
        # the CLI and the library take the same spellings, because Method alone reads them
        assert Method(text) is method

    @pytest.mark.parametrize("value", ["foo", "min tp", "", 3, 5, None])
    def test_other_values_rejected(self, value):
        # a ConfigError, as the CLI reports it
        with pytest.raises(ConfigError, match="is not a valid Method"):
            Method(value)

    def test_str_is_the_value(self):
        assert [str(m) for m in Method] == ["ea", "min_tp", "min_rtp"]
        # NumPy turns members into their text, which used to be 'Method' for every member
        assert np.array([Method.EA, Method.MIN_TP]).tolist() == ["ea", "min_tp"]
