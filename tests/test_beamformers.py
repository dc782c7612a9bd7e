import numpy as np
import pytest

from securebeam import (
    ConfigError,
    InfeasibleGeometryError,
    Method,
    RegularizationParams,
    ScenarioConfig,
    SteeringVector,
    build_subcarrier_plan,
    ea_beamformer,
    min_rtp_beamformer,
    min_tp_beamformer,
    null_projector,
    steering_vector,
    synthesize,
)
from securebeam.beamformers import regularized_direction


def random_unit(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SteeringVector(values=v / np.linalg.norm(v))


def kkt_min_norm(h_target, h_null):
    """Independent oracle: assemble and solve the full KKT system for
    min ||v||^2 s.t. h_null^H v = 0, h_target^H v = 1."""
    n = len(h_target.values)
    c = np.column_stack([h_null.values, h_target.values])
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
        h = SteeringVector(values=np.array([1.0 + 0j]))
        assert np.allclose(null_projector(h).matrix, np.zeros((1, 1)))

    def test_two_antenna_hand_expansion(self):
        h = SteeringVector(values=np.array([1.0, 1j]) / np.sqrt(2.0))
        expected = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
        np.testing.assert_allclose(null_projector(h).matrix, expected, atol=1e-15)

    def test_projector_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = random_unit(6, rng)
            p = null_projector(h).matrix
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            assert np.linalg.norm(p @ h.values) <= 1e-12
            assert np.linalg.matrix_rank(p) == 5


class TestMinTp:
    def test_orthogonal_channels_return_target(self):
        h_t = SteeringVector(values=np.array([1.0, 0, 0, 0], dtype=complex))
        h_n = SteeringVector(values=np.array([0, 1.0, 0, 0], dtype=complex))
        v = min_tp_beamformer(h_t, h_n)
        np.testing.assert_allclose(v, h_t.values, atol=1e-12)

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
            assert abs(h_n.values.conj() @ v) <= 1e-10
            assert abs(h_t.values.conj() @ v - 1.0) <= 1e-10

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
            p_ht = null_projector(h_n).matrix @ h_t.values
            v_ref = p_ht / np.linalg.norm(p_ht) ** 2
            np.testing.assert_allclose(v, v_ref, rtol=1e-10)

    def test_minimum_norm_among_feasible_perturbations(self):
        rng = np.random.default_rng(5)
        h_t, h_n = random_unit(6, rng), random_unit(6, rng)
        v = min_tp_beamformer(h_t, h_n)
        # orthonormal basis of the constrained pair, to build feasible directions
        q, _ = np.linalg.qr(np.column_stack([h_n.values, h_t.values]))
        for _ in range(100):
            delta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            delta -= q @ (q.conj().T @ delta)
            assert abs(h_n.values.conj() @ delta) < 1e-12
            assert abs(h_t.values.conj() @ delta) < 1e-12
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
        h_t = SteeringVector(values=np.array([0, 0, 1.0, 0], dtype=complex))
        h_n = SteeringVector(values=np.array([1.0, 0, 0, 0], dtype=complex))
        for gamma in (0.3, 2.1, 10.0):
            v = min_rtp_beamformer(h_t, h_n, gamma)
            np.testing.assert_allclose(v, h_t.values, atol=1e-12)

    def test_matches_literal_closed_form(self):
        # oracle: literal transcription of the regularized closed form using a
        # dense inverse instead of a solve
        rng = np.random.default_rng(8)
        h_t, h_n = random_unit(8, rng), random_unit(8, rng)
        gamma = 2.1
        a = np.eye(8, dtype=complex) - np.outer(h_n.values, h_n.values.conj())
        m = np.linalg.inv(a.conj().T @ a + gamma * np.eye(8))
        num = a @ m @ a.conj().T @ h_t.values
        v_ref = num / (h_t.values.conj() @ num)
        v = min_rtp_beamformer(h_t, h_n, gamma)
        np.testing.assert_allclose(v, v_ref, rtol=1e-9)

    def test_constraints_hold_for_positive_gamma(self):
        rng = np.random.default_rng(9)
        for gamma in (0.1, 1.8, 5.0):
            h_t, h_n = random_unit(6, rng), random_unit(6, rng)
            v = min_rtp_beamformer(h_t, h_n, gamma)
            assert abs(h_n.values.conj() @ v) <= 1e-10
            assert abs(h_t.values.conj() @ v - 1.0) <= 1e-10

    def test_update_norm_monotone_in_gamma(self):
        rng = np.random.default_rng(10)
        h_t, h_n = random_unit(6, rng), random_unit(6, rng)
        norms = [
            np.linalg.norm(regularized_direction(h_t, h_n, g))
            for g in np.logspace(-3, 2, 20)
        ]
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_regularized_direction_matches_dense_ridge_solve(self):
        # oracle: the literal N x N ridge solve P (P^H P + gamma I)^-1 P^H h_t
        rng = np.random.default_rng(14)
        for n in (2, 5, 16, 64):
            for gamma in np.logspace(-2, 2, 9):
                h_t, h_n = random_unit(n, rng), random_unit(n, rng)
                p = np.eye(n, dtype=complex) - np.outer(h_n.values, h_n.values.conj())
                reg = p.conj().T @ p + gamma * np.eye(n)
                ref = p @ np.linalg.solve(reg, p.conj().T @ h_t.values)
                got = regularized_direction(h_t, h_n, gamma)
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

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
        with pytest.raises(ConfigError):
            RegularizationParams(gamma_cm=gamma, gamma_an=1.0)
        with pytest.raises(ConfigError):
            RegularizationParams(gamma_cm=1.0, gamma_an=gamma)

    def test_negative_gamma_rejected(self):
        rng = np.random.default_rng(11)
        h_t, h_n = random_unit(4, rng), random_unit(4, rng)
        with pytest.raises(ConfigError):
            min_rtp_beamformer(h_t, h_n, -0.1)


class TestEa:
    def test_aligned_input_is_fixed_point(self):
        h = SteeringVector(values=np.full(4, 0.5 + 0j))
        np.testing.assert_allclose(ea_beamformer(h), h.values, atol=1e-15)

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
        gain = h.values.conj() @ ea_beamformer(h)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_maximal_among_equal_amplitude_weights(self):
        rng = np.random.default_rng(13)
        h = random_unit(8, rng)
        best = abs(h.values.conj() @ ea_beamformer(h))
        for _ in range(1000):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 8)) / np.sqrt(8)
            assert abs(h.values.conj() @ w) <= best + 1e-12


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
        h_b = steering_vector(plan, cfg, cfg.bob).values
        h_e = steering_vector(plan, cfg, cfg.eve).values
        assert abs(h_e.conj() @ beams.w_cm) <= 1e-8 * np.linalg.norm(beams.w_cm)
        assert abs(h_b.conj() @ beams.w_an) <= 1e-8 * np.linalg.norm(beams.w_an)

    def test_min_rtp_alignment_phase(self, setup):
        cfg, plan = setup
        beams = synthesize(cfg, plan, Method.MIN_RTP, RegularizationParams(2.1, 1.8))
        h_b = steering_vector(plan, cfg, cfg.bob).values
        gain = h_b.conj() @ beams.w_cm
        assert abs(np.angle(gain)) <= 1e-8
        assert gain.real > 0.0

    def test_all_power_to_message(self, setup):
        cfg, plan = setup
        beams = synthesize(cfg.replace(power_alloc=1.0), plan, Method.MIN_TP)
        assert np.linalg.norm(beams.w_an) == 0.0

    def test_power_scale_covariance(self, setup):
        cfg, plan = setup
        base = synthesize(cfg, plan, Method.MIN_TP)
        doubled = synthesize(cfg.replace(total_power_w=2.0 * cfg.total_power_w), plan, Method.MIN_TP)
        np.testing.assert_allclose(doubled.w_cm, np.sqrt(2.0) * base.w_cm, rtol=1e-15)
        np.testing.assert_allclose(doubled.w_an, np.sqrt(2.0) * base.w_an, rtol=1e-15)

    def test_default_gammas_recorded(self, setup):
        cfg, plan = setup
        beams = synthesize(cfg, plan, Method.MIN_RTP)
        assert beams.gammas == RegularizationParams(2.1, 1.8)

    def test_colocated_receivers_infeasible(self, setup):
        cfg, plan = setup
        bad = cfg.replace(eve=cfg.bob)
        with pytest.raises(InfeasibleGeometryError):
            synthesize(bad, plan, Method.MIN_TP)
