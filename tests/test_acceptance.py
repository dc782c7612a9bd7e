"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from securebeam import (
    Method,
    ScenarioConfig,
    build_subcarrier_plan,
    ber_monte_carlo,
    grid_search_gamma,
    min_rtp_beamformer,
    min_tp_beamformer,
    received_model,
    secrecy_rate,
    sinr_surface,
    steering_vector,
    synthesize,
)
from securebeam.experiments import (
    ExperimentKind,
    ExperimentSpec,
    _ber_seed,
    power_for_snr_db,
    run_experiment,
)
from tests.test_beamformers import kkt_min_norm, null_projector


def report(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def random_scenario(rng) -> tuple[ScenarioConfig, int]:
    n = int(rng.integers(2, 65))
    cfg = ScenarioConfig(
        num_antennas=n,
        bob_theta_deg=float(rng.uniform(5, 175)), bob_range_m=float(rng.uniform(100, 2000)),
        eve_theta_deg=float(rng.uniform(5, 175)), eve_range_m=float(rng.uniform(100, 2000)),
        rng_seed=int(rng.integers(0, 2**31)),
    )
    return cfg, n


def qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_criterion_1_constraint_residuals():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        cfg, n = random_scenario(rng)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        for h_t, h_n in ((h_b, h_e), (h_e, h_b)):
            for v in (
                min_tp_beamformer(h_t, h_n),
                min_rtp_beamformer(h_t, h_n, 2.1),
            ):
                worst = max(
                    worst,
                    abs(h_n.conj() @ v),
                    abs(h_t.conj() @ v - 1.0),
                )
    elapsed = time.monotonic() - start
    report(
        1,
        f"null/alignment residuals <= 1e-8 over 1000 scenarios "
        f"(worst {worst:.2e}, {elapsed:.1f}s < 10s)",
        worst <= 1e-8 and elapsed < 10.0,
    )


def test_criterion_2_min_tp_oracle_equivalence():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst_kkt = 0.0
    worst_simplified = 0.0
    for _ in range(100):
        cfg, n = random_scenario(rng)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        v = min_tp_beamformer(h_b, h_e)
        v_kkt = kkt_min_norm(h_b, h_e)
        worst_kkt = max(worst_kkt, np.linalg.norm(v - v_kkt) / np.linalg.norm(v_kkt))
        p_hb = null_projector(h_e) @ h_b
        v_simple = p_hb / np.linalg.norm(p_hb) ** 2
        worst_simplified = max(
            worst_simplified, np.linalg.norm(v - v_simple) / np.linalg.norm(v_simple)
        )
    elapsed = time.monotonic() - start
    report(
        2,
        f"Min-TP matches KKT oracle to 1e-8 (worst {worst_kkt:.2e}) and the "
        f"projected-target form to 1e-10 (worst {worst_simplified:.2e}, {elapsed:.1f}s < 5s)",
        worst_kkt <= 1e-8 and worst_simplified <= 1e-10 and elapsed < 5.0,
    )


def test_criterion_3_regularization_limit():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        cfg, n = random_scenario(rng)
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        h_b = steering_vector(plan, cfg, cfg.bob)
        h_e = steering_vector(plan, cfg, cfg.eve)
        v0 = min_tp_beamformer(h_b, h_e)
        v = min_rtp_beamformer(h_b, h_e, 1e-12)
        worst = max(worst, np.linalg.norm(v - v0) / np.linalg.norm(v0))
    report(
        3,
        f"Min-RTP at gamma=1e-12 matches Min-TP to 1e-6 relative (worst {worst:.2e})",
        worst <= 1e-6,
    )


def test_criterion_4_qpsk_awgn_oracle():
    start = time.monotonic()
    cfg = ScenarioConfig(num_antennas=8, power_alloc=1.0)  # jamming disabled
    plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
    num_symbols = 1_000_000
    ok = True
    details = []
    for ebn0_db in (0.0, 4.0, 8.0):
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        beams_ref = synthesize(cfg, plan, Method.MIN_TP)
        cm_gain, _ = received_model(cfg, plan, beams_ref, cfg.bob)
        es_n0 = abs(cm_gain) ** 2 / cfg.noise_power_bob_w
        cfg_t = replace(cfg, total_power_w=cfg.total_power_w * 2.0 * ebn0 / es_n0)
        beams = synthesize(cfg_t, plan, Method.MIN_TP)
        ber = ber_monte_carlo(cfg_t, plan, beams, cfg_t.bob, num_symbols, 1234)
        expected = qfunc(math.sqrt(2.0 * ebn0))
        se = math.sqrt(expected * (1.0 - expected) / (2.0 * num_symbols))
        ok = ok and abs(ber - expected) <= 3.0 * se
        details.append(f"{ebn0_db:g}dB: {ber:.5g} vs {expected:.5g}")
    elapsed = time.monotonic() - start
    report(
        4,
        f"AN-free BER matches Q(sqrt(2 Eb/N0)) within 3 SE [{'; '.join(details)}] "
        f"({elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_5_gamma_plateau():
    start = time.monotonic()
    cfg = ScenarioConfig(num_antennas=8, total_power_w=0.1)  # 20 dB SNR via Bob's path
    plan = build_subcarrier_plan(cfg.rng_seed, 8, 1024)
    gammas = np.linspace(0.0, 3.0, 31)
    surface = grid_search_gamma(cfg, plan, gammas, gammas)
    mask = (gammas[:, None] >= 0.1) & (gammas[None, :] >= 1.4)
    region = surface[mask]
    rel_var = float((region.max() - region.min()) / region.max())
    elapsed = time.monotonic() - start
    report(
        5,
        f"secrecy-rate surface flat (rel. variation {rel_var:.2e} < 5%) on "
        f"gamma_cm >= 0.1, gamma_an >= 1.4 ({elapsed:.1f}s < 30s)",
        rel_var < 0.05 and elapsed < 30.0,
    )


def test_criterion_6_dual_peaks():
    start = time.monotonic()
    cfg = ScenarioConfig(num_antennas=32)
    plan = build_subcarrier_plan(cfg.rng_seed, 32, 1024)
    theta = np.linspace(0.0, 180.0, 181)
    ranges = np.linspace(500.0, 2987.5, 200)
    i_bob = (int(np.argmin(np.abs(theta - 70.0))), int(np.argmin(np.abs(ranges - 1000.0))))
    i_eve = (int(np.argmin(np.abs(theta - 100.0))), int(np.argmin(np.abs(ranges - 750.0))))
    ok = True
    for method in Method:
        beams = synthesize(cfg, plan, method)
        samples = sinr_surface(cfg, plan, beams, theta, ranges)
        cm = samples.cm_sinr_db.reshape(181, 200)
        an = samples.an_power_db.reshape(181, 200)
        ok = ok and np.unravel_index(np.argmax(cm), cm.shape) == i_bob
        ok = ok and np.unravel_index(np.argmax(an), an.shape) == i_eve
    elapsed = time.monotonic() - start
    report(
        6,
        f"all methods peak message SINR at Bob's grid point and jamming power at "
        f"Eve's on the 181x200 grid ({elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_7_sr_ordering_vs_snr():
    cfg0 = ScenarioConfig(num_antennas=8)
    plan = build_subcarrier_plan(cfg0.rng_seed, 8, 1024)
    snrs = [s for s in range(0, 31, 2) if s >= 10]
    ordering_ok = True
    gaps = []
    for snr in snrs:
        cfg = replace(cfg0, total_power_w=power_for_snr_db(cfg0, snr))
        sr = {m: secrecy_rate(cfg, plan, synthesize(cfg, plan, m)) for m in Method}
        ordering_ok = ordering_ok and (
            sr[Method.MIN_RTP] >= sr[Method.MIN_TP] - 1e-12
            and sr[Method.MIN_TP] >= sr[Method.EA]
        )
        gaps.append(sr[Method.MIN_TP] - sr[Method.EA])
    gap_increasing = all(b > a for a, b in zip(gaps, gaps[1:]))
    report(
        7,
        f"SR(MinRTP) >= SR(MinTP) >= SR(EA) for SNR >= 10 dB with the EA gap "
        f"increasing ({gaps[0]:.3f} -> {gaps[-1]:.3f} bits)",
        ordering_ok and gap_increasing,
    )


def test_criterion_8_ber_ordering_vs_snr():
    start = time.monotonic()
    cfg0 = ScenarioConfig(num_antennas=8)
    plan = build_subcarrier_plan(cfg0.rng_seed, 8, 1024)
    num_symbols = 1_000_000
    n_bits = 2 * num_symbols
    ok = True
    for i, snr in enumerate(range(6, 31, 2)):
        cfg = replace(cfg0, total_power_w=power_for_snr_db(cfg0, snr))
        seed = _ber_seed(cfg0.rng_seed, i)
        ber = {
            m: ber_monte_carlo(cfg, plan, synthesize(cfg, plan, m), cfg.bob, num_symbols, seed)
            for m in Method
        }

        def slack(p):
            return 3.0 * math.sqrt(p * (1.0 - p) / n_bits)

        ok = ok and ber[Method.MIN_RTP] <= ber[Method.MIN_TP] + slack(ber[Method.MIN_TP])
        ok = ok and ber[Method.MIN_TP] <= ber[Method.EA] + slack(ber[Method.EA])
    elapsed = time.monotonic() - start
    report(
        8,
        f"BER(MinRTP) <= BER(MinTP) <= BER(EA) for SNR >= 6 dB within 3 SE "
        f"({elapsed:.1f}s < 300s)",
        ok and elapsed < 300.0,
    )


def test_criterion_9_sr_gap_shrinks_at_large_arrays():
    cfg0 = ScenarioConfig(num_antennas=8)
    snr_db = 15.0

    def gap(n: int) -> float:
        cfg = replace(cfg0, num_antennas=n, total_power_w=power_for_snr_db(cfg0, snr_db))
        plan = build_subcarrier_plan(cfg0.rng_seed, n, cfg.num_subcarriers)
        sr_tp = secrecy_rate(cfg, plan, synthesize(cfg, plan, Method.MIN_TP))
        sr_rtp = secrecy_rate(cfg, plan, synthesize(cfg, plan, Method.MIN_RTP))
        return abs(sr_rtp - sr_tp)

    small_n_max = max(gap(n) for n in range(2, 21))
    large = gap(64)
    report(
        9,
        f"|SR(MinRTP) - SR(MinTP)| at N=64 ({large:.3e}) strictly below its "
        f"maximum over N in [2,20] ({small_n_max:.3e})",
        large < small_n_max,
    )


def test_criterion_10_rerun_determinism(tmp_path):
    def run_all(root):
        blobs = {}
        for kind, extra in (
            (ExperimentKind.SR_VS_SNR, {"sweep": (10.0, 20.0)}),
            (ExperimentKind.BER_VS_SNR, {"sweep": (8.0,), "mc_symbols": 5000}),
            (
                ExperimentKind.SINR_SURFACE,
                {"theta_grid_deg": (60.0, 110.0, 11), "range_grid_m": (700.0, 1100.0, 9)},
            ),
            (ExperimentKind.GAMMA_SURFACE, {"gamma_grid_points": 4}),
            (ExperimentKind.SR_VS_N, {"sweep": (4.0, 8.0), "snr_db_list": (15.0,)}),
        ):
            out = root / kind.value
            manifest = run_experiment(
                ExperimentSpec(kind=kind, output_dir=str(out), **extra)
            )
            for path in manifest["outputs"]:
                blobs[kind.value + "/" + path.rsplit("/", 1)[-1]] = Path(path).read_bytes()
        return blobs

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    report(10, "re-running every experiment kind reproduces byte-identical CSVs",
           first == second)
