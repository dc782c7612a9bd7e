"""The benchmark's workloads: one securebeam CLI command each, with an output oracle.

Every oracle reads the CSVs and the manifest a call wrote and raises
`OutputMismatch` when they disagree with the model. Tolerances admit
arithmetic changes of about 1e-12 relative, so no oracle requires byte
equality with an earlier run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

METHODS = ("ea", "min_tp", "min_rtp")
NULL_STEERING = ("min_tp", "min_rtp")

# the CLI's default angle-range grid, which the surface workload keeps
THETA_GRID_DEG = np.linspace(0.0, 180.0, 181)
RANGE_GRID_M = np.linspace(500.0, 2987.5, 200)
# the gamma grid of `gamma-surface` at its default --grid 3:31
GAMMA_GRID = np.linspace(0.0, 3.0, 31)

# Bob's grid point must lie this close to the path-loss-free peak. Over 300
# seeds the worst gap was 0.0012 dB for Min-TP / Min-RTP and exactly 0 for EA.
PEAK_TOL_DB = 0.05
# an exact null must sit this far below its field's maximum; a working null
# measured 225 dB or deeper, a broken one lands within 40 dB
NULL_DEPTH_DB = 100.0
# relative tolerance for the flat gamma surface against the Min-TP rate
FLAT_RTOL = 1e-9
# Bernstein deviation parameter for a BER point: a correct point fails with
# probability at most 2 exp(-K**2 / 2), about 3e-8, per point and seed
BER_K = 6.0


class OutputMismatch(Exception):
    """A call's outputs contradict the model the oracle checks them against."""


# runs `sr-vs-snr` with the workload's scenario and the given extra flags and
# returns the directory it wrote to
Reference = Callable[[list[str]], Path]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: tuple[str, ...]  # flags shared with the oracle's reference run
    extra: tuple[str, ...]  # flags for the workload's own command only
    check: Callable[[Path, Reference], None]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.command, *self.scenario, *self.extra, "--seed", str(seed), "--out", str(out)]


def read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    """Parse one output CSV, checking its header, row count and finiteness."""
    try:
        with open(path, encoding="utf-8") as fh:
            got = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise OutputMismatch(f"{path.name}: unreadable: {exc}") from exc
    if got != header:
        raise OutputMismatch(f"{path.name}: header {got} != {header}")
    if data.shape != (rows, len(header)):
        raise OutputMismatch(f"{path.name}: shape {data.shape} != {(rows, len(header))}")
    if not np.isfinite(data).all():
        raise OutputMismatch(f"{path.name}: non-finite values")
    return data


def _config(out: Path) -> dict:
    try:
        return json.loads((out / "manifest.json").read_text())["config"]
    except (OSError, ValueError, KeyError) as exc:
        raise OutputMismatch(f"manifest.json: unreadable: {exc}") from exc


def _expect(ok, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


def _snr_db(scenario: dict) -> float:
    """SNR that reproduces the scenario's transmit power through Bob's path loss."""
    gain = scenario["bob_range_m"] ** -2.0
    return 10.0 * math.log10(scenario["total_power_w"] * gain / scenario["noise_power_bob_w"])


def check_surface(out: Path, reference: Reference) -> None:
    """Row count and grid are right; Bob's grid point holds the path-loss-free
    peak of the message beam; Min-TP and Min-RTP hold their nulls.

    The peak is taken of the message gain for EA, whose weights are Bob's own
    steering vector (Cauchy-Schwarz puts the maximum exactly at Bob), and of
    the message SINR for Min-TP and Min-RTP, whose jamming null sits at Bob.
    """
    scenario = _config(out)["scenario"]
    nt, nr = THETA_GRID_DEG.size, RANGE_GRID_M.size
    header = ["theta_deg", "range_m", "cm_sinr_db", "an_power_db"]

    def nearest(theta_deg, range_m):
        return int(np.argmin(np.abs(THETA_GRID_DEG - theta_deg))), int(
            np.argmin(np.abs(RANGE_GRID_M - range_m))
        )

    bob = nearest(scenario["bob_theta_deg"], scenario["bob_range_m"])
    eve = nearest(scenario["eve_theta_deg"], scenario["eve_range_m"])
    loss_db = 20.0 * np.log10(RANGE_GRID_M)[np.newaxis, :]
    for method in METHODS:
        name = f"sinr_surface_{method}.csv"
        data = read_csv(out / name, header, nt * nr)
        theta, rng, cm, an = (data[:, k].reshape(nt, nr) for k in range(4))
        _expect(
            np.allclose(theta, THETA_GRID_DEG[:, np.newaxis], rtol=1e-12, atol=1e-9)
            and np.allclose(rng, RANGE_GRID_M[np.newaxis, :], rtol=1e-12, atol=1e-9),
            f"{name}: rows are not the theta-major {nt}x{nr} grid",
        )
        if method == "ea":
            noise = scenario["noise_power_bob_w"]
            peak_field = cm + 10.0 * np.log10(10.0 ** (an / 10.0) + noise) + loss_db
        else:
            peak_field = cm + loss_db
        gap = float(peak_field.max() - peak_field[bob])
        _expect(gap <= PEAK_TOL_DB, f"{name}: Bob is {gap:.3g} dB below the message peak")
        if method in NULL_STEERING:
            depth = float(cm.max() - cm[eve])
            _expect(depth >= NULL_DEPTH_DB, f"{name}: message null at Eve only {depth:.3g} dB deep")
            depth = float(an.max() - an[bob])
            _expect(depth >= NULL_DEPTH_DB, f"{name}: jamming null at Bob only {depth:.3g} dB deep")


def check_gamma(out: Path, reference: Reference) -> None:
    """The Min-RTP secrecy-rate surface is flat and equals the Min-TP rate,
    because P (P + gamma I)^-1 P = P / (1 + gamma) for a projector P."""
    scenario = _config(out)["scenario"]
    data = read_csv(out / "gamma_surface_min_rtp.csv", ["gamma_cm", "gamma_an", "sr"], GAMMA_GRID.size**2)
    _expect(
        np.allclose(data[:, 0], np.repeat(GAMMA_GRID, GAMMA_GRID.size), atol=1e-12)
        and np.allclose(data[:, 1], np.tile(GAMMA_GRID, GAMMA_GRID.size), atol=1e-12),
        "gamma_surface_min_rtp.csv: rows are not the gamma_cm-major grid",
    )
    ref = reference(["--method", "min_tp", "--snr-list", repr(_snr_db(scenario))])
    sr_tp = read_csv(ref / "sr_vs_snr_min_tp.csv", ["snr_db", "sr_bits"], 1)[0, 1]
    worst = float(np.max(np.abs(data[:, 2] - sr_tp)))
    _expect(
        worst <= FLAT_RTOL * abs(sr_tp),
        f"gamma_surface_min_rtp.csv: off the Min-TP rate {sr_tp!r} by up to {worst:.3g}",
    )


def _qfunc(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.array([math.erfc(v / math.sqrt(2.0)) for v in x])


def check_ber(out: Path, reference: Reference) -> None:
    """Each BER point lies within Bernstein's bound of Q(sqrt(SINR_Bob)).

    SINR_Bob comes from the secrecy rate of a reference `sr-vs-snr` run with
    the same scenario. The message null at Eve makes SR = log2(1 + SINR_Bob)
    for Min-TP and Min-RTP. EA's message and jamming weights are Bob's and
    Eve's steering vectors, so with rho^2 = |h_b^H h_e|^2 and Min-TP's
    SINR_Bob = beta S (1 - rho^2), EA's is beta S / ((1 - beta) S rho^2 + 1).
    """
    config = _config(out)
    beta = config["scenario"]["power_alloc"]
    n_bits = 2 * config["mc_symbols"]
    snr_db = np.array(config["sweep"], dtype=np.float64)
    ber = {
        m: read_csv(out / f"ber_vs_snr_{m}.csv", ["snr_db", "ber"], snr_db.size) for m in METHODS
    }
    for method, data in ber.items():
        _expect(np.allclose(data[:, 0], snr_db), f"ber_vs_snr_{method}.csv: wrong SNR column")

    ref = reference(
        ["--method", ",".join(NULL_STEERING), "--snr-list", ",".join(repr(float(s)) for s in snr_db)]
    )
    sinr = {}
    for method in NULL_STEERING:
        sr = read_csv(ref / f"sr_vs_snr_{method}.csv", ["snr_db", "sr_bits"], snr_db.size)[:, 1]
        sinr[method] = 2.0**sr - 1.0
    snr = 10.0 ** (snr_db / 10.0)
    rho2 = 1.0 - sinr["min_tp"] / (beta * snr)
    sinr["ea"] = beta * snr / ((1.0 - beta) * snr * rho2 + 1.0)

    for method in METHODS:
        p = _qfunc(np.sqrt(sinr[method]))
        var = n_bits * p * (1.0 - p)
        # solves t^2 = K^2 (var + t/3): Bernstein's tail exp(-t^2 / (2 (var + t/3)))
        tol = (BER_K**2 / 6.0 + np.sqrt(BER_K**4 / 36.0 + BER_K**2 * var)) / n_bits
        dev = np.abs(ber[method][:, 1] - p)
        bad = np.flatnonzero(dev > tol)
        _expect(
            bad.size == 0,
            f"ber_vs_snr_{method}.csv: BER at {snr_db[bad].tolist()} dB off Q(sqrt(SINR)) "
            f"{p[bad].tolist()} by more than {BER_K:g} (Bernstein) standard errors",
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="surface",
            command="sinr-surface",
            scenario=(),
            extra=(),
            check=check_surface,
        ),
        Workload(
            name="gamma",
            command="gamma-surface",
            scenario=("--n-antennas", "128"),
            extra=(),
            check=check_gamma,
        ),
        Workload(
            name="ber",
            command="ber-vs-snr",
            scenario=(),
            extra=("--mc-symbols", "300000"),
            check=check_ber,
        ),
    )
}
