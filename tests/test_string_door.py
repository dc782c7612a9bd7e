"""A seeded fuzzer over the string door: flat key = value texts into spec_from_values, and the
small specs it accepts into run_experiment.

Contract: spec_from_values returns a spec or raises ConfigError. An accepted spec either runs,
writing only finite cells, or raises ConfigError or InfeasibleGeometryError and leaves no
file. A spec too large to run only by its symbol or gamma-point count runs at the cap, and a
sinr-surface spec runs on a small probe grid about Bob and Eve. A defect this finds gets its own
named regression test beside the others; the fuzzer and its expected outcomes stay as they are.
"""
import dataclasses
import random
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from securebeam import ConfigError, ExperimentKind, InfeasibleGeometryError, run_experiment
from securebeam.cli import main as cli_main
from securebeam.experiments import READ_KEYS, spec_from_values

SEED = 1
CASES = 2000  # about 1.5 s on one core

# texts that sit at or past some parser's or check's edge
HOSTILE = [
    "nan", "-nan", "inf", "-inf", "1e309", "1e400", "-1e400", "1e308", "1e19", str(2**63),
    str(2**63 - 1), "9" * 30, "4000", "-4000", "5e-324", "1e-320", "0", "-0", "-1", "0.5",
    "1", "2", "8", "16", "16.0", "8.5", "1e3", "2000", "1_000", "0x10", "１６",
    "٣", "+8", "1,1", "4, 8", "5,5.000000000001", "", " ", "ten", "Min-TP,ea", "70",
    "180", "-60",
]
# the sizes an accepted spec is run at, at most, and the (theta, range) grid of a sinr-surface
# run: 11 x 9 points about the default Bob (70 deg, 1000 m) and Eve (100 deg, 750 m)
MAX_N, MAX_SUBCARRIERS, MAX_SYMBOLS, MAX_GAMMA_POINTS = 64, 4096, 2000, 16
SINR_GRID = {"theta_grid_deg": (60.0, 110.0, 11), "range_grid_m": (700.0, 1100.0, 9)}


def draw_case(rng: random.Random) -> dict[str, str]:
    """A kind, then 1-3 of the keys it reads, each set to a hostile text."""
    kind = rng.choice(list(ExperimentKind))
    keys = [k for k in READ_KEYS[kind] if k not in ("experiment", "out_dir")]
    return {"experiment": kind.value,
            **{key: rng.choice(HOSTILE) for key in rng.sample(keys, rng.randint(1, 3))}}


def small(spec) -> bool:
    cfg, kind = spec.scenario, spec.kind
    antennas = spec.sweep if kind is ExperimentKind.SR_VS_N else (cfg.num_antennas,)
    return (max(antennas) <= MAX_N
            and cfg.num_subcarriers <= MAX_SUBCARRIERS
            and (kind is not ExperimentKind.BER_VS_SNR or spec.mc_symbols <= MAX_SYMBOLS)
            and (kind is not ExperimentKind.GAMMA_SURFACE
                 or spec.gamma_grid_points <= MAX_GAMMA_POINTS))


def capped(spec):
    """The spec with the count only its kind reads, mc_symbols or gamma_grid_points, at most
    its cap, and a sinr-surface spec on SINR_GRID; their defaults are above the caps."""
    if spec.kind is ExperimentKind.BER_VS_SNR:
        return dataclasses.replace(spec, mc_symbols=min(spec.mc_symbols, MAX_SYMBOLS))
    if spec.kind is ExperimentKind.GAMMA_SURFACE:
        points = min(spec.gamma_grid_points, MAX_GAMMA_POINTS)
        return dataclasses.replace(spec, gamma_grid_points=points)
    if spec.kind is ExperimentKind.SINR_SURFACE:
        return dataclasses.replace(spec, **SINR_GRID)
    return spec


def outcome(values: dict[str, str], out: Path) -> str:
    """Build and, if small at the caps, run one case, checking the contract; the outcome's
    name."""
    try:
        spec = capped(spec_from_values({**values, "out_dir": str(out)}))
    except ConfigError:
        return "refused"
    if not small(spec):
        return "accepted"
    threads = threading.active_count()
    try:
        manifest = run_experiment(spec)
    except (ConfigError, InfeasibleGeometryError):
        assert not out.exists(), "a refused run left files"
        return "run refused"
    assert threading.active_count() == threads, "a run left a thread behind"
    for path in manifest["outputs"]:
        cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert cells.size and np.isfinite(cells).all(), f"{path}: a cell is not finite"
    return "ran"


def test_string_door_keeps_its_contract(tmp_path):
    rng = random.Random(SEED)
    outcomes, runs = Counter(), Counter()
    for i in range(CASES):
        values = draw_case(rng)
        try:
            result = outcome(values, tmp_path / str(i))
        except Exception as exc:  # the case, so that a failure can be replayed
            pytest.fail(f"case {i} {values}: {exc!r}")
        outcomes[result] += 1
        runs[values["experiment"]] += result == "ran"
    print(f"outcomes {dict(outcomes)}; runs by experiment {dict(runs)}")
    # most cases are refused, and enough run that the run contract is tested on every
    # experiment, the Monte Carlo, the gamma search and the SINR field included
    assert outcomes["refused"] > CASES // 2 and outcomes["ran"] > CASES // 20, outcomes
    assert runs["ber_vs_snr"] >= 20 and runs["gamma_surface"] >= 20, runs
    assert runs["sinr_surface"] >= 20, runs


@pytest.mark.parametrize("text", ["", "a\0b"], ids=["empty", "nul"])
def test_out_dir_that_names_no_directory_refused(tmp_path, monkeypatch, capsys, text):
    # draw_case never draws out_dir. An empty one wrote every file into the current
    # directory, and one with a NUL ended in a ValueError traceback: both doors refuse them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"out_dir = {text}\n")
    for argv in (["--config", "run.cfg"], ["--out", text]):
        assert cli_main(["sr-vs-snr", *argv]) == 2
        assert "config error: output_dir (out_dir) must name a directory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"^output_dir \(out_dir\) must name a directory"):
        spec_from_values({"out_dir": text})
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
