"""Tests of the benchmark's own logic: span self time, instrumentation, the
output oracles and the agreement of BENCHMARK.json with what run.py reports.

    python3 -m pytest benchmarks
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from securebeam import beamformers, cli, experiments  # noqa: E402
from spans import Span  # noqa: E402
from workloads import OutputMismatch  # noqa: E402

SEED = 11  # a seed no measurement uses


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a.leaf", 2.0, 3.0, 1),
        Span(3, "b", 3.0, 6.0, 0),  # overlaps a: the root loses 1..6 once
        Span(4, "a", 7.0, 8.0, 0),
    ]
    got = spans.summarize(tree)
    assert got["root"] == {"calls": 1, "self_s": pytest.approx(10.0 - 5.0 - 1.0)}
    assert got["a"]["calls"] == 2
    assert got["a"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["a.leaf"]["self_s"] == pytest.approx(1.0)
    assert got["b"]["self_s"] == pytest.approx(3.0)


def test_child_outside_its_parent_is_clipped():
    got = spans.summarize([Span(0, "p", 0.0, 2.0, None), Span(1, "c", 1.5, 3.0, 0)])
    assert got["p"]["self_s"] == pytest.approx(1.5)


def test_instrument_nests_spans_counts_work_and_restores(tmp_path):
    original = beamformers.synthesize
    recorder = spans.Recorder()
    argv = ["sinr-surface", "--method", "ea", "--n-antennas", "4", "--out", str(tmp_path)]
    with spans.instrument(recorder):
        assert cli.main(argv) == 0
    assert beamformers.synthesize is original
    assert experiments.synthesize is original
    by_id = {s.id: s for s in recorder.spans}
    names = {s.name: s for s in recorder.spans}
    assert by_id[names["beamformers.synthesize"].parent].name == "experiments.run_experiment"
    assert by_id[names["experiments.run_experiment"].parent].name == "cli.main"
    summary = spans.summarize(recorder.spans)
    assert summary["channel.steering_vector"]["calls"] == 2
    assert summary["metrics.sinr_surface"]["points"] == 181 * 200


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _edit(path: Path, row: int, col: int, change) -> None:
    """Apply change(value) to one field of data row `row` (0-based, header excluded)."""
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = change(fields[col])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _surface_row(theta_deg: float, range_m: float) -> int:
    i = int(abs(workloads.THETA_GRID_DEG - theta_deg).argmin())
    j = int(abs(workloads.RANGE_GRID_M - range_m).argmin())
    return i * workloads.RANGE_GRID_M.size + j


BOB, EVE = _surface_row(70.0, 1000.0), _surface_row(100.0, 750.0)

# label -> (corruption, fragment of the message the oracle must raise)
CORRUPTIONS = {
    "surface": {
        "missing row": (lambda d: _drop_last_row(d / "sinr_surface_min_tp.csv"), "shape"),
        "nan value": (
            lambda d: _edit(d / "sinr_surface_ea.csv", 7, 2, lambda v: "nan"),
            "non-finite",
        ),
        "peak off Bob": (
            lambda d: _edit(d / "sinr_surface_ea.csv", BOB, 2, lambda v: repr(float(v) - 3.0)),
            "below the message peak",
        ),
        "message null filled": (
            lambda d: _edit(d / "sinr_surface_min_tp.csv", EVE, 2, lambda v: "-20"),
            "message null at Eve",
        ),
        "jamming null filled": (
            lambda d: _edit(d / "sinr_surface_min_rtp.csv", BOB, 3, lambda v: "-120"),
            "jamming null at Bob",
        ),
    },
    "gamma": {
        "missing row": (lambda d: _drop_last_row(d / "gamma_surface_min_rtp.csv"), "shape"),
        "surface not flat": (
            lambda d: _edit(
                d / "gamma_surface_min_rtp.csv", 500, 2, lambda v: repr(float(v) * (1 + 1e-6))
            ),
            "off the Min-TP rate",
        ),
    },
    "ber": {
        "missing row": (lambda d: _drop_last_row(d / "ber_vs_snr_ea.csv"), "shape"),
        "EA off Q(sqrt(SINR))": (
            lambda d: _edit(d / "ber_vs_snr_ea.csv", 0, 1, lambda v: repr(float(v) + 0.01)),
            "ber_vs_snr_ea.csv: BER at",
        ),
        "Min-TP off Q(sqrt(SINR))": (
            lambda d: _edit(
                d / "ber_vs_snr_min_tp.csv", 6, 1, lambda v: repr(float(v) * 1.2 + 1e-4)
            ),
            "ber_vs_snr_min_tp.csv: BER at",
        ),
    },
}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def produced(request, tmp_path_factory):
    """One real call of a workload: its runner and its output directory."""
    workload = workloads.WORKLOADS[request.param]
    runner = run.Runner(cli, workload, SEED)
    out = tmp_path_factory.mktemp(workload.name) / "out"
    assert runner.invoke(workload.argv(SEED, out)) == 0
    return runner, out


def _check(runner, out: Path, tmp: Path) -> None:
    runner.workload.check(out, lambda extra: runner.reference(tmp, extra))


def test_oracle_accepts_real_output(produced, tmp_path):
    runner, out = produced
    _check(runner, out, tmp_path)


def test_oracle_rejects_each_corruption(produced, tmp_path):
    runner, out = produced
    for label, (corrupt, message) in CORRUPTIONS[runner.workload.name].items():
        copy = tmp_path / label.replace(" ", "_")
        shutil.copytree(out, copy)
        corrupt(copy)
        with pytest.raises(OutputMismatch, match=message):
            _check(runner, copy, tmp_path / f"ref_{copy.name}")
