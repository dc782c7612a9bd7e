"""securebeam benchmark: one CLI experiment per workload, driven through
`securebeam.cli.main`, timed end to end, with a separate traced run for
per-layer self time.

    python3 benchmarks/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports the package from
`src/` beside this directory. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones.
"""
import os

# Pin BLAS / OpenMP pools before numpy loads, here and in every child process.
THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(THREADS)
# It overrides --out, so workloads would overwrite each other's manifest.json.
os.environ.pop("SECUREBEAM_OUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import TRACED, COUNTED, Recorder, instrument, summarize  # noqa: E402
from workloads import WORKLOADS, OutputMismatch, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"  # per-call temp directories and span dumps; git-ignored

MIN_SAMPLES = 3  # timed calls per run even when --seconds is shorter
SETUP_SPAWNS = 9  # fresh interpreters timed for setup_s, after one untimed
# Nominal seconds of reference_kernel_s(): its median between workload calls
# on a 2-core x86-64 box with Python 3.11, numpy 2.4 (OpenBLAS), one BLAS thread.
REF_NOMINAL_S = 0.055

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, fn in TRACED:
        units[f"{module}.{fn}.calls"] = "count"
        units[f"{module}.{fn}.self_s"] = "s"
    for name, (count, _) in COUNTED.items():
        units[f"{name}.{count}"] = "count"
    units["experiments.rows_written"] = "count"
    units["experiments.bytes_written"] = "B"
    units["trace.overhead_s"] = "s"
    return units


def git_head() -> str:
    """HEAD commit read from .git without running git, which would search
    parent directories outside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "git_head": git_head(),
    }


def reference_kernel_s() -> float:
    """Seconds for a fixed mix of the work the workloads do: interpreter-bound
    formatting, numpy random and transcendental kernels, and complex 128 x 128
    Gram products and solves.

    On a shared host, other tenants slow calls by up to half within seconds.
    They slow this kernel alike (per-call correlation 0.7 on gamma, 0.85 on
    surface), so the ratio of the two is steady where raw wall time is not.
    """
    start = time.perf_counter()
    ",".join(format(i * 0.1, ".12g") for i in range(30_000))
    rng = np.random.default_rng(0)
    z = rng.standard_normal(200_000)
    float(np.abs(np.exp(1j * z)).sum())
    a = rng.standard_normal((128, 128)) + 1j * np.eye(128)
    for _ in range(12):
        np.linalg.solve(a.conj().T @ a + np.eye(128), a[0])
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rescale(elapsed: float, ref_before: float, ref_after: float) -> float:
    """`elapsed` rescaled to the reference kernel's nominal speed, by the
    kernel's mean time just before and just after it."""
    return elapsed * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


def measure_setup() -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import securebeam.cli, raw
    and rescaled to the reference kernel's nominal speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import securebeam.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # compiles bytecode; untimed
    raw, scaled = [], []
    ref_before = reference_kernel_s()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        ref_after = reference_kernel_s()
        raw.append(elapsed)
        scaled.append(rescale(elapsed, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Calls one workload through cli.main, each call in a fresh directory,
    and checks every call's outputs with the workload's oracle."""

    def __init__(self, cli, workload: Workload, seed: int) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.rows_written = 0
        self.bytes_written = 0

    def invoke(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI lists its outputs
            try:
                return self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                return exc.code if isinstance(exc.code, int) else 2

    def call(self, recorder: Recorder | None = None) -> tuple[float, float]:
        """One timed call, traced into `recorder` if given, counting its outcome.

        Returns its wall seconds and the same rescaled to the reference
        kernel's nominal speed by the kernel's time around the call. The
        oracle runs untimed and untraced.
        """
        self.attempted += 1
        ref_before = reference_kernel_s()
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out = Path(tmp) / "out"
            argv = self.workload.argv(self.seed, out)
            tracing = instrument(recorder) if recorder else contextlib.nullcontext()
            with tracing:
                start = time.perf_counter()
                try:
                    code = self.invoke(argv)
                except Exception:  # a raising call is a failed call, not a crash
                    code = None
                    traceback.print_exc()
                elapsed = time.perf_counter() - start
            ref_after = reference_kernel_s()
            try:
                if code != 0:
                    raise OutputMismatch(f"cli.main({argv}) returned {code}")
                self.workload.check(out, lambda extra: self.reference(Path(tmp), extra))
            except OutputMismatch as exc:
                self.failed += 1
                print(f"{self.workload.name}: failed: {exc}", file=sys.stderr)
            csvs = list(out.glob("*.csv"))
            self.bytes_written = sum(p.stat().st_size for p in csvs)
            self.rows_written = sum(p.read_bytes().count(b"\n") - 1 for p in csvs)
        return elapsed, rescale(elapsed, ref_before, ref_after)

    def reference(self, tmp: Path, extra: list[str]) -> Path:
        """Run the oracle's `sr-vs-snr` with the workload's scenario into tmp."""
        ref = tmp / "reference"
        argv = ["sr-vs-snr", *self.workload.scenario, "--seed", str(self.seed), *extra]
        code = self.invoke([*argv, "--out", str(ref)])
        if code != 0:
            raise OutputMismatch(f"reference cli.main({argv}) returned {code}")
        return ref


def timed_run(runner: Runner, seconds: float) -> tuple[dict, str]:
    setup_raw, setup_s = measure_setup()
    runner.call()  # warm-up: imports, caches and allocator settle
    wall, wall_ref = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(wall) < MIN_SAMPLES:
        raw, scaled = runner.call()
        wall.append(raw)
        wall_ref.append(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_ref_s": statistics.median(wall_ref), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    note = (
        f"over {len(wall)} calls: "
        + "; ".join(
            f"{name} q1 {q1:.6g} s, median {med:.6g} s, q3 {q3:.6g} s"
            for name, (q1, med, q3) in (("wall_s", quartiles(wall)), ("wall_ref_s", quartiles(wall_ref)))
        )
        + f"; setup_s unscaled {setup_raw:.6g} s over {SETUP_SPAWNS} interpreters"
    )
    return values, note


def traced_run(runner: Runner, seconds: float, spans_path: Path, header: dict) -> tuple[dict, str]:
    """Alternate untraced and traced calls; per-layer values are medians over
    the traced calls, counts are per call, and the overhead is the median
    difference of reference-scaled times within each untraced/traced pair."""
    runner.call()  # warm-up
    recorder = Recorder()
    plain, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        plain.append(runner.call()[1])
        mark = len(recorder.spans)
        traced.append(runner.call(recorder)[1])
        per_call.append(summarize(recorder.spans[mark:]))
    recorder.dump(spans_path, header)

    values = {}
    for module, fn in TRACED:
        name = f"{module}.{fn}"
        rows = [call.get(name, {"calls": 0, "self_s": 0.0}) for call in per_call]
        values[f"{name}.calls"] = statistics.median_low(r["calls"] for r in rows)
        values[f"{name}.self_s"] = statistics.median(r["self_s"] for r in rows)
        if name in COUNTED:
            count = COUNTED[name][0]
            values[f"{name}.{count}"] = statistics.median_low(r.get(count, 0) for r in rows)
    values["experiments.rows_written"] = runner.rows_written
    values["experiments.bytes_written"] = runner.bytes_written
    values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    note = (
        f"{len(traced)} traced and {len(plain)} untraced calls; spans in "
        f"{spans_path.relative_to(ROOT)}; *.points, *.symbols, rows_written and "
        "bytes_written are computed counts per call"
    )
    return values, note


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "securebeam" / "cli.py").is_file():
        print(f"run.py: no securebeam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from securebeam import cli

    WORK.mkdir(exist_ok=True)
    env = environment(name, seed)
    print("env " + json.dumps(env))
    runner = Runner(cli, WORKLOADS[name], seed)
    if trace:
        spans_path = WORK / f"spans-{name}-seed{seed}.json"
        values, note = traced_run(runner, seconds, spans_path, env)
        units = per_layer_units()
    else:
        values, note = timed_run(runner, seconds)
        units = END_TO_END_UNITS
    for metric, unit in units.items():
        print(f"{name} {metric} {values[metric]!r} {unit}")
    print(f"{name} failed_frac {runner.failed / runner.attempted!r} fraction ({runner.failed}/{runner.attempted} calls)")
    print(f"{name} {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    # one child process per workload, so each reports its own peak RSS
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
