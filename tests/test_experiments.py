import argparse
import codecs
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from securebeam import (
    ConfigError,
    ExperimentKind,
    Method,
    ScenarioConfig,
    ber_monte_carlo,
    build_subcarrier_plan,
    load_config,
    min_tp_beamformer,
    received_model,
    run_experiment,
    secrecy_rate,
    sinr_surface,
    synthesize,
)
from securebeam import beamformers, channel, cli, experiments, metrics
from securebeam.channel import _receivers
from securebeam.cli import _FLAGS, _SUBCOMMANDS, build_parser
from securebeam.cli import main as cli_main
from securebeam.experiments import (
    KEYS,
    LISTS,
    READ_KEYS,
    READS,
    ExperimentSpec,
    _ber_seed,
    _power_sweep,
    _spec_as_dict,
    _write_csv,
    power_for_snr_db,
    spec_from_values,
)

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# the five small specs of acceptance criterion 10; tests/data/golden holds the
# CSVs they give with the separable steering formula (see README)
GOLDEN_SPECS = {
    ExperimentKind.SR_VS_SNR: {"sweep": (10.0, 20.0)},
    ExperimentKind.BER_VS_SNR: {"sweep": (8.0,), "mc_symbols": 5000},
    ExperimentKind.SINR_SURFACE: {
        "theta_grid_deg": (60.0, 110.0, 11),
        "range_grid_m": (700.0, 1100.0, 9),
    },
    ExperimentKind.GAMMA_SURFACE: {"gamma_grid_points": 4},
    ExperimentKind.SR_VS_N: {"sweep": (4.0, 8.0), "snr_db_list": (15.0,)},
}


# the (command, key) pairs that are refused: keys a command never uses, and the scenario
# keys its lists set (the sweeps' SNRs set the transmit power, sr-vs-n's counts set N)
REFUSED = {
    "sr-vs-snr": ("total_power_w", "snr_db", "n_list", "mc_symbols", "gamma_max", "gamma_points"),
    "ber-vs-snr": ("total_power_w", "snr_db", "n_list", "gamma_max", "gamma_points"),
    "sr-vs-n": ("n_antennas", "total_power_w", "snr_db", "mc_symbols", "gamma_max", "gamma_points"),
    "gamma-surface": ("methods", "snr_list", "n_list", "mc_symbols"),
    "sinr-surface": ("snr_list", "n_list", "mc_symbols", "gamma_max", "gamma_points"),
}
# a valid text for every key, none of them its default
SAMPLE = {
    "experiment": "sr_vs_snr", "methods": "ea", "seed": "7", "n_antennas": "4",
    "n_subcarriers": "512", "carrier_freq_hz": "2e9", "bandwidth_hz": "1e6",
    "element_spacing_m": "0.04", "beta": "0.4", "total_power_w": "0.2", "snr_db": "10",
    "noise_bob_dbm": "-70", "noise_eve_dbm": "-70", "bob_theta_deg": "60", "bob_range_m": "900",
    "eve_theta_deg": "110", "eve_range_m": "800", "snr_list": "10", "n_list": "4",
    "mc_symbols": "2000", "gamma_max": "2", "gamma_points": "3", "out_dir": "elsewhere",
}


def reader(key):
    """An experiment that reads key, for a test of the key itself."""
    return next(kind.value for kind in ExperimentKind if key in READ_KEYS[kind])


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def per_row_csv(header, columns):
    """The CSV text of a literal per-row writer: equal-size columns, each flattened,
    one '%.12g' row at a time."""
    row = ",".join(["%.12g"] * len(header)) + "\n"
    rows = [row % tuple(r) for r in np.column_stack([np.ravel(c) for c in columns]).tolist()]
    return ",".join(header) + "\n" + "".join(rows)


def assert_same_text(got, want):
    """Exact equality that names the first differing line; pytest's own diff of two
    multi-megabyte strings would take minutes."""
    if got != want:
        lines = list(zip(got.splitlines(True), want.splitlines(True)))
        i = next((i for i, (g, w) in enumerate(lines) if g != w), len(lines))
        g, w = (text.splitlines(True)[i : i + 1] for text in (got, want))
        pytest.fail(f"line {i} differs: got {g}, want {w}")


# values whose '%.12g' text is easy to get wrong: nan, infinities, signed zero, the
# smallest subnormal, huge magnitudes and integral floats
AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 8.0, -3.0, 0.1]


class TestWriteCsv:
    @pytest.mark.parametrize(
        "shape, n_values",
        [((17,), 1), ((4, 5), 1), ((3, 7), 2), ((1, 1), 2), ((2, 3, 4), 2), ((5, 1), 1),
         ((1, 6), 2)],
        ids=["1-axis-1-value", "2-axes-1-value", "2-axes-2-values", "1x1-grid", "3-axes",
             "1-point-last-axis", "1-point-first-axis"],
    )
    def test_bytes_equal_per_row_writer(self, tmp_path, shape, n_values):
        rng = np.random.default_rng(len(shape) * 10 + n_values)
        # axes start with -0.0, nan and the infinities; values start with as many awkward
        # numbers as fit, the rest random with magnitudes from 1e-300 to 1e300
        axes = {
            f"axis{i}": np.array([-0.0, *AWKWARD[:3], *rng.normal(size=size)])[:size]
            for i, size in enumerate(shape)
        }
        values = {}
        for k in range(n_values):
            v = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            awkward = (AWKWARD[k:] + AWKWARD[:k])[: v.size]
            v.flat[: len(awkward)] = awkward
            values[f"value{k}"] = v
        _write_csv([tmp_path / "out.csv"], axes, values)
        grid = np.meshgrid(*axes.values(), indexing="ij")
        want = per_row_csv([*axes, *values], [*grid, *values.values()])
        assert_same_text((tmp_path / "out.csv").read_text(), want)

    @pytest.mark.parametrize(
        "shape, size", [((3, 4), 11), ((3, 4), 13), ((3, 4), 1), ((2, 3, 4), 23)],
        ids=["11", "13", "1", "3-axes-23"],
    )
    def test_value_size_must_match_grid(self, tmp_path, shape, size):
        axes = {f"a{i}": np.arange(float(n)) for i, n in enumerate(shape)}
        values = {"v": np.zeros(shape), "w": np.zeros(size)}
        with pytest.raises(ValueError, match=rf"one entry per grid point \({math.prod(shape)}\)"):
            _write_csv([tmp_path / "out.csv"], axes, values)
        assert list(tmp_path.iterdir()) == []  # not even out.csv.tmp

    @staticmethod
    def one_shot_csv(axes, values):
        """The whole file from one '%.12g' template filled by a single '%'."""
        grid = np.meshgrid(*axes.values(), indexing="ij")
        columns = [*(g.ravel() for g in grid), *(np.ravel(v) for v in values.values())]
        row = ",".join(["%.12g"] * len(columns)) + "\n"
        flat = np.column_stack(columns).ravel().tolist()
        return ",".join([*axes, *values]) + "\n" + row * grid[0].size % tuple(flat)

    @staticmethod
    def column(rng, kind, shape):
        """A value column: magnitudes from 1e-300 to 1e300, dB values with the -300 dB floor
        (fixed notation, as sinr-surface writes), zeros, exponential notation or float32."""
        if kind == "wide":
            return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        if kind == "db":
            db = 10 * np.log10(rng.exponential(size=shape))
            return np.where(rng.random(shape) < 0.01, -300.0, db)
        return {"zero": np.zeros(shape), "exp": rng.normal(size=shape) * 1e-5,
                "f32": rng.normal(size=shape).astype(np.float32)}[kind]

    @pytest.mark.parametrize(
        "shape, kinds, n_paths",
        [((3, experiments._BLOCK_ROWS + 5), ("wide",), 1),  # a last axis longer than a block
         ((37, 500), ("wide", "wide"), 1),  # 2,048 rows per block: blocks split outer values
         ((10_000,), ("wide",), 1),  # a lone axis, longer than a block
         ((7, 9, 600), ("wide", "wide"), 1),  # three axes: blocks split both outer axes' values
         ((63, 65), ("wide", "wide"), 1),  # 4,095 rows, 63 prefixes: the '%' fill at its largest
         ((1,), ("wide",), 1),  # one point
         ((20, 300), ("wide", "wide"), 3),  # several paths
         ((181, 200), ("db", "db"), 1),  # the default sinr-surface grid
         ((experiments._BLOCK_ROWS - 1,), ("db",), 1),  # one row short of the digit tables
         ((experiments._BLOCK_ROWS,), ("db",), 1),  # the fewest rows that use them
         ((20, 300), ("zero", "exp"), 1),
         ((5, 1000), ("f32", "db", "wide"), 1)],
        ids=["long-last-axis", "outer-off-block", "lone-10000", "3-axes", "63-prefixes",
             "1-point", "3-paths", "db-181x200", "block-rows-minus-1", "block-rows",
             "zero-and-exp", "float32"],
    )
    def test_blocks_equal_one_shot_write(self, tmp_path, shape, kinds, n_paths):
        rng = np.random.default_rng(sum(shape))
        axes = {f"axis{i}": rng.normal(size=size) * 1e3 for i, size in enumerate(shape)}
        values = {f"value{k}": self.column(rng, kind, shape) for k, kind in enumerate(kinds)}
        if kinds[0] == "wide":
            values["value0"].flat[: len(AWKWARD)] = AWKWARD[: values["value0"].size]
        paths = [tmp_path / f"out{j}.csv" for j in range(n_paths)]
        _write_csv(paths, axes, values)
        want = self.one_shot_csv(axes, values)
        for path in paths:
            assert_same_text(path.read_text(), want)
        assert sorted(tmp_path.iterdir()) == paths

    def test_memory_is_a_block_not_the_file(self, tmp_path):
        # a 400 x 500 grid of two values is an 11.7 MiB file; one block of 2,048 rows of two
        # values is formatted and written at a time, where the whole file used to take 43 MiB;
        # a first write of a block's rows builds the digit tables, a one-time cost, untraced
        rng = np.random.default_rng(4)
        axes = {"theta": np.linspace(0.0, 180.0, 400), "range": np.linspace(500.0, 3e3, 500)}
        values = {"a": rng.normal(size=(400, 500)), "b": rng.normal(size=(400, 500)) * 1e-5}
        warm = {"theta": np.arange(64.0), "range": np.arange(64.0)}
        assert 64 * 64 >= experiments._BLOCK_ROWS  # the tables' path, not the '%' fill
        _write_csv([tmp_path / "warm.csv"], warm, {"a": rng.normal(size=(64, 64))})
        tracemalloc.start()
        try:
            _write_csv([tmp_path / "out.csv"], axes, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.csv").stat().st_size > 11 * 2**20
        assert peak < 2 * 2**20, peak

    def test_block_that_fails_to_format_leaves_no_tmp(self, tmp_path, monkeypatch):
        # 10,000 rows of two values are five blocks of 2,048 rows for the digit tables; the
        # string in the last row fails float64 conversion in the fifth, after the header and
        # four blocks reached both .tmp files. An earlier file at a path keeps its bytes
        axes = {"a": np.arange(20.0), "b": np.arange(500.0)}
        bad = np.zeros(20 * 500, dtype=object)
        bad[-1] = "not a number"
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        paths[0].write_text("earlier\n")
        writes = {}  # file name: the size of each write to it
        open_path = Path.open

        class Tally:  # a file opened by _write_text, counting what it is given
            def __init__(self, path, mode):
                self.file, self.sizes = open_path(path, mode), writes.setdefault(path.name, [])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, block):
                self.sizes.append(self.file.write(block))

        with monkeypatch.context() as patch, pytest.raises(ValueError, match="convert string"):
            patch.setattr(Path, "open", lambda path, mode: Tally(path, mode))
            _write_csv(paths, axes, {"v": np.zeros((20, 500)), "w": bad})
        assert sorted(writes) == ["one.csv.tmp", "two.csv.tmp"]
        assert writes["one.csv.tmp"] == writes["two.csv.tmp"]
        assert len(writes["one.csv.tmp"]) == 5 and min(writes["one.csv.tmp"][1:]) > 2048
        assert sorted(tmp_path.iterdir()) == [paths[0]]
        assert paths[0].read_text() == "earlier\n"


def format_fuzz_values(size=200_000):
    """Floats whose '%.12g' text the digit tables must get right: random values of either sign
    from 1e-8 to 1e14, ties at the 12th digit, the neighbours of every power of ten from 1e-6
    to 1e13 and values 1e-12 from it, and the awkward ones, each also negated."""
    rng = np.random.default_rng(31)
    random = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 14, size)
    # (k + 0.5) / 10**j for 12-digit k, exact ties for j in 0..22, and near ties from 1e-289
    # to 1e302, where 10**(11 - e) is no one power of ten
    scale = np.concatenate([np.repeat(np.arange(23), 500), np.repeat(np.arange(-290, 301), 20)])
    ties = (rng.integers(10**11, 10**12, scale.size) + 0.5) / 10.0**scale
    powers = 10.0 ** np.arange(-6, 14)
    special = [999999999999.5, 0.00009999999999995, 0.0, 5e-324, 1e300, math.inf, math.nan,
               -300.0, 8.0, 123456789012.0, 1e11, 1e16, 1e22]
    integral = rng.integers(-10**13, 10**13, 2000).astype(float)
    edges = np.concatenate([ties, np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
                            powers * (1 - 1e-12), powers * (1 + 1e-12), special, integral])
    return np.concatenate([random, edges, -edges])


def assert_prints_as_percent_12g(path, values):
    """The lone-axis CSV at path holds, value by value, '%.12g' % v of each of values."""
    lines = path.read_text().splitlines()[1:]
    got = [line.split(",")[1] for line in lines]
    want = ["%.12g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, f"{len(bad)} values differ, first {bad[:3]}"


def mark_table_digits(monkeypatch):
    """Swap both of the digit tables' 4-digit ASCII word tables (low and shifted up 32 bits)
    for ones of 'A'-'J', which mark every digit of m they format and no '%.12g' text."""
    digits, digits_32, *rest = experiments._tables()
    mark = np.uint64(0x11111111)  # each of the four bytes '0'-'9' -> 'A'-'J'
    marked = (digits + mark, digits_32 + (mark << np.uint64(32)))
    monkeypatch.setattr(experiments, "_tables", lambda: (*marked, *rest))


def table_shares(path, n_axes):
    """The share of marked cells in each value column of the CSV at path."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [np.mean([re.search("[A-J]", cell) is not None for cell in column])
            for column in list(zip(*rows))[n_axes:]]


class TestExactFormat:
    """The digit tables' '%.12g' for large float datasets, against Python's own."""

    def test_every_value_prints_as_percent_12g(self, tmp_path):
        values = format_fuzz_values()
        _write_csv([tmp_path / "v.csv"], {"i": np.arange(values.size, dtype=float)}, {"v": values})
        assert_prints_as_percent_12g(tmp_path / "v.csv", values)

    @pytest.mark.parametrize("error", [-1.0, -1e-12, 1e-12, 1.0])
    def test_exact_when_log10_errs(self, tmp_path, monkeypatch, error):
        # the range and tie guards, not log10's accuracy, make the digits exact: a log10 off by
        # a decade, or by 1e-12 near each power of ten, sends the values it misses to '%'
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
        values = format_fuzz_values(20_000)
        _write_csv([tmp_path / "v.csv"], {"i": np.arange(values.size, dtype=float)}, {"v": values})
        assert_prints_as_percent_12g(tmp_path / "v.csv", values)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="names x86-64 SIMD targets")
    def test_exact_without_simd_kernels(self, tmp_path):
        # in a child process whose numpy dispatches no AVX2 or AVX-512 loop (log10 included)
        # and whose OpenBLAS runs its oldest kernel: exactness rests on the range and tie
        # guards, not on the loops numpy picks for this CPU
        values = format_fuzz_values()
        np.save(tmp_path / "v.npy", values)
        child = ("import sys, numpy as np; from pathlib import Path; "
                 "from securebeam.experiments import _write_csv; v = np.load(sys.argv[1]); "
                 "axis = {'i': np.arange(v.size, dtype=float)}; "
                 "_write_csv([Path(sys.argv[2])], axis, {'v': v}); "
                 "print(np.show_config(mode='dicts')['SIMD Extensions'].get('found', []))")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
               "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-c", child, str(tmp_path / "v.npy"),
                              str(tmp_path / "v.csv")], env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"  # no SIMD extension beyond the x86-64-v2 baseline
        assert_prints_as_percent_12g(tmp_path / "v.csv", values)

    def test_every_key_prints_as_percent_12g(self, tmp_path, monkeypatch):
        # the tables are built by rule, not read off '%.12g'. Each of their 384 keys (sign, e
        # from -4 to 11, m's 0-11 trailing zeros) formats values k * 10**(e - d + 1) of d
        # significant digits as '%.12g' does, its digits of m marked and its '0.000' prefix
        # not: zeros within (100.5, 1e11), no fraction (12.0), e = -4 with 12 digits. In the
        # digits 1010...3 each two neighbours' marks, 'B', 'A' and 'D', have a bit the other
        # lacks, and the last one's a bit of the trailing zero's 'A', so a digit a wrong mask
        # lets into a neighbour's byte shows; each value is also a first column, before a ','
        mark_table_digits(monkeypatch)
        rng = np.random.default_rng(35)
        values = [float(f"{sign}{k}e{e - d + 1}") for sign in "+-" for e in range(-4, 12)
                  for d in range(1, 13) for k in (10 ** (d - 1) + 5 * (d > 1), 10**d - 1,
                                                  rng.integers(10 ** (d - 1), 10**d) | 1,
                                                  int(("10" * 6)[:d - 1] + "3"))]
        named = [100.5, 1e11, 12.0, -0.000123456789012]
        values = np.resize([*values, *named], experiments._BLOCK_ROWS)  # repeated to a block
        _write_csv([tmp_path / "v.csv"], {"i": np.arange(values.size, dtype=float)},
                   {"v": values, "w": values})
        rows = [line.split(",") for line in (tmp_path / "v.csv").read_text().splitlines()[1:]]
        marks = str.maketrans("0123456789", "ABCDEFGHIJ")
        want = []
        for text in ("%.12g" % v for v in values.tolist()):
            cut = re.match(r"-?(0\.0*)?", text).end()
            want.append(text[:cut] + text[cut:].translate(marks))
        bad = [(v, r, w) for v, r, w in zip(values.tolist(), rows, want) if r[1:] != [w, w]]
        assert len(rows) == values.size and not bad, f"{len(bad)} values differ, first {bad[:3]}"

    def test_tables_take_every_decade(self, tmp_path, monkeypatch):
        # the tables, not the '%.12g' fallback, format all but the near ties of each decade
        # from 1e-4 to 1e11: '%' would print a decade the tables lost just as right
        mark_table_digits(monkeypatch)
        rng = np.random.default_rng(33)
        shape, exponents = (experiments._BLOCK_ROWS, 16), np.arange(-4, 12)
        values = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape) * 10.0 ** exponents
        _write_csv([tmp_path / "v.csv"], {"i": np.arange(shape[0], dtype=float)},
                   {f"e{e}": values[:, k] for k, e in enumerate(exponents)})
        shares = table_shares(tmp_path / "v.csv", 1)
        assert len(shares) == 16 and min(shares) >= 0.99, shares

    def test_tables_take_the_default_field(self, tmp_path, monkeypatch):
        # 0.18-0.22 % of the default field's values are near ties, which go to '%'
        mark_table_digits(monkeypatch)
        run_experiment(ExperimentSpec(kind=ExperimentKind.SINR_SURFACE, output_dir=str(tmp_path)))
        shares = [share for path in sorted(tmp_path.glob("*.csv"))
                  for share in table_shares(path, 2)]
        assert len(shares) == 6 and min(shares) >= 0.99, shares


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("seed", [1, 7, 42, 901])
def test_default_field_is_fixed_notation(seed, n):
    # the digit tables take only values that '%.12g' writes in fixed notation, finite and
    # nonzero; all but 0-2 of the default field's 144,800 values are such, so a field whose
    # values left the tables would fail here, not only run slower
    spec = spec_from_values({"experiment": "sinr_surface", "seed": str(seed),
                             "n_antennas": str(n)})
    values = [v for _, _, columns in experiments._datasets(spec)
              for column in columns.values() for v in column.tolist()]
    fixed = [math.isfinite(v) and v != 0.0 and "e" not in "%.12g" % v for v in values]
    assert len(values) == 144_800 and sum(fixed) >= 0.999 * len(values), sum(fixed)


class TestLoadConfig:
    def test_empty_file_gives_full_defaults(self, tmp_path):
        spec = load_config(write(tmp_path, ""))
        cfg = spec.scenario
        assert spec.kind is ExperimentKind.SR_VS_SNR
        assert cfg.num_antennas == 8
        assert cfg.num_subcarriers == 1024
        assert cfg.carrier_freq_hz == 3e9
        assert cfg.total_bandwidth_hz == 5e6
        assert cfg.power_alloc == 0.5
        assert cfg.noise_power_bob_w == pytest.approx(1e-9)
        assert (cfg.bob_theta_deg, cfg.bob_range_m) == (70.0, 1000.0)
        assert (cfg.eve_theta_deg, cfg.eve_range_m) == (100.0, 750.0)
        assert cfg.element_spacing_m is None
        assert cfg.spacing_m == pytest.approx(cfg.wavelength_m / 2.0)
        assert spec.methods == (Method.EA, Method.MIN_TP, Method.MIN_RTP)
        assert spec.sweep == tuple(float(s) for s in range(0, 31, 2))

    def test_beta_out_of_range_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="beta"):
            load_config(write(tmp_path, "beta = 1.5\n"))

    def test_antennas_exceed_subcarriers(self, tmp_path):
        with pytest.raises(ConfigError, match="num_subcarriers"):
            load_config(write(tmp_path, "n_antennas = 8\nn_subcarriers = 4\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":2:"):
            load_config(write(tmp_path, "beta = 0.4\nnot a key value line\n"))

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":1:"):
            load_config(write(tmp_path, "bogus = 1\n"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="^unknown key 'bogus'$"):
            spec_from_values({"bogus": "1"})

    def test_snr_sets_total_power(self, tmp_path):
        spec = load_config(write(tmp_path, "experiment = sinr_surface\nsnr_db = 20\n"))
        assert spec.scenario.total_power_w == pytest.approx(0.1)

    def test_overrides_and_lists(self, tmp_path):
        spec = load_config(
            write(
                tmp_path,
                "experiment = ber_vs_snr\nmethods = ea, min_tp\n"
                "snr_list = 6, 8, 10\nmc_symbols = 2000\nseed = 7\n",
            )
        )
        assert spec.kind is ExperimentKind.BER_VS_SNR
        assert spec.methods == (Method.EA, Method.MIN_TP)
        assert spec.sweep == (6.0, 8.0, 10.0)
        assert spec.mc_symbols == 2000
        assert spec.scenario.rng_seed == 7
        spec = spec_from_values({"methods": "MIN-TP, min-rtp, Ea"})  # spelt as Method takes
        assert spec.methods == (Method.MIN_TP, Method.MIN_RTP, Method.EA)

    @pytest.mark.parametrize(
        "key", ["n_antennas", "n_subcarriers", "seed", "mc_symbols", "gamma_points", "n_list"]
    )
    def test_non_integral_count_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, f"experiment = {reader(key)}\n{key} = 8.9\n"))

    def test_integral_count_in_float_notation_accepted(self, tmp_path):
        spec = load_config(
            write(tmp_path, "experiment = ber_vs_snr\nn_antennas = 16.0\nmc_symbols = 1e5\n")
        )
        assert spec.scenario.num_antennas == 16
        assert spec.mc_symbols == 100_000

    @pytest.mark.parametrize(
        "text, seed",
        [("16.0", 16), ("1e3", 1000), (" 7 ", 7), ("9007199254740993", 2**53 + 1),
         ("18446744073709551616", 2**64)],  # a seed is not a count: no int64 bound
    )
    def test_integer_text_parsed_exactly(self, text, seed):
        assert spec_from_values({"seed": text}).scenario.rng_seed == seed

    @pytest.mark.parametrize("text", ["7.5", "nan", "inf", "", "9007199254740993.5", "1e400"])
    def test_non_integer_text_rejected(self, text):
        with pytest.raises(ConfigError, match="seed: not an integer"):
            spec_from_values({"seed": text})

    @pytest.mark.parametrize(
        "key", ["n_antennas", "n_subcarriers", "mc_symbols", "gamma_points", "n_list"]
    )
    def test_count_beyond_int64_rejected(self, key):
        # config.check_count refuses it by field, before numpy sees it; no spec made here is run
        field = {"n_antennas": "num_antennas", "n_subcarriers": "num_subcarriers",
                 "gamma_points": r"gamma_grid_points \(gamma_points\)",
                 "n_list": "n_list: num_antennas"}.get(key, key)
        for text, bound in ((str(2**63), f"< {2**63}"), (str(-(2**63)), ">= "),
                            ("1e19", f"< {2**63}")):
            with pytest.raises(ConfigError, match=f"{field} must be {bound}"):
                spec_from_values({"experiment": reader(key), key: text})
        if key == "n_list":  # its entries are floats, as the SNRs are: 2**63 - 1 reads as 2**63
            with pytest.raises(ConfigError, match=f"{field} must be < {2**63}, got {2**63}$"):
                spec_from_values({"experiment": reader(key), key: str(2**63 - 1)})
            return
        try:
            spec_from_values({"experiment": reader(key), key: str(2**63 - 1)})
        except ConfigError as exc:  # another bound may reject it, but not this one
            assert f"must be < {2**63}" not in str(exc)

    def test_ber_symbol_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="mc_symbols"):
            load_config(write(tmp_path, "experiment = ber_vs_snr\nmc_symbols = 10\n"))

    def test_readme_lists_every_key(self):
        text = README.read_text()
        listed = re.search(r"Recognized keys:(.*?)\.\s", text, re.S).group(1)
        assert set(re.findall(r"`(\w+)`", listed)) == set(KEYS)

    def test_readme_lists_every_manifest_field(self, tmp_path):
        # the fields every manifest records, then each command's own: "`sr-vs-snr` records ..."
        text = README.read_text()
        listed = re.search(r"The manifest's `config` records(.*?)\.\s", text, re.S).group(1)
        every, own = listed.split(":", 1)
        for kind, fields in GOLDEN_SPECS.items():
            out = tmp_path / kind.value
            run_experiment(ExperimentSpec(kind=kind, output_dir=str(out), **fields))
            config = json.loads((out / "manifest.json").read_text())["config"]
            line = re.search(rf"`{kind.command}` records\s([^;]*)", own).group(1)
            assert set(re.findall(r"`(\w+)`", every + line)) == set(config), kind

    def test_readme_lists_the_keys_each_command_reads(self):
        # the keys every command reads, then each command's own: "- `sr-vs-snr` reads ..."
        text = README.read_text()
        listed = re.search(r"Recognized keys:(.*?)\.\s", text, re.S).group(1)
        every, own = listed.split("besides these", 1)
        for kind in ExperimentKind:
            line = re.search(rf"`{kind.command}` reads ([^;.]*)", own).group(1)
            assert set(re.findall(r"`(\w+)`", every + line)) == set(READ_KEYS[kind]), kind

    def test_readme_library_example_runs(self, capsys):
        text = README.read_text().split("\n## Library\n", 1)[1]
        code = text.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, str(README), "exec"), {})
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, text",
        [(f"{who}_{name}", text) for who in ("bob", "eve")
         for name, texts in (("theta_deg", ("0", "180", "nan", "-1", "inf")),
                             ("range_m", ("0", "nan", "-1", "inf")))
         for text in texts],
    )
    def test_bad_position_names_its_key(self, key, text):
        # the scenario checks an angle in radians; the message names the key, then the value
        with pytest.raises(ConfigError, match=f"^{key} must .*, got {re.escape(str(float(text)))}$"):
            spec_from_values({key: text})

    def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        # a '#' inside a value is part of it, where it used to cut the value short silently
        spec = load_config(write(tmp_path, "# runs\nout_dir = runs#2\nseed = 1  # note\n"))
        assert (spec.output_dir, spec.scenario.rng_seed) == ("runs#2", 1)
        with pytest.raises(ConfigError, match="seed: not an integer: '1#x'"):
            load_config(write(tmp_path, "seed = 1#x\n"))

    def test_key_given_twice_exit_code(self, tmp_path, capsys):
        # the second value would silently win over the first
        cfgfile = write(tmp_path, "seed = 1\n# comment\nseed = 2\n")
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {cfgfile}:3: 'seed' given twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        # the decode error used to escape as a UnicodeDecodeError
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n\xff\n")
        message = f"^{re.escape(str(path))}: not UTF-8 text: invalid start byte at byte 9$"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

    def test_file_with_a_byte_order_mark_reads_as_without_it(self, tmp_path):
        # the mark used to read as part of the first key: unknown key '\ufeffseed'
        text = "seed = 7\nexperiment = ber_vs_snr\nmc_symbols = 2000\n"
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_config(str(path)) == load_config(write(tmp_path, text))

    def test_every_cli_flag_sets_a_key(self):
        dests = {a.dest for a in build_parser()._actions}
        assert dests - {"help", "config", "grid", "command"} <= set(KEYS)
        assert {key for key, _ in _FLAGS.values()} <= dests


class TestRunExperiment:
    def test_non_integral_antenna_sweep_rejected(self):
        with pytest.raises(ConfigError, match="n_list"):
            ExperimentSpec(kind=ExperimentKind.SR_VS_N, sweep=(8.9,))

    @pytest.mark.parametrize("n, reason", [(0.0, "num_antennas"), (5000.0, "num_subcarriers")])
    def test_antenna_count_outside_scenario_rejected(self, n, reason):
        # caught when the spec is made, under the key that set it, not midway through the run
        with pytest.raises(ConfigError, match=f"n_list: {reason}"):
            ExperimentSpec(kind=ExperimentKind.SR_VS_N, sweep=(4.0, n))

    @pytest.mark.parametrize(
        "name, grid",
        [
            ("theta_grid_deg", (0.0, 180.0, 2.5)),
            ("theta_grid_deg", (0.0, 180.0, -1)),
            ("theta_grid_deg", (0.0, 180.0, 0)),
            ("theta_grid_deg", (0.0, math.nan, 5)),
            ("theta_grid_deg", (0.0, 180.0)),
            ("range_grid_m", (500.0, math.inf, 3)),
            ("range_grid_m", (500.0, 3000.0, 2.0)),
            ("range_grid_m", ("500", 3000.0, 2)),
            ("range_grid_m", None),
        ],
    )
    def test_malformed_grid_triple_rejected(self, name, grid):
        # linspace would raise TypeError or ValueError midway through the run
        with pytest.raises(ConfigError, match=name):
            ExperimentSpec(kind=ExperimentKind.SINR_SURFACE, **{name: grid})

    def test_grid_triple_stored_as_floats_and_an_int(self):
        # so the manifest can write it as [start, stop, points]
        spec = ExperimentSpec(
            kind=ExperimentKind.SINR_SURFACE, theta_grid_deg=(np.int64(60), 110, np.int64(11))
        )
        assert spec.theta_grid_deg == (60.0, 110.0, 11)
        assert [type(x) for x in spec.theta_grid_deg] == [float, float, int]

    def test_sr_vs_snr_single_point(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR,
            sweep=(20.0,),
            methods=(Method.MIN_TP,),
            output_dir=str(tmp_path / "out"),
        )
        manifest = run_experiment(spec)
        assert len(manifest["outputs"]) == 1
        lines = Path(manifest["outputs"][0]).read_text().splitlines()
        assert lines[0] == "snr_db,sr_bits"
        assert len(lines) == 2

    def test_ber_rerun_is_byte_identical(self, tmp_path):
        def run(out):
            spec = ExperimentSpec(
                kind=ExperimentKind.BER_VS_SNR,
                sweep=(6.0, 10.0),
                methods=(Method.EA,),
                mc_symbols=5000,
                output_dir=str(out),
            )
            manifest = run_experiment(spec)
            return Path(manifest["outputs"][0]).read_bytes()

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_gamma_surface_schema(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.GAMMA_SURFACE,
            gamma_grid_points=3,
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        lines = Path(manifest["outputs"][0]).read_text().splitlines()
        assert lines[0] == "gamma_cm,gamma_an,sr"
        assert len(lines) == 1 + 9

    def test_sinr_surface_schema(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SINR_SURFACE,
            methods=(Method.MIN_TP,),
            theta_grid_deg=(60.0, 110.0, 6),
            range_grid_m=(700.0, 1100.0, 5),
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        lines = Path(manifest["outputs"][0]).read_text().splitlines()
        assert lines[0] == "theta_deg,range_m,cm_sinr_db,an_power_db"
        assert len(lines) == 1 + 30

    def test_default_sinr_surface_csv_equals_its_record_array(self, tmp_path):
        # the writer takes theta and range as axes; its rows must be the meshgrid 'ij'
        # points, theta-major, beside the record array's fields, column for column. The
        # three files hold the two distinct datasets (EA; Min-TP = Min-RTP), 181 x 200 rows
        spec = ExperimentSpec(kind=ExperimentKind.SINR_SURFACE, output_dir=str(tmp_path))
        run_experiment(spec)
        cfg = spec.scenario
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        theta, ranges = np.linspace(*spec.theta_grid_deg), np.linspace(*spec.range_grid_m)
        assert (theta.size, ranges.size) == (181, 200)
        grid = np.meshgrid(theta, ranges, indexing="ij")
        for method in Method:
            beams = synthesize(cfg, plan, method)
            surface = sinr_surface(cfg, plan, beams, theta, ranges)
            names = surface.dtype.names
            columns = [*grid, *(surface[n] for n in names)]
            want = per_row_csv(["theta_deg", "range_m", *names], columns)
            assert_same_text((tmp_path / f"sinr_surface_{method.value}.csv").read_text(), want)

    def test_sr_vs_n_draws_one_plan_per_antenna_count(self, tmp_path, monkeypatch):
        drawn = []

        def spy(seed, num_antennas, num_subcarriers):
            drawn.append(num_antennas)
            return build_subcarrier_plan(seed, num_antennas, num_subcarriers)

        monkeypatch.setattr(experiments, "build_subcarrier_plan", spy)
        run_experiment(ExperimentSpec(kind=ExperimentKind.SR_VS_N, output_dir=str(tmp_path)))
        assert drawn == list(experiments.DEFAULT_N_SWEEP)

    def test_sr_vs_n_files_per_snr(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_N,
            sweep=(4.0, 8.0),
            methods=(Method.MIN_TP,),
            snr_db_list=(5.0, 15.0),
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        assert len(manifest["outputs"]) == 2
        lines = Path(manifest["outputs"][0]).read_text().splitlines()
        assert lines[0] == "n,sr_bits"

    def test_manifest_written_with_outputs(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR,
            sweep=(10.0,),
            methods=(Method.EA,),
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["seed"] == 42
        assert on_disk["outputs"] == list(manifest["outputs"])
        assert on_disk["config"]["scenario"]["num_antennas"] == 8

    @pytest.mark.parametrize("kind", list(GOLDEN_SPECS), ids=lambda k: k.command)
    def test_manifest_returned_is_the_manifest_written(self, tmp_path, capsys, monkeypatch, kind):
        spec = ExperimentSpec(kind=kind, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
        assert run_experiment(spec) == json.loads((tmp_path / "manifest.json").read_text())
        # and the CLI prints the outputs its manifest lists, one a line, in their order
        monkeypatch.setattr(cli, "spec_from_values", lambda values: spec)
        assert cli_main([kind.command]) == 0
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert capsys.readouterr().out.splitlines() == written["outputs"]

    @pytest.mark.parametrize(
        "kind, permuted",
        [(kind, False) for kind in GOLDEN_SPECS]
        + [(kind, True) for kind in GOLDEN_SPECS if kind is not ExperimentKind.GAMMA_SURFACE],
        ids=lambda v: v.command if isinstance(v, ExperimentKind) else ("permuted" if v else "golden"),
    )
    def test_manifest_text_is_one_indented_dump(self, tmp_path, kind, permuted):
        # the config's text is encoded once and spliced into the record's: the file holds the
        # bytes one json.dumps(manifest, indent=2) gives, whatever the order of the methods
        fields_ = dict(GOLDEN_SPECS[kind])
        if permuted:
            fields_["methods"] = (Method.MIN_RTP, Method.EA, Method.MIN_TP)
        spec = ExperimentSpec(kind=kind, output_dir=str(tmp_path), **fields_)
        manifest = run_experiment(spec)
        want = json.dumps(manifest, indent=2) + "\n"
        assert (tmp_path / "manifest.json").read_bytes() == want.encode()

    def test_numpy_scalar_in_scenario_recorded_as_its_number(self, tmp_path):
        # a loop over np.arange gives np.int64; json.dumps used to fail on it after the CSVs
        # were written, beside whatever manifest an earlier run had left there
        cfg = ScenarioConfig(num_antennas=np.int64(8))
        spec = ExperimentSpec(scenario=cfg, sweep=(10.0,), output_dir=str(tmp_path))
        manifest = run_experiment(spec)
        scenario = json.loads((tmp_path / "manifest.json").read_text())["config"]["scenario"]
        assert type(scenario["num_antennas"]) is int and scenario["num_antennas"] == 8
        assert manifest["config"]["scenario"] == scenario
        assert ScenarioConfig(**scenario) == spec.scenario

    def test_config_that_cannot_be_encoded_writes_nothing(self, tmp_path, monkeypatch):
        run_experiment(ExperimentSpec(
            kind=ExperimentKind.GAMMA_SURFACE, gamma_grid_points=3, output_dir=str(tmp_path)
        ))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(experiments, "_spec_as_dict", lambda spec: {"experiment": object()})
        with pytest.raises(TypeError, match="object"):
            run_experiment(ExperimentSpec(sweep=(10.0,), output_dir=str(tmp_path)))
        # no sr_vs_snr CSV beside the gamma run's manifest, which is left as it was
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("workers", [None, 2, 3], ids=lambda w: f"workers={w}")
    def test_parallel_ber_csv_equals_serial_calls(self, tmp_path, monkeypatch, workers):
        # W workers against one: each per-point call is a one-point sweep on this thread.
        # 7 points, more than workers and odd; a symbol count off the decision chunk
        if workers is not None:  # None: as many as the code picks for this machine
            monkeypatch.setattr(metrics, "_ber_workers", lambda points: min(workers, points))
        sweep, n = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0), 3 * metrics._CHUNK + 7
        spec = ExperimentSpec(
            kind=ExperimentKind.BER_VS_SNR, sweep=sweep, mc_symbols=n, output_dir=str(tmp_path)
        )
        run_experiment(spec)
        cfg = spec.scenario
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        for m in Method:
            rows = []
            for i, snr_db in enumerate(sweep):
                cfg_p = replace(cfg, total_power_w=power_for_snr_db(cfg, snr_db))
                beams = synthesize(cfg_p, plan, m)
                ber = ber_monte_carlo(cfg_p, plan, beams, cfg.bob, n, _ber_seed(cfg.rng_seed, i))
                rows.append(f"{snr_db:.12g},{ber:.12g}")
            lines = (tmp_path / f"ber_vs_snr_{m.value}.csv").read_text().splitlines()
            assert lines[1:] == rows

    @pytest.mark.parametrize("failing", [0, 4], ids=["calling-thread", "helper"])
    def test_ber_worker_exception_propagates(self, tmp_path, monkeypatch, failing):
        # with 3 workers over 7 points, point 0 is the calling thread's, point 4 a helper's
        monkeypatch.setattr(metrics, "_ber_workers", lambda points: min(3, points))
        out = tmp_path / "out"
        spec = ExperimentSpec(
            kind=ExperimentKind.BER_VS_SNR, sweep=tuple(range(0, 14, 2)), mc_symbols=2000,
            output_dir=str(out),
        )
        bad_seed, core = _ber_seed(spec.scenario.rng_seed, failing), metrics._bit_errors

        def failing_core(cm_gains, an_gains, noise_power, seed, draws):
            if seed == bad_seed:
                raise RuntimeError("point failed")
            return core(cm_gains, an_gains, noise_power, seed, draws)

        monkeypatch.setattr(metrics, "_bit_errors", failing_core)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="point failed"):
            run_experiment(spec)
        assert not out.exists()  # no CSV, no manifest
        assert set(threading.enumerate()) == before

    def test_ber_memory_is_one_draw_buffer_per_worker(self, tmp_path):
        # each worker holds its (3, n) float64 buffer, 24 bytes per symbol, plus 1-2 MiB
        # of chunk temporaries; the bits and Im n are drawn chunk by chunk
        sweep, n = (0.0, 10.0, 20.0, 30.0), 400_000

        def run(out, symbols):
            run_experiment(ExperimentSpec(
                kind=ExperimentKind.BER_VS_SNR, sweep=sweep, mc_symbols=symbols,
                output_dir=str(tmp_path / out),
            ))

        run("warm", 1000)  # one-time imports and caches stay out of the peak
        tracemalloc.start()
        try:
            run("measured", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = metrics._ber_workers(len(sweep))
        assert peak <= workers * (24 * n + 2 * 2**20) + 2**20, (peak, workers)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_sr_vs_snr_matches_closed_form_in_power(self, tmp_path, n):
        # with a, b, c, d the squared cm/an gains at Bob and Eve of the unit-power
        # beams, SR(P) = max(log2(1 + aP/(bP + s_b)) - log2(1 + cP/(dP + s_e)), 0)
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR,
            scenario=ScenarioConfig(num_antennas=n),
            output_dir=str(tmp_path),
        )
        run_experiment(spec)
        cfg = spec.scenario
        plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
        beams, index = _power_sweep(spec, cfg, _receivers(plan, cfg), spec.sweep)
        rates = secrecy_rate(cfg, plan, beams)[index]
        power = power_for_snr_db(cfg, spec.sweep)
        unit = replace(cfg, total_power_w=1.0)
        for method, sr in zip(spec.methods, rates):
            beams = synthesize(unit, plan, method)
            bob_cm, bob_an = received_model(unit, plan, beams, cfg.bob)
            eve_cm, eve_an = received_model(unit, plan, beams, cfg.eve)
            a, b = abs(bob_cm) ** 2, abs(bob_an) ** 2
            c, d = abs(eve_cm) ** 2, abs(eve_an) ** 2
            expected = np.maximum(
                np.log2(1.0 + a * power / (b * power + cfg.noise_power_bob_w))
                - np.log2(1.0 + c * power / (d * power + cfg.noise_power_eve_w)),
                0.0,
            )
            np.testing.assert_allclose(sr, expected, rtol=1e-12, atol=0.0)
            # '%.12g' keeps 12 significant digits: 5e-12 relative
            csv = np.loadtxt(
                tmp_path / f"sr_vs_snr_{method.value}.csv", delimiter=",", skiprows=1
            )
            np.testing.assert_array_equal(csv[:, 0], spec.sweep)
            np.testing.assert_allclose(csv[:, 1], expected, rtol=5e-12, atol=0.0)

    def test_outputs_written_through_tmp_and_rename(self, tmp_path, monkeypatch):
        renames = []
        replace = Path.replace

        def recording_replace(self, target):
            renames.append((self.name, Path(target).name))
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", recording_replace)
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR, sweep=(10.0,), output_dir=str(tmp_path)
        )
        manifest = run_experiment(spec)
        names = [Path(p).name for p in manifest["outputs"]] + ["manifest.json"]
        assert renames == [(name + ".tmp", name) for name in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("kind", list(GOLDEN_SPECS), ids=lambda k: k.value)
    def test_outputs_match_golden(self, tmp_path, kind):
        manifest = run_experiment(
            ExperimentSpec(kind=kind, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
        )
        golden = GOLDEN / kind.value
        assert sorted(Path(p).name for p in manifest["outputs"]) == sorted(
            p.name for p in golden.iterdir()
        )
        for path in map(Path, manifest["outputs"]):
            got, want = path.read_text(), (golden / path.name).read_text()
            if kind is ExperimentKind.BER_VS_SNR:
                assert got == want
                continue
            header = want.splitlines()[0]
            assert got.splitlines()[0] == header
            got_v, want_v = (
                np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2) for text in (got, want)
            )
            assert got_v.shape == want_v.shape
            for name, g, w in zip(header.split(","), got_v.T, want_v.T):
                if name.endswith("_db"):
                    np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-9, err_msg=name)
                else:
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("snr_db", [1e5, -1e5, math.nan, math.inf, -math.inf])
    def test_snr_without_finite_positive_power_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="SNR"):
            power_for_snr_db(ScenarioConfig(), snr_db)
        with pytest.raises(ConfigError, match="snr_list"):
            ExperimentSpec(kind=ExperimentKind.BER_VS_SNR, sweep=(0.0, snr_db))
        with pytest.raises(ConfigError, match="snr_list"):
            ExperimentSpec(kind=ExperimentKind.SR_VS_N, snr_db_list=(snr_db,))

    def test_output_dir_is_the_only_output_location(self, tmp_path, monkeypatch):
        # output_dir alone places the outputs; a stray environment variable is ignored
        monkeypatch.setenv("SECUREBEAM_OUT_DIR", str(tmp_path / "env_out"))
        out = str(tmp_path / "out")
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR, sweep=(10.0,), methods=(Method.EA,), output_dir=out
        )
        manifest = run_experiment(spec)
        assert manifest["outputs"] and all(p.startswith(out) for p in manifest["outputs"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


# the ExperimentSpec fields some experiments read and others do not, each with a valid
# value that is not its default
PER_EXPERIMENT = {
    "sweep": (8.0,), "methods": (Method.EA,), "mc_symbols": 2000, "gamma_grid_max": 2.0,
    "gamma_grid_points": 3, "snr_db_list": (15.0,), "theta_grid_deg": (60.0, 110.0, 11),
    "range_grid_m": (700.0, 1100.0, 9),
}
FIELD_PAIRS = [(kind, name) for kind in ExperimentKind for name in PER_EXPERIMENT]
# the keys that set a ScenarioConfig field
SCENARIO_KEYS = [key for key, (name, _) in KEYS.items()
                 if name in {f.name for f in fields(ScenarioConfig)}]


class TestSpecReadsRule:
    # ExperimentSpec takes a field only where READS says its experiment reads it, as
    # spec_from_values takes a key only where READ_KEYS lists it

    def test_every_per_experiment_field_is_in_reads(self):
        # a field that no READS entry names would pass the rule unchecked
        named = {name for reads in READS.values() for name in reads}
        rest = [f.name for f in fields(ExperimentSpec) if f.name not in named]
        assert rest == ["kind", "scenario", "output_dir"]
        assert set(PER_EXPERIMENT) == named
        assert (len(FIELD_PAIRS), sum(name in READS[k] for k, name in FIELD_PAIRS)) == (40, 13)

    @pytest.mark.parametrize(
        "kind, name", FIELD_PAIRS, ids=[f"{k.command}-{name}" for k, name in FIELD_PAIRS]
    )
    def test_spec_takes_only_the_fields_its_experiment_reads(self, tmp_path, kind, name):
        out, value = tmp_path / "out", PER_EXPERIMENT[name]
        if name in READS[kind]:  # accepted, and recorded as given
            fields_ = {**GOLDEN_SPECS[kind], name: value}
            run_experiment(ExperimentSpec(kind=kind, output_dir=str(out), **fields_))
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config[name] == json.loads(json.dumps(value))
        else:  # refused before anything is written
            with pytest.raises(ConfigError, match=f"^{kind.command} does not read {name}$"):
                run_experiment(ExperimentSpec(kind=kind, output_dir=str(out), **{name: value}))
            assert not out.exists()

    def test_unread_fields_are_refused_together(self, tmp_path, monkeypatch):
        # this call used to write gamma_surface_min_rtp.csv and leave methods and sweep out
        # of the manifest without a word
        monkeypatch.chdir(tmp_path)  # the spec's output_dir is "out" here
        with pytest.raises(ConfigError, match="^gamma-surface does not read sweep, methods$"):
            run_experiment(ExperimentSpec(kind=ExperimentKind.GAMMA_SURFACE, methods=(Method.EA,), sweep=(1.0, 2.0), gamma_grid_points=3))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda k: k.command)
    def test_scenario_keys_refused_at_both_doors_alike(self, tmp_path, kind):
        # the scenario fields a list overrides (the SNRs set total_power_w, the counts
        # num_antennas) were taken by ExperimentSpec, unused, and recorded in the manifest
        out = tmp_path / "out"
        for key in SCENARIO_KEYS:
            name, parse = KEYS[key]
            scenario = ScenarioConfig(**{name: parse(SAMPLE[key])})
            if key in REFUSED[kind.command]:
                message = f"^{kind.command} does not read {key}$"
                with pytest.raises(ConfigError, match=message):
                    run_experiment(
                        ExperimentSpec(kind=kind, scenario=scenario, output_dir=str(out))
                    )
                with pytest.raises(ConfigError, match=message):
                    spec_from_values({"experiment": kind.value, key: SAMPLE[key]})
            else:
                spec = ExperimentSpec(kind=kind, scenario=scenario, output_dir=str(out))
                assert spec_from_values({"experiment": kind.value, key: SAMPLE[key]}) == replace(
                    spec, output_dir="out")
        assert not out.exists()

    def test_scenario_key_at_its_default_is_accepted(self):
        kind = ExperimentKind.SR_VS_N
        spec = ExperimentSpec(kind=kind, scenario=ScenarioConfig(num_antennas=8, total_power_w=0.1))
        assert spec == ExperimentSpec(kind=kind)

    def test_unread_field_at_its_default_is_accepted(self):
        kind = ExperimentKind.GAMMA_SURFACE
        spec = ExperimentSpec(kind=kind, methods=list(Method), sweep=[], mc_symbols=100_000)
        assert _spec_as_dict(spec) == _spec_as_dict(ExperimentSpec(kind=kind))

    @pytest.mark.parametrize(
        "kind, name, given, same",
        [
            (ExperimentKind.SR_VS_SNR, "sweep", np.linspace(0, 30, 4), (0.0, 10.0, 20.0, 30.0)),
            (ExperimentKind.BER_VS_SNR, "sweep", np.array([8, 12]), (8.0, 12.0)),
            (ExperimentKind.SR_VS_N, "sweep", np.arange(4, 12, 4), (4.0, 8.0)),
            (ExperimentKind.SR_VS_N, "snr_db_list", np.array([5.0, 15.0]), (5.0, 15.0)),
            (ExperimentKind.SR_VS_SNR, "methods",
             np.array([Method.MIN_TP, Method.EA], dtype=object), (Method.MIN_TP, Method.EA)),
            (ExperimentKind.SR_VS_SNR, "methods", np.array([Method.EA, Method.MIN_TP]),
             (Method.EA, Method.MIN_TP)),
            (ExperimentKind.SINR_SURFACE, "methods", np.array(["ea", "min_rtp"]),
             (Method.EA, Method.MIN_RTP)),
            (ExperimentKind.BER_VS_SNR, "mc_symbols", np.int64(2500), 2500),
            (ExperimentKind.GAMMA_SURFACE, "gamma_grid_points", np.int64(3), 3),
        ],
        ids=lambda v: getattr(v, "command", None),
    )
    def test_numpy_values_build_the_spec_of_their_tuple(self, tmp_path, kind, name, given, same):
        # lists become the tuples the CLI parsers give; the two runs write the same bytes
        def run(value):
            fields_ = {**GOLDEN_SPECS[kind], name: value}
            spec = ExperimentSpec(kind=kind, output_dir=str(tmp_path), **fields_)
            manifest = run_experiment(spec)
            files = {Path(p).name: Path(p).read_bytes() for p in manifest["outputs"]}
            return spec, manifest["config"], files

        spec, config, files = run(given)
        assert (spec, config, files) == run(same)
        if isinstance(same, tuple):
            assert type(getattr(spec, name)) is tuple
            assert [type(v) for v in getattr(spec, name)] == [type(v) for v in same]

    @pytest.mark.parametrize(
        "kind, fields_, message",
        [
            (ExperimentKind.SR_VS_N, {"snr_db_list": ()}, "^snr_list: empty list$"),
            (ExperimentKind.SR_VS_SNR, {"methods": ()}, "^methods: empty list$"),
            (ExperimentKind.SR_VS_SNR, {"methods": ("ea", "bogus")}, "^methods: 'bogus' is not"),
            (ExperimentKind.SR_VS_SNR, {"sweep": ("ten",)}, "^snr_list: could not convert"),
            (ExperimentKind.SR_VS_SNR, {"sweep": 10.0},
             "^snr_list: 'float' object is not iterable"),
            (ExperimentKind.SR_VS_N, {"snr_db_list": (5.0, None)},
             r"^snr_list: float\(\) argument"),
            (ExperimentKind.GAMMA_SURFACE, {"gamma_grid_points": 3.0},
             r"^gamma_grid_points \(gamma_points\) is not an integer: 3.0$"),
            (ExperimentKind.BER_VS_SNR, {"mc_symbols": 2500.0, "sweep": (5.0,)},
             "^mc_symbols is not an integer: 2500.0$"),
            ("bogus", {}, "^'bogus' is not a valid ExperimentKind$"),
            (ExperimentKind.SINR_SURFACE, {"range_grid_m": (1e-300, 1000.0, 3)},
             "^range_m .* finite path loss, got 1e-300$"),
        ],
        ids=["empty-snr-list", "empty-methods", "unknown-method", "text-sweep", "scalar-sweep",
             "none-snr", "float-gamma-points", "float-mc-symbols", "unknown-kind",
             "overflowing-range"],
    )
    def test_malformed_field_refused_before_the_run(self, tmp_path, kind, fields_, message):
        # each of these used to pass the spec and fail midway through the run, or run
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentSpec(kind=kind, output_dir=str(out), **fields_))
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, name, key",
        [(ExperimentKind.SR_VS_N, "sweep", "n_list"),
         (ExperimentKind.SR_VS_N, "snr_db_list", "snr_list"),
         (ExperimentKind.SR_VS_SNR, "sweep", "snr_list")],
    )
    def test_list_entry_beyond_float_range_refused_before_the_run(self, tmp_path, kind, name, key):
        # float(10**400) raises OverflowError, which used to escape ExperimentSpec
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{key}: int too large to convert to float$"):
            run_experiment(ExperimentSpec(kind=kind, output_dir=str(out), **{name: (10**400,)}))
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, name, key",
        [(kind, name, key) for kind in ExperimentKind for name, key in READS[kind].items()
         if key in LISTS or key == "methods"],
        ids=lambda v: getattr(v, "command", v),
    )
    def test_both_doors_read_a_list_alike(self, kind, name, key):
        # a list key's text is split by spec_from_values and read by ExperimentSpec alone
        a, b = ("ea", "min-tp") if key == "methods" else ("8", "16")
        typed = (Method(a), Method(b)) if key == "methods" else (float(a), float(b))
        spec = spec_from_values({"experiment": kind.value, key: f"{a}, {b}"})
        assert spec == ExperimentSpec(kind=kind, **{name: (a, b)})
        assert spec == ExperimentSpec(kind=kind, **{name: typed})
        for text in ("ten", "5,5", ""):
            parts = tuple(text.replace(",", " ").split())
            with pytest.raises(ConfigError, match=f"^{key}: ") as cli:
                spec_from_values({"experiment": kind.value, key: text})
            if not parts and name == "sweep":  # the library's empty sweep is its default
                assert ExperimentSpec(kind=kind, sweep=parts).sweep == LISTS[key][0]
                continue
            with pytest.raises(ConfigError) as lib:
                ExperimentSpec(kind=kind, **{name: parts})
            assert str(lib.value) == str(cli.value)

    @pytest.mark.parametrize("kind", list(GOLDEN_SPECS), ids=lambda k: k.command)
    def test_manifest_config_builds_the_spec_back(self, tmp_path, kind):
        spec = ExperimentSpec(kind=kind, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
        run_experiment(spec)
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        kind_, scenario = ExperimentKind(config.pop("experiment")), config.pop("scenario")
        rebuilt = ExperimentSpec(
            kind=kind_, scenario=ScenarioConfig(**scenario), output_dir=str(tmp_path), **config
        )
        assert rebuilt == spec

    @pytest.mark.parametrize("kind", list(GOLDEN_SPECS), ids=lambda k: k.command)
    def test_manifest_experiment_names_its_kind(self, tmp_path, kind):
        # the recorded experiment is a name, and ExperimentSpec takes it as it stands
        spec = ExperimentSpec(kind=kind, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
        run_experiment(spec)
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        scenario = ScenarioConfig(**config.pop("scenario"))
        rebuilt = ExperimentSpec(kind=config.pop("experiment"), scenario=scenario,
                                 output_dir=str(tmp_path), **config)
        assert rebuilt == spec and rebuilt.kind is kind

    @pytest.mark.parametrize(
        "name, kind",
        [(name, ExperimentKind.SR_VS_SNR)
         for name in ["sr_vs_snr", "SR-vs-SNR", " sr-vs-snr ", np.str_("sr_vs_snr")]]
        + [("Sr-Vs-N", ExperimentKind.SR_VS_N)],
    )
    def test_kind_names_build_the_members_spec(self, tmp_path, name, kind):
        # ExperimentKind reads the spellings Method reads; a name used to run the whole
        # experiment and then fail, or to sweep the antenna counts as SNRs
        def run(kind_):
            spec = ExperimentSpec(kind=kind_, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
            manifest = run_experiment(spec)
            return spec, {Path(p).name: Path(p).read_bytes() for p in manifest["outputs"]}

        assert run(name) == run(kind)


def leaky_min_rtp(h_target, h_null, gamma):
    """The Min-TP beam with a small leak toward the nulled receiver: close to Min-TP, but
    not bit-identical to it."""
    return min_tp_beamformer(h_target, h_null) + 0.2 * h_null


SMALL_GRID = {"theta_grid_deg": (60.0, 110.0, 11), "range_grid_m": (700.0, 1100.0, 9)}


class TestSharedWork:
    # methods share one computation and one formatted text exactly when their weights
    # are bit-identical; the method names never decide it

    @pytest.mark.parametrize(
        "argv, points, grids",
        [
            (["gamma-surface", "--n-antennas", "4"], 2, 0),
            (["sr-vs-snr", "--snr-list", "0,10"], 2, 0),
            (["ber-vs-snr", "--snr-list", "0,10", "--mc-symbols", "2000"], 2, 0),
            (["sr-vs-n", "--n-list", "4,8,16"], 2 * 3, 0),
            # each method's pair from its own synthesize call, the seam the benchmark's span
            # test traces, and one field per distinct pair: EA's and Min-TP's, which Min-RTP's is
            (["sinr-surface", "--n-antennas", "4"], 2 * 3, 2),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_one_channel_evaluation_per_receiver(self, tmp_path, monkeypatch, argv, points, grids):
        # a run's beams and its point metric share one steering evaluation toward Bob and one
        # toward Eve per (scenario, plan); a second run counts as many again, so no run leaves
        # them behind for the next
        original, calls = channel.steering_factors, []

        def counting(plan, cfg, theta_rad, range_m):
            calls.append("point" if np.ndim(theta_rad) == 0 else "grid")
            return original(plan, cfg, theta_rad, range_m)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("securebeam") and vars(module).get(
                    "steering_factors") is original:
                monkeypatch.setattr(module, "steering_factors", counting)
        for run in ("first", "second"):
            calls.clear()
            assert cli_main(argv + ["--out", str(tmp_path / run)]) == 0
            assert (calls.count("point"), calls.count("grid")) == (points, grids), run

    @pytest.mark.parametrize("leaky, calls", [(False, 2), (True, 3)], ids=["min-rtp", "leaky"])
    def test_sinr_surface_once_per_distinct_pair(self, tmp_path, monkeypatch, leaky, calls):
        if leaky:
            monkeypatch.setattr(beamformers, "min_rtp_beamformer", leaky_min_rtp)
        seen = []

        def counting(*args):
            seen.append(args)
            return sinr_surface(*args)

        monkeypatch.setattr(experiments, "sinr_surface", counting)
        spec = ExperimentSpec(
            kind=ExperimentKind.SINR_SURFACE, output_dir=str(tmp_path), **SMALL_GRID
        )
        assert len(run_experiment(spec)["outputs"]) == 3
        assert len(seen) == calls

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (ExperimentKind.SINR_SURFACE, SMALL_GRID),
            (ExperimentKind.SR_VS_SNR, {}),
            (ExperimentKind.BER_VS_SNR, {"sweep": (8.0, 20.0), "mc_symbols": 5000}),
        ],
        ids=["sinr-surface", "sr-vs-snr", "ber-vs-snr"],
    )
    def test_leaky_min_rtp_is_computed_on_its_own(self, tmp_path, monkeypatch, kind, fields):
        monkeypatch.setattr(beamformers, "min_rtp_beamformer", leaky_min_rtp)

        def run(out, methods):
            out = tmp_path / out
            spec = ExperimentSpec(kind=kind, methods=methods, output_dir=str(out), **fields)
            run_experiment(spec)
            return {m: (out / f"{kind.value}_{m.value}.csv").read_bytes() for m in methods}

        together = run("all", tuple(Method))
        assert together[Method.MIN_RTP] != together[Method.MIN_TP]
        assert together[Method.MIN_RTP] == run("alone", (Method.MIN_RTP,))[Method.MIN_RTP]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sinr-surface"],
            ["sr-vs-snr"],
            ["sr-vs-n", "--n-list", "4,8"],
            ["ber-vs-snr", "--snr-list", "0,10", "--mc-symbols", "2000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_method_order_only_orders_the_manifest(self, tmp_path, capsys, argv):
        order = ["min_rtp", "ea", "min_tp"]
        assert cli_main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert cli_main(argv + ["--method", ",".join(order), "--out", str(tmp_path / "given")]) == 0
        default, given = (
            json.loads((tmp_path / out / "manifest.json").read_text())["outputs"]
            for out in ("default", "given")
        )
        assert capsys.readouterr().out.splitlines()[-len(given):] == given
        names = [Path(p).name for p in default]
        # the default lists the methods in Method order, per SNR for sr-vs-n
        perm = [list(Method).index(Method(m)) for m in order]
        want = [names[block + i] for block in range(0, len(names), len(perm)) for i in perm]
        assert [Path(p).name for p in given] == want
        for name in names:
            got, expected = ((tmp_path / out / name).read_bytes() for out in ("given", "default"))
            assert got == expected, name


class TestCli:
    def test_sr_vs_snr_smoke(self, tmp_path, capsys):
        rc = cli_main(
            [
                "sr-vs-snr",
                "--method",
                "min_tp",
                "--snr-list",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out and out[0].endswith("sr_vs_snr_min_tp.csv")

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["sr-vs-snr", "--beta", "2.0", "--out", str(tmp_path)])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    def test_snr_flag_with_total_power_in_config_exit_code(self, tmp_path, capsys):
        # both set the transmit power, so neither may silently win
        cfgfile = write(tmp_path, "total_power_w = 0.1\n")
        out = tmp_path / "o"
        rc = cli_main(
            ["sinr-surface", "--config", str(cfgfile), "--snr-db", "40", "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "snr_db" in err and "total_power_w" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sr-vs-snr", "sinr-surface", "gamma-surface"])
    def test_infeasible_geometry_exit_code(self, tmp_path, capsys, command):
        # EA is feasible with Bob at Eve's position; Min-TP is not, and the run
        # must fail before writing EA's file, or even making the output directory
        cfgfile = tmp_path / "bad.cfg"
        snr_list = "snr_list = 20\n" if command == "sr-vs-snr" else ""  # no surface reads it
        methods = "" if command == "gamma-surface" else "methods = ea, min_tp\n"  # Min-RTP only
        cfgfile.write_text("eve_theta_deg = 70\neve_range_m = 1000\n" + methods + snr_list)
        rc = cli_main([command, "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["sr-vs-snr", "--seed", "-1"], "seed"),
            (["sr-vs-snr", "--seed", "7.5"], "seed: not an integer"),
            (["gamma-surface", "--grid", "3:-1"], "gamma_points"),
            (["sr-vs-n", "--snr-list", ""], "snr_list"),
            (["sr-vs-snr", "--snr-list", "1e5"], "snr_list"),
            (["ber-vs-snr", "--snr-list", "nan"], "snr_list"),
            (["sr-vs-n", "--snr-list", "inf"], "snr_list"),
            (["sinr-surface", "--snr-db", "1e5"], "snr_db"),
            (["gamma-surface", "--grid", "inf:2"], "gamma_max"),
            (["gamma-surface", "--grid", "nan:3"], "gamma_max"),
            (["gamma-surface", "--grid=-1:3"], "gamma_max"),
            (["gamma-surface", "--grid", "0:2"], "gamma_max"),
            (["sr-vs-snr", "--method", "ea,EA"],
             "config error: methods must be nonempty and distinct, got ea, ea"),
            (["sr-vs-snr", "--method", "foo"], "methods: 'foo' is not a valid Method"),
            (["gamma-surface", "--grid", "3"], "config error: --grid expects MAX:POINTS"),
            (["gamma-surface", "--grid", "3:1"], "gamma_max"),
            (["sr-vs-n", "--n-list", "4,0"], "n_list: num_antennas"),
            (["sr-vs-n", "--n-list", "4,5000"], "n_list: num_subcarriers"),
            (["ber-vs-snr", "--mc-symbols", "1e20"], "mc_symbols must be < 9223372036854775808"),
            (["gamma-surface", "--grid", "3:1e19"],
             "(gamma_points) must be < 9223372036854775808"),
            (["sr-vs-n", "--n-list", "4,1e19"],
             "n_list: num_antennas must be < 9223372036854775808"),
            # '%.12g' names sr-vs-n's files and prints every row: two entries alike under it
            # would write one file twice, losing a curve, or give rows that cannot be told apart
            (["sr-vs-snr", "--snr-list", "5,5"], "snr_list: entries print alike"),
            (["sr-vs-snr", "--snr-list", "5,5.000000000001"], "snr_list: entries print alike"),
            (["ber-vs-snr", "--snr-list", "0,5,5.0"], "snr_list: entries print alike"),
            (["sr-vs-n", "--method", "min_tp", "--snr-list", "5,5.000000000001,5"],
             "snr_list: entries print alike"),
            (["sr-vs-n", "--n-list", "4,4"], "n_list: entries print alike"),
            (["sr-vs-n", "--n-list", "4,8,4.0"], "n_list: entries print alike"),
        ],
    )
    def test_boundary_input_exit_code(self, tmp_path, capsys, argv, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, line, message",
        [(command, "eve_range_m = 1e-160", "finite path loss, got 1e-160\n")
         for command in ("sr-vs-snr", "sr-vs-n", "gamma-surface")]
        + [("gamma-surface", "bob_range_m = 1e-300", "finite path loss, got 1e-300\n")],
    )
    def test_range_whose_path_loss_overflows_exit_code(
        self, tmp_path, capsys, command, line, message
    ):
        # below 7.46e-155 m the path loss (R / 1 m)^-2 is inf, and these runs used to exit 0
        # with every row NaN
        cfgfile, out = write(tmp_path, line + "\n"), tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([command, "--config", cfgfile, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    @pytest.mark.parametrize("key", ["bob_range_m", "eve_range_m"])
    def test_range_whose_path_loss_underflows_exit_code(self, tmp_path, capsys, command, key):
        # at 1e300 m the path loss is 0: gamma-surface used to write rows of 0, sinr-surface a
        # meaningless field and sr-vs-snr rates with Eve's gain at 0, each exiting 0
        cfgfile, out = write(tmp_path, f"{key} = 1e300\n"), tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([command, "--config", cfgfile, "--out", str(out)])
        assert rc == 2
        message = f"{key}: range_m must be finite and > 0 with a normal, finite path loss"
        assert capsys.readouterr().err.endswith(f"config error: {message}, got 1e+300\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, given",
        [("sr-vs-snr", "gamma_surface"), ("gamma-surface", "sr-vs-snr"), ("sr-vs-n", "sr_vs_snr"),
         ("ber-vs-snr", "bogus")],
    )
    def test_config_for_another_experiment_exit_code(self, tmp_path, capsys, command, given):
        # the command used to override the file's experiment key silently
        cfgfile, out = write(tmp_path, f"experiment = {given}\n"), tmp_path / "o"
        assert cli_main([command, "--config", cfgfile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if given == "bogus":
            assert err.endswith("config error: 'bogus' is not a valid ExperimentKind\n")
        else:
            assert err.endswith(
                f"config error: {cfgfile}: experiment = {given}, but the command is {command}\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize("given", ["sr_vs_snr", "sr-vs-snr", "SR-vs-SNR", "srvssnr"])
    def test_config_naming_its_command_in_any_spelling_runs(self, tmp_path, given):
        cfgfile, out = write(tmp_path, f"experiment = {given}\nsnr_list = 20\n"), tmp_path / "o"
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "sr_vs_snr"
        assert len(manifest["outputs"]) == 3

    def test_config_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        # the decode error used to escape main as a traceback and exit status 1
        path, out = tmp_path / "run.cfg", tmp_path / "o"
        path.write_bytes(b"\xff = 1\n")
        assert cli_main(["sr-vs-snr", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"config error: {path}: not UTF-8 text: invalid start byte at byte 0\n")
        assert not out.exists()

    def test_flags_parsed_like_config_file(self, tmp_path):
        rc = cli_main(
            ["sr-vs-snr", "--n-antennas", "16.0", "--method", "min_tp",
             "--snr-list", "20", "--out", str(tmp_path)]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["num_antennas"] == 16

    def test_seeds_above_2_to_53_stay_distinct(self, tmp_path):
        # a float parse would run seed 2**53 + 1 as 2**53
        csvs = []
        for seed in (2**53, 2**53 + 1):
            out = tmp_path / str(seed)
            argv = ["sr-vs-snr", "--method", "min_tp", "--seed", str(seed), "--out", str(out)]
            assert cli_main(argv) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed
            csvs.append((out / "sr_vs_snr_min_tp.csv").read_bytes())
        assert csvs[0] != csvs[1]

    def test_config_count_beyond_int64_exit_code(self, tmp_path, capsys):
        # numpy would raise OverflowError from the plan draw
        cfgfile = write(tmp_path, "n_subcarriers = 1e19\n")
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
        assert "num_subcarriers must be < 9223372036854775808" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, text, field",
        [("noise_bob_dbm", "4000", "noise_power_bob_w"),
         ("noise_eve_dbm", "1e6", "noise_power_eve_w")],
    )
    def test_config_dbm_that_overflows_exit_code(self, tmp_path, capsys, key, text, field):
        # 10 ** (dBm / 10) overflows a float from about 3,083 dBm; it used to escape main
        # as an OverflowError traceback and exit status 1
        cfgfile, out = write(tmp_path, f"{key} = {text}\n"), tmp_path / "o"
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"securebeam: config error: {field} must be finite and > 0, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["element_spacing_m = 1e308\n",  # (n - 1) d overflows
         "carrier_freq_hz = 1e300\nbandwidth_hz = 1e299\nbob_range_m = 1e100\n"],  # k df R does
        ids=["spacing", "range"],
    )
    def test_config_whose_steering_phase_overflows_exit_code(self, tmp_path, capsys, text):
        # found by tests/test_string_door.py: the run wrote NaN rows and exited 0
        cfgfile, out = write(tmp_path, text), tmp_path / "o"
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(out)]) == 2
        assert "config error: steering phase not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_is_set_only_by_the_grid(self, tmp_path, capsys):
        # no gamma changes a Min-RTP beam, so no key or flag sets one outside the search
        cfgfile = write(tmp_path, "gamma_cm = 1\n")
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'gamma_cm'" in capsys.readouterr().err
        for flag in ("--gamma-cm", "--gamma-an"):
            with pytest.raises(SystemExit) as exit_:
                cli_main(["sr-vs-snr", flag, "1", "--out", str(tmp_path / "o")])
            assert exit_.value.code == 2
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_records_angles_as_given(self, tmp_path):
        # math.degrees(math.radians(3)) is 3.0000000000000004, and its radians are not 3 deg's
        cfgfile = write(tmp_path, "bob_theta_deg = 3\n")
        argv = ["sr-vs-snr", "--method", "ea", "--config", cfgfile, "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        scenario = manifest["config"]["scenario"]
        assert scenario["bob_theta_deg"] == 3.0 and scenario["eve_theta_deg"] == 100.0
        replayed = spec_from_values({"bob_theta_deg": repr(scenario["bob_theta_deg"])})
        assert replayed.scenario.bob.angle_rad == math.radians(3.0)

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    @pytest.mark.parametrize(
        "text", ["", "bob_theta_deg = 3\ncarrier_freq_hz = 6e9\n"], ids=["default", "bob-3deg-6ghz"]
    )
    def test_manifest_scenario_builds_the_scenario_back(self, tmp_path, command, text):
        # the manifest's scenario is the record's own fields, the spacing None when not given
        cfgfile = write(tmp_path, text)
        assert cli_main([command, "--config", cfgfile, "--out", str(tmp_path / "o")]) == 0
        scenario = json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["scenario"]
        assert ScenarioConfig(**scenario) == load_config(cfgfile).scenario

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_every_command_takes_every_flag(self, command):
        argv = [command, "--grid", "2:3"]
        for flag, (key, _) in _FLAGS.items():
            argv += [flag, key]
        args = build_parser().parse_args(argv)
        assert (args.command, args.grid) == (command, "2:3")
        assert all(getattr(args, key) == key for key, _ in _FLAGS.values())

    @pytest.mark.parametrize(
        "argv", [[], ["sr_vs_snr"], ["--seed", "1"]], ids=["none", "unknown", "flag-only"]
    )
    def test_missing_or_unknown_command_exit_code(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv + ["--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "command" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_position_exit_code(self, tmp_path, capsys):
        cfgfile = write(tmp_path, "bob_theta_deg = 0\n")
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
        assert "config error: bob_theta_deg must lie strictly between 0 and 180, got 0.0" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    def test_gamma_surface_grid_flag(self, tmp_path):
        rc = cli_main(["gamma-surface", "--grid", "2:3", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "gamma_surface_min_rtp.csv").read_text().splitlines()
        assert len(lines) == 1 + 9

    @pytest.mark.parametrize(
        "argv, recorded",
        [
            (["sr-vs-n", "--snr-list", "5,15"],
             {"experiment": "sr_vs_n", "methods": ["ea", "min_tp", "min_rtp"],
              "sweep": [4.0, 8.0, 16.0, 32.0, 64.0], "snr_db_list": [5.0, 15.0]}),
            (["gamma-surface", "--grid", "2:3"],
             {"experiment": "gamma_surface", "gamma_grid_max": 2.0, "gamma_grid_points": 3}),
            (["sr-vs-snr", "--snr-list", "10,20"],
             {"experiment": "sr_vs_snr", "methods": ["ea", "min_tp", "min_rtp"],
              "sweep": [10.0, 20.0]}),
            (["ber-vs-snr", "--method", "ea", "--snr-list", "10", "--mc-symbols", "2000"],
             {"experiment": "ber_vs_snr", "methods": ["ea"], "sweep": [10.0], "mc_symbols": 2000}),
            (["sinr-surface", "--method", "min_tp"],
             {"experiment": "sinr_surface", "methods": ["min_tp"],
              "theta_grid_deg": [0.0, 180.0, 181], "range_grid_m": [500.0, 2987.5, 200]}),
        ],
    )
    def test_manifest_records_every_spec_field(self, tmp_path, argv, recorded):
        # exactly the fields the command read: the experiment, its scenario and its own
        assert cli_main(argv + ["--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config == {**recorded, "scenario": config["scenario"]}
        assert config["scenario"] == asdict(ScenarioConfig())
        assert config["scenario"]["num_antennas"] == 8

    @pytest.mark.parametrize(
        "command, key", [(command, key) for command, keys in REFUSED.items() for key in keys]
    )
    def test_refused_key_exit_code(self, tmp_path, capsys, command, key):
        # a key the command does not read would be ignored, or recorded for a run that
        # never used it; from a flag or a file alike, it is refused before anything is written
        cfgfile = write(tmp_path, f"{key} = {SAMPLE[key]}\n")
        assert cli_main([command, "--config", cfgfile, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {command} does not read {key}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda k: k.command)
    def test_every_key_not_refused_builds_a_spec(self, kind):
        # and every key read but out_dir, which only places the files, shows in the manifest
        accepted = [key for key in KEYS if key not in REFUSED[kind.command]]
        assert READ_KEYS[kind] == tuple(accepted)
        default = _spec_as_dict(spec_from_values({"experiment": kind.value}))
        for key in accepted:
            spec = spec_from_values({key: SAMPLE[key], "experiment": kind.value})
            assert spec.kind is kind
            if key not in ("experiment", "out_dir"):
                assert _spec_as_dict(spec) != default, key
        assert spec_from_values({"experiment": kind.value, "out_dir": "x"}).output_dir == "x"

    def test_ignored_flags_are_refused(self, tmp_path, capsys):
        # each of these used to exit 0 and ignore what it was given
        for argv, keys in [
            (["sr-vs-snr", "--grid", "2:3", "--n-list", "4,8", "--mc-symbols", "5000"],
             "gamma_max, gamma_points, n_list, mc_symbols"),
            (["gamma-surface", "--method", "ea"], "methods"),
            (["gamma-surface", "--snr-list", "1,2"], "snr_list"),
            (["sr-vs-n", "--n-antennas", "16"], "n_antennas"),
            (["sr-vs-snr", "--snr-db", "3"], "snr_db"),
        ]:
            assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
            assert f"config error: {argv[0]} does not read {keys}\n" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_output_beneath_a_file_exit_code(self, tmp_path, capsys):
        # the output directory cannot be made inside a regular file
        (tmp_path / "file").write_text("")
        argv = ["sr-vs-snr", "--method", "ea", "--snr-list", "10"]
        assert cli_main(argv + ["--out", str(tmp_path / "file" / "o")]) == 4
        assert capsys.readouterr().err.startswith("securebeam: i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize(
        "argv, blocked",
        [(["sr-vs-snr"], "sr_vs_snr_min_rtp.csv"), (["gamma-surface"], "manifest.json")],
    )
    def test_failed_rename_leaves_no_tmp(self, tmp_path, capsys, argv, blocked):
        # a directory where an output goes fails that output's rename, after its .tmp is
        # written; every .tmp of the write not yet renamed is removed
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert cli_main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("securebeam: i/o error: ")
        assert list(out.rglob("*.tmp")) == []

    def test_failed_run_leaves_no_earlier_manifest(self, tmp_path, capsys):
        # a run that failed part-way left its new CSVs beside the earlier run's manifest,
        # which then described other bytes; a run that fails before any dataset changes nothing
        out = tmp_path / "o"
        assert cli_main(["sr-vs-snr", "--out", str(out), "--seed", "5"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfgfile = write(tmp_path, "eve_theta_deg = 70\neve_range_m = 1000\n")
        assert cli_main(["sr-vs-snr", "--config", cfgfile, "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        (out / "sr_vs_snr_min_rtp.csv").unlink()
        (out / "sr_vs_snr_min_rtp.csv").mkdir()
        assert cli_main(["sr-vs-snr", "--out", str(out), "--seed", "7"]) == 4
        assert "securebeam: i/o error: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert list(out.rglob("*.tmp")) == []

    @pytest.mark.parametrize(
        "argv, name",
        [(["ber-vs-snr", "--mc-symbols", "2000", "--snr-list", "10"], "_ber_sweep"),
         (["gamma-surface", "--grid", "3:4"], "grid_search_gamma")],
    )
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch, argv, name):
        # numpy's allocation error (at --mc-symbols 1e12 or --grid 3:1e12) used to escape main
        # as a traceback and exit status 1; small runs and a stand-in that raises it allocate
        # nothing, where a real oversized request may be granted on an overcommitting host
        def oom(*args):
            raise MemoryError("Unable to allocate 21.8 TiB")

        monkeypatch.setattr(experiments, name, oom)
        assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 5
        captured = capsys.readouterr()
        assert captured.err == "securebeam: out of memory: Unable to allocate 21.8 TiB\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_method_help_lists_every_method(self):
        helps = {action.dest: action.help for action in build_parser()._actions}
        assert helps["methods"].startswith("comma-separated subset of ea,min_tp,min_rtp (")

    def test_flag_help_names_the_commands_that_read_it(self):
        helps = {action.dest: action.help for action in build_parser()._actions}
        assert helps["grid"].endswith(" (read by gamma-surface)")
        assert helps["snr_db"].endswith(" (read by gamma-surface, sinr-surface)")
        assert helps["seed"].endswith(f" (read by {', '.join(_SUBCOMMANDS)})")
        for key, _ in _FLAGS.values():
            named = re.search(r" \(read by (.*)\)$", helps[key]).group(1).split(", ")
            assert named == [k.command for k in ExperimentKind if key in READ_KEYS[k]], key

    @pytest.fixture
    def fresh_parser(self):
        # main's parser is cached per process; a test that counts its construction starts
        # from none and leaves none of its own behind
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_one_parser_per_process(self, tmp_path, monkeypatch, capsys, fresh_parser):
        built = []

        def counted(*args, **kwargs):
            built.append(argparse.ArgumentParser(*args, **kwargs))
            return built[-1]

        # argparse looks its own class up by name, so the count wraps cli's view of it only
        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counted))
        assert cli_main(["sr-vs-snr", "--snr-list", "0", "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["gamma-surface", "--grid", "1:2", "--out", str(tmp_path / "b")]) == 0
        assert cli_main(["sr-vs-snr", "--beta", "2.0", "--out", str(tmp_path / "c")]) == 2
        assert len(built) == 1 and cli._parser() is built[0]
        # build_parser is not the cache: a caller that extends its parser changes no main call
        build_parser().set_defaults(seed="x")
        assert len(built) == 2 and built[1] is not built[0]
        assert cli_main(["sr-vs-snr", "--snr-list", "0", "--out", str(tmp_path / "d")]) == 0

    def test_no_flag_leaks_into_the_next_call(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["sr-vs-snr", "--method", "ea", "--snr-list", "0", "--out", str(a)]) == 0
        assert cli_main(["sr-vs-snr", "--out", str(b)]) == 0
        assert sorted(p.name for p in b.glob("*.csv")) == sorted(
            f"sr_vs_snr_{m}.csv" for m in Method
        )
        config = json.loads((b / "manifest.json").read_text())["config"]
        assert config["methods"] == [m.value for m in Method]
        assert config["sweep"] == [float(s) for s in range(0, 31, 2)]

    def test_help_wraps_to_the_width_at_each_call(self, monkeypatch):
        # main's shared parser keeps no formatter: each help text reads the terminal width anew
        parser = cli._parser()
        monkeypatch.setenv("COLUMNS", "40")
        narrow = parser.format_help()
        monkeypatch.setenv("COLUMNS", "120")
        wide = cli._parser().format_help()
        assert cli._parser() is parser
        assert narrow != wide
        assert len(narrow.splitlines()) > len(wide.splitlines())

    def test_python_m_securebeam(self, tmp_path):
        # a source checkout runs the CLI without an install; `import securebeam.cli`, the
        # import setup_s times, loads no more than it did before the -m entry point existed
        env = {k: v for k, v in os.environ.items() if k != "SECUREBEAM_OUT_DIR"}
        env["PYTHONPATH"] = str(SRC)

        def run(*args):
            return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=60)

        ok = run("-m", "securebeam", "sr-vs-snr", "--snr-list", "0,10", "--out", "o")
        assert ok.returncode == 0, ok.stderr
        written = [f"o/sr_vs_snr_{m}.csv" for m in Method]
        assert ok.stdout.split() == [str(Path(name)) for name in written]
        assert all((tmp_path / name).is_file() for name in written)
        bad = run("-m", "securebeam", "sr_vs_snr", "--out", "p")
        assert bad.returncode == 2 and "command" in bad.stderr
        assert not (tmp_path / "p").exists()
        imported = run("-c", "import sys, securebeam.cli; print('securebeam.__main__' in "
                             "sys.modules)")
        assert imported.stdout == "False\n", imported.stderr


def _ber_door(ber, num_symbols, seed):
    cfg = ScenarioConfig()
    plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
    return ber(cfg, plan, synthesize(cfg, plan, Method.EA), cfg.bob, num_symbols, seed)


# every door that takes a count through config.check_count: (name in the message, call)
COUNT_DOORS = {
    "num_antennas": lambda v: ScenarioConfig(num_antennas=v),
    "num_subcarriers": lambda v: ScenarioConfig(num_subcarriers=v),
    "rng_seed": lambda v: ScenarioConfig(rng_seed=v),
    "mc_symbols": lambda v: ExperimentSpec(
        kind=ExperimentKind.BER_VS_SNR, sweep=(5.0,), mc_symbols=v),
    "gamma_grid_points (gamma_points)": lambda v: ExperimentSpec(
        kind=ExperimentKind.GAMMA_SURFACE, gamma_grid_max=0.0, gamma_grid_points=v),
    "n_antennas": lambda v: build_subcarrier_plan(42, v, 1024),
    "n_subcarriers": lambda v: build_subcarrier_plan(42, 8, v),
    "num_symbols": lambda v: _ber_door(ber_monte_carlo, v, 1),
    "num_symbols (ber_sweep)": lambda v: _ber_door(metrics.ber_sweep, v, [1]),
    "seed": lambda v: _ber_door(ber_monte_carlo, 1000, v),
    "seed (ber_sweep)": lambda v: _ber_door(metrics.ber_sweep, 1000, [v]),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("door", COUNT_DOORS)
def test_every_count_door_refuses_a_bool(door, value):
    # operator.index takes True as 1: ScenarioConfig(rng_seed=True) ran seed 1 and recorded
    # "seed": true, and a gamma grid of True points recorded "gamma_grid_points": true
    name = door.removesuffix(" (ber_sweep)")
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} is not an integer: {value}$"):
        COUNT_DOORS[door](value)


@pytest.mark.parametrize("value, message", [(-1, "must be >= 0, got -1"),
                                            (1.5, "is not an integer: 1.5")])
@pytest.mark.parametrize("door", ["seed", "seed (ber_sweep)"])
def test_ber_seed_door_refuses_what_rng_seed_refuses(door, value, message):
    # check_count's refusals, as for rng_seed, where numpy would raise its own or run seed 1
    with pytest.raises(ConfigError, match=f"^seed {re.escape(message)}$"):
        COUNT_DOORS[door](value)
    with pytest.raises(ConfigError, match=f"^rng_seed {re.escape(message)}$"):
        ScenarioConfig(rng_seed=value)
