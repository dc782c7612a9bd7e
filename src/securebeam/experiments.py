# securebeam/experiments.py
"""Experiment runner: config ingestion, sweeps, CSV emission, run manifest."""
from __future__ import annotations

import contextlib
import dataclasses
import datetime
import decimal
import functools
import itertools
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamformers import Method, _pair, synthesize
from .channel import _receivers, build_subcarrier_plan
from .config import ConfigError, NameEnum, ScenarioConfig, check_count, path_loss
from .metrics import _ber_sweep, _secrecy_rate, sinr_surface
from .search import grid_search_gamma

DEFAULT_SNR_SWEEP_DB = tuple(range(0, 31, 2))
DEFAULT_N_SWEEP = (4, 8, 16, 32, 64)
DEFAULT_SR_VS_N_SNRS_DB = (5.0, 15.0, 25.0)
# 181 x 200 angle-range probe grid; hits the default Bob and Eve positions exactly
DEFAULT_THETA_GRID_DEG = (0.0, 180.0, 181)
DEFAULT_RANGE_GRID_M = (500.0, 2987.5, 200)
# values per block of the digit tables, and the fewest CSV rows that use them; a dataset of
# fewer rows is one '%' fill
_BLOCK_ROWS = 4096


class ExperimentKind(NameEnum):
    GAMMA_SURFACE = "gamma_surface"
    SINR_SURFACE = "sinr_surface"
    SR_VS_SNR = "sr_vs_snr"
    SR_VS_N = "sr_vs_n"
    BER_VS_SNR = "ber_vs_snr"

    @property
    def command(self) -> str:
        return self.value.replace("_", "-")


def power_for_snr_db(cfg: ScenarioConfig, snr_db: np.ndarray | float) -> np.ndarray | float:
    """Total transmit power giving the requested SNR through Bob's path loss;
    elementwise for an array of SNRs. Rejects an SNR whose power is not finite and > 0."""
    snr = np.asarray(snr_db, dtype=np.float64)
    with np.errstate(over="ignore"):
        power = 10.0 ** (snr[()] / 10.0) * cfg.noise_power_bob_w / path_loss(cfg.bob_range_m)
    bad = snr[~(np.isfinite(power) & (power > 0.0))]
    if bad.size:
        raise ConfigError(f"SNR {bad[0]} dB does not give a finite transmit power > 0")
    return power


def _grid(name: str, grid: tuple) -> tuple[float, float, int]:
    """A (start, stop, points) triple for linspace: finite ends and an integer count >= 1."""
    try:  # math.isfinite takes only real numbers; check_count's ConfigError is a ValueError
        start, stop, points = grid
        if math.isfinite(start) and math.isfinite(stop):
            return float(start), float(stop), check_count(name, points, 1)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be (start, stop, points), finite, points >= 1: {grid!r}")


@dataclass
class ExperimentSpec:
    """One experiment: which dataset to produce, over which sweep, for which methods."""

    kind: ExperimentKind = ExperimentKind.SR_VS_SNR
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep: tuple[float, ...] = ()  # SNRs (dB) or antenna counts; () -> its list key's default
    methods: tuple[Method, ...] = tuple(Method)
    mc_symbols: int = 100_000
    output_dir: str = "out"
    gamma_grid_max: float = 3.0
    gamma_grid_points: int = 31
    snr_db_list: tuple[float, ...] = DEFAULT_SR_VS_N_SNRS_DB
    theta_grid_deg: tuple[float, float, int] = DEFAULT_THETA_GRID_DEG
    range_grid_m: tuple[float, float, int] = DEFAULT_RANGE_GRID_M

    def __post_init__(self):
        self.kind = ExperimentKind(self.kind)  # a member or any name ExperimentKind takes
        unread = [f.name for f in dataclasses.fields(self) if getattr(self, f.name) is not f.default
                  and f.name not in READS[self.kind] and any(f.name in r for r in READS.values())
                  and not np.array_equal(getattr(self, f.name), f.default)]
        # and, by key, the scenario fields its lists set (the SNRs the power, the counts N)
        # unless at their defaults, which a dataclass keeps as class attributes
        overridden = [k for own in READS[self.kind].values() if own in LISTS for k in LISTS[own][1]]
        unread += [k for k in overridden if KEYS[k][0]
                   and getattr(self.scenario, KEYS[k][0]) != getattr(ScenarioConfig, KEYS[k][0])]
        if unread:  # settings this experiment never uses, and would record in the manifest
            raise ConfigError(f"{self.kind.command} does not read {', '.join(unread)}")
        for name, key in READS[self.kind].items():  # its lists, as texts or numbers at either door
            if key not in LISTS and key != "methods":
                continue
            try:  # Method members or floats; an empty sweep is its list key's default
                values = tuple(map(Method if key == "methods" else float, getattr(self, name)))
                values = values or (tuple(map(float, LISTS[key][0])) if name == "sweep" else ())
                setattr(self, name, values)
                # '%.12g' names the files and prints the rows, so alike entries would clash
                if not values:
                    raise ConfigError("empty list")
                if key in LISTS and len({"%.12g" % v for v in values}) < len(values):
                    raise ConfigError(f"entries print alike under '%.12g': {values}")
                if key == "snr_list":
                    power_for_snr_db(self.scenario, values)
                elif key == "n_list":  # each count must make a valid scenario for _datasets
                    for n in values:  # floats, as the SNRs are; the scenario refuses 8.5
                        n = int(n) if n.is_integer() else n
                        dataclasses.replace(self.scenario, num_antennas=n)
            except (TypeError, ValueError, OverflowError) as exc:  # ConfigError is a ValueError
                raise ConfigError(f"{key}: {exc}") from exc
        if len(set(self.methods)) < len(self.methods):  # the list loop refuses an empty one
            names = ", ".join(map(str, self.methods))
            raise ConfigError(f"methods must be nonempty and distinct, got {names}")
        check_count("mc_symbols", self.mc_symbols, 1000)
        check_count("gamma_grid_points (gamma_points)", self.gamma_grid_points, 1)
        top, points = self.gamma_grid_max, self.gamma_grid_points
        # the grid linspace(0, top, points) must be finite and end at top; one point is just 0
        if not (math.isfinite(top) and top >= 0.0 and (top == 0.0) == (points == 1)):
            raise ConfigError(f"gamma_max must be 0 for 1 point, else finite and > 0, got {top}")
        for name in ("theta_grid_deg", "range_grid_m"):
            setattr(self, name, _grid(name, getattr(self, name)))
        out = str(self.output_dir)  # "" would write to the current directory
        if not out or "\0" in out:
            raise ConfigError(f"output_dir (out_dir) must name a directory, got {out!r}")


def _write_text(paths: list[Path], blocks: Iterable[bytes]) -> None:
    """Write the blocks (bytes or any buffer) to every path (all in one directory) through
    <name>.tmp and a rename, so a reader never sees a partial file; a block or rename that fails
    leaves no .tmp behind."""
    paths[0].parent.mkdir(parents=True, exist_ok=True)  # first write: a failed run makes none
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(tmp.open("wb")) for tmp in tmps]
            for block in blocks:
                for file in files:
                    file.write(block)
        for tmp, path in zip(tmps, paths):
            tmp.replace(path)
    except BaseException:  # a renamed .tmp is gone already
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


# Exact '%.12g' by table, for the columns (as float64) of a dataset of _BLOCK_ROWS rows or more,
# of each value it writes in fixed notation (nonzero, decimal exponent e from -4 to 11). Its text
# fills a 24-byte cell of three little-endian uint64 words: its prefix ('-', and '0.' and zeros if
# e < 0) from byte 0, the 12 digits of its rounded mantissa m, a '.' moved in and trailing zeros
# masked away, from byte 8, and the ',' or '\n' after it at byte 23; the NUL between is dropped.


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """_cells' tables, built on its first call, so that a run that writes no large dataset
    pays nothing for them. By k < 10**4: its 4 ASCII digits as one uint64, the same shifted up
    32 bits, and its trailing zeros, 4 for 0, from the 10 x 10 x 10 x 10 grid of its digits. By
    exponent e + 4: the exact 10**(11 - e). By key 192 * sign + 12 * (e + 4) + trailing zeros:
    the masks of m's digits left and right of the '.', and the cell's prefix, '.' and ','."""
    digits = np.stack(np.broadcast_arrays(*np.ix_(*[np.arange(48, 58, dtype=np.uint8)] * 4)), -1)
    digits = digits.reshape(10_000, 4).view("<u4")[:, 0].astype(np.uint64)
    thousands, hundreds, tens, ones = np.ix_(*[(np.arange(10) == 0).astype(int)] * 4)
    trailing_zeros = (ones * (1 + tens * (1 + hundreds * (1 + thousands)))).ravel()
    power = np.array([10**k for k in range(15, -1, -1)], dtype=float)
    left, right = np.zeros((2, 384, 16), np.uint8)
    marks = np.zeros((384, 24), np.uint8)
    for key in range(384):
        sign, e, zeros = key // 192, key % 192 // 12 - 4, key % 12
        point = max(e + 1, 0)  # m's digits left of the '.', then right of it up to 12 - zeros
        left[key, :point] = right[key, point:12 - zeros] = 255
        prefix = ("-"[:sign] + ("0." + "0" * -(e + 1) if e < 0 else "")).encode()
        marks[key, :len(prefix)] = list(prefix)
        marks[key, 8 + point] = ord(".") if 0 <= e and point < 12 - zeros else 0
    marks[:, 23] = ord(",")
    tables = (digits, digits << np.uint64(32), trailing_zeros, power,  # words by key, transposed
              *(np.ascontiguousarray(t.view("<u8").T) for t in (left, right, marks)))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _cells(values: np.ndarray) -> np.ndarray:
    """The CSV text of each row of the float64 array values, as '%.12g' cells each followed by
    ',' or the last by '\\n': a uint8 array of cells padded with NUL to one width."""
    digits, digits_32, trailing_zeros, power, left, right, marks = _tables()
    x = values.ravel()
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # e + 4, clamped to the table (fmax takes 0 over nan): where it is not x's exponent (0, nan,
        # inf, e outside -4..11, or log10 one off near a power of ten), m's range sends x to '%'
        exponent = np.log10(a) + 4
        exponent = np.fmin(np.fmax(exponent, 0, out=exponent), 15, out=exponent).astype(np.intp)
        s = a * power.take(exponent)  # a * 10**(11 - e), rounded once: within 1.2e-4 of exact
        m = np.rint(s)
        # away from a tie m is its correct rounding; s >= 1e11 also refuses an e one too high,
        # where m could round up to 1e11
        ok = (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.499)
    low = np.where(ok, m, 111_111_111_111).astype(np.int64)  # any digits for '%'
    high = low // 10**8
    low -= high * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    trailing = trailing_zeros.take(low)
    rare = np.flatnonzero(low == 0)  # m ends in four zeros or more
    trailing[rare] += trailing_zeros.take(mid[rare]) + (mid[rare] == 0) * trailing_zeros.take(
        high[rare])
    key = 12 * exponent + trailing
    key += 192 * np.signbit(x)  # the keys of negative values come second
    fallback = np.flatnonzero(~ok)
    del a, s, m, trailing, exponent, ok
    body = [digits.take(high), digits.take(low)]  # m's digits, the first at byte 8 of the cell
    body[0] |= digits_32.take(mid)
    moved = [body[j] & right[j].take(key) for j in (0, 1)]  # these move up a byte for the '.'
    cells = np.empty((x.size, 3), "<u8")
    cells[:, 0] = marks[0].take(key)
    for j in (0, 1):
        body[j] &= left[j].take(key)
        body[j] |= moved[j] << np.uint64(8)
        body[j] |= marks[j + 1].take(key)
    body[1] |= moved[0] >> np.uint64(56)
    cells[:, 1], cells[:, 2] = body
    texts = ["%.12g" % v for v in x[fallback].tolist()]  # at most 19 bytes, -1.2345e-308
    cells.view(np.uint8)[fallback, :23] = np.array(texts, "S23").view(np.uint8).reshape(-1, 23)
    cells = cells.view(np.uint8).reshape(len(values), -1)
    cells[:, -1] = ord("\n")  # after a row's last cell
    return cells


def _texts(strings: list[str]) -> np.ndarray:
    """The ASCII strings as the rows of a uint8 array, padded with NUL to one width."""
    raw = np.array(strings, dtype="S")
    return raw.view(np.uint8).reshape(len(strings), raw.itemsize)


def _byte_block(axes: tuple[np.ndarray, np.ndarray], start: int, values: np.ndarray) -> bytes:
    """The CSV bytes of the rows from start on, whose float columns are values: a uint8 matrix
    with one row per CSV row, its prefix and last-axis texts (_texts of each) and its value
    texts (_cells) in fixed columns, less its NUL bytes."""
    prefixes, last = axes
    outer, inner = np.divmod(np.arange(start, start + len(values)), len(last))
    matrix = np.concatenate(
        [prefixes.take(outer, 0), last.take(inner, 0), _cells(values.astype(np.float64))], 1)
    return matrix.tobytes().translate(None, b"\0")


def _write_csv(paths: list[Path], axes: dict, values: dict) -> None:
    """Write values on the axes' grid (first axis slowest) as '%.12g' CSV rows to every path."""
    # axis values are formatted once; a '%.12g' number needs no '%' escape
    *outer, last = (["%.12g," % a for a in np.ravel(axis).tolist()] for axis in axes.values())
    prefixes = [""]  # one per point of the outer axes; a lone axis has the one empty prefix
    for cells in outer:
        prefixes = [p + c for p in prefixes for c in cells]
    size, columns = len(prefixes) * len(last), [np.reshape(v, -1) for v in values.values()]
    if any(column.size != size for column in columns):
        raise ValueError(f"values must have one entry per grid point ({size})")
    if size >= _BLOCK_ROWS:
        # the digit tables, _BLOCK_ROWS values at a time: a block may split an outer-axis value
        step, texts = max(1, _BLOCK_ROWS // len(columns)), (_texts(prefixes), _texts(last))
        blocks = (_byte_block(texts, i, np.column_stack([column[i:i + step] for column in columns]))
                  for i in range(0, size, step))
    else:  # the whole file's template, filled by one '%'
        fill = ",".join(["%.12g"] * len(values)) + "\n"
        rows = ["", *(c + fill for c in last)]  # p.join(rows) puts p before every row, in C
        blocks = [("".join([p.join(rows) for p in prefixes])
                   % tuple(np.column_stack(columns).ravel().tolist())).encode()]
    _write_text(paths, itertools.chain([(",".join([*axes, *values]) + "\n").encode()], blocks))


def _distinct(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[list[tuple], list[int]]:
    """The pairs without repeats, in order of first appearance, and each pair's position among
    them. Only bit-identical weights repeat, so one computation serves every pair it stands for."""
    keys = [w_cm.tobytes() + w_an.tobytes() for w_cm, w_an in pairs]
    firsts = list(dict.fromkeys(keys))
    return [pairs[keys.index(k)] for k in firsts], [firsts.index(k) for k in keys]


def _shared(spec: ExperimentSpec, index: list[int], k: int) -> dict[int, str]:
    """{position in spec.methods: file name} of the methods at position k of _distinct."""
    kind = spec.kind.value
    return {i: f"{kind}_{m.value}.csv" for i, m in enumerate(spec.methods) if index[i] == k}


def _ber_seed(base_seed: int, sweep_index: int) -> int:
    # one stream per sweep point, shared across methods for paired comparison
    return int(np.random.SeedSequence((base_seed, sweep_index)).generate_state(1)[0])


def _power_sweep(
    spec: ExperimentSpec, cfg: ScenarioConfig, factors: tuple, snrs_db: tuple[float, ...]
) -> tuple[tuple, list[int]]:
    """The methods' distinct beams at every SNR, from Bob's and Eve's steering factors, stacked
    as (pairs, SNRs, N), and each method's position in the stack: every weight scales with
    sqrt(P_s), so each is built at unit power."""
    h_b, h_e = (a * b for a, b in factors)  # the steering vectors, as steering_vector forms them
    units, index = _distinct([_pair(h_b, h_e, m, cfg.power_alloc, 1.0) for m in spec.methods])
    scale = np.sqrt(power_for_snr_db(cfg, snrs_db))[:, np.newaxis]
    return tuple(np.array([scale * w for w in ws]) for ws in zip(*units)), index


def _datasets(spec: ExperimentSpec) -> Iterator[tuple[dict, dict, dict]]:
    """Compute the experiment, yielding per distinct dataset ({position in the manifest: name}
    of each file that holds it, 1-D axes, values on their grid)."""
    cfg = spec.scenario
    if spec.kind is ExperimentKind.SR_VS_N:  # one plan per antenna count
        rates = []  # per antenna count: (methods, SNRs); transposed, (SNRs, methods, Ns)
        for n in spec.sweep:
            cfg_n = dataclasses.replace(cfg, num_antennas=int(n))
            plan = build_subcarrier_plan(cfg.rng_seed, int(n), cfg.num_subcarriers)
            factors = _receivers(plan, cfg_n)
            beams, index = _power_sweep(spec, cfg_n, factors, spec.snr_db_list)
            rates.append(_secrecy_rate(cfg_n, factors, beams)[index])
        for s, (snr_db, by_method) in enumerate(zip(spec.snr_db_list, np.array(rates).T)):
            for i, (method, sr) in enumerate(zip(spec.methods, by_method)):
                name = f"sr_vs_n_{method.value}_snr{snr_db:.12g}db.csv"
                yield {(s, i): name}, {"n": spec.sweep}, {"sr_bits": sr}
        return

    plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
    if spec.kind is ExperimentKind.GAMMA_SURFACE:
        gammas = np.linspace(0.0, spec.gamma_grid_max, spec.gamma_grid_points)
        surface = grid_search_gamma(cfg, plan, gammas, gammas)
        axes = {"gamma_cm": gammas, "gamma_an": gammas}
        yield {0: "gamma_surface_min_rtp.csv"}, axes, {"sr": surface}

    elif spec.kind is ExperimentKind.SINR_SURFACE:
        theta, ranges = np.linspace(*spec.theta_grid_deg), np.linspace(*spec.range_grid_m)
        # every beam is built before the first file is written, so an infeasible
        # method leaves no partial output behind; each through synthesize, with its own two
        # steering evaluations, since benchmarks/test_benchmark.py traces that call here
        pairs, index = _distinct([synthesize(cfg, plan, m) for m in spec.methods])
        for k, beams in enumerate(pairs):
            surface = sinr_surface(cfg, plan, beams, theta, ranges)
            values = {n: surface[n] for n in surface.dtype.names}
            yield _shared(spec, index, k), {"theta_deg": theta, "range_m": ranges}, values

    else:  # SR_VS_SNR or BER_VS_SNR
        factors = _receivers(plan, cfg)  # Bob's and Eve's, shared by the beams and the metric
        beams, index = _power_sweep(spec, cfg, factors, spec.sweep)
        if spec.kind is ExperimentKind.SR_VS_SNR:
            column, rates = "sr_bits", _secrecy_rate(cfg, factors, beams)
        else:  # one draw of bits, jamming and noise per SNR point, shared by every method
            seeds = [_ber_seed(cfg.rng_seed, i) for i in range(len(spec.sweep))]
            column, rates = "ber", _ber_sweep(
                cfg, factors[0], beams, cfg.bob, spec.mc_symbols, seeds)
        for k, values in enumerate(rates):
            yield _shared(spec, index, k), {"snr_db": spec.sweep}, {column: values}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment, write one CSV per method plus manifest.json, and return its dict."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    config = _spec_as_dict(spec)
    # encoded before the first write, so no CSV is left beside an earlier run's manifest, and
    # indented one level in, as json.dumps(manifest, indent=2) puts the manifest's first entry
    config_text = json.dumps(config, indent=2).replace("\n", "\n  ")
    out_dir = Path(spec.output_dir)
    outputs = {}  # position in the manifest -> path
    for names, axes, values in _datasets(spec):
        # only once a dataset is computed, so a refused or infeasible run changes nothing, and
        # before its files, so no earlier run's manifest stays beside them (then a no-op)
        (out_dir / "manifest.json").unlink(missing_ok=True)
        paths = {rank: out_dir / name for rank, name in names.items()}
        _write_csv(list(paths.values()), axes, values)
        outputs.update(paths)

    record = {
        "seed": config["scenario"]["rng_seed"], "version": __version__, "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(outputs[rank]) for rank in sorted(outputs)],
    }
    text = '{\n  "config": ' + config_text + ",\n" + json.dumps(record, indent=2)[2:] + "\n"
    _write_text([out_dir / "manifest.json"], [text.encode()])
    return {"config": config, **record}


def _spec_as_dict(spec: ExperimentSpec) -> dict:
    """The experiment, its scenario and the fields READS says it reads, in JSON's own types:
    a str for an enum, a list for a tuple, a Python number for a NumPy scalar."""
    fields = {name: _plain(getattr(spec, name)) for name in READS[spec.kind]}
    scenario = {f.name: _plain(getattr(spec.scenario, f.name))
                for f in dataclasses.fields(spec.scenario)}
    return {"experiment": spec.kind.value, "scenario": scenario, **fields}


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, NameEnum):
        return value.value
    return value.item() if isinstance(value, np.generic) else value


# ---------------------------------------------------------------------------
# flat key = value config files
# ---------------------------------------------------------------------------

def _int(text: str) -> int:
    # exact, where a float would run seed 2**53 + 1 as 2**53; a Decimal keeps its exponent
    # apart, so a float's range bounds the digits before int() expands them
    try:
        number = decimal.Decimal(text)
        if number.is_finite() and number.adjusted() < 309 and number == int(number):
            return int(number)
    except decimal.InvalidOperation:
        pass
    raise ValueError(f"not an integer: {text!r}")


def _split(text: str) -> list[str]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return parts


def _dbm(text: str) -> float:
    try:  # a level that overflows is inf, which ScenarioConfig refuses by field
        return 10.0 ** (float(text) / 10.0) * 1e-3
    except OverflowError:
        return math.inf


# Every flat config key: the field it sets wherever it is read (None: READS names the field,
# or, for snr_db, spec_from_values derives total_power_w) and the parser of its text, which
# CLI flags share and which raises ValueError. The typed records convert and bound the values.
KEYS: dict[str, tuple[str | None, Callable[[str], object]]] = {
    "experiment": ("kind", ExperimentKind),
    "methods": (None, _split),  # names; Method takes every spelling
    "seed": ("rng_seed", _int),
    "n_antennas": ("num_antennas", _int),
    "n_subcarriers": ("num_subcarriers", _int),
    "carrier_freq_hz": ("carrier_freq_hz", float),
    "bandwidth_hz": ("total_bandwidth_hz", float),
    "element_spacing_m": ("element_spacing_m", float),
    "beta": ("power_alloc", float),
    "total_power_w": ("total_power_w", float),
    "snr_db": (None, float),
    "noise_bob_dbm": ("noise_power_bob_w", _dbm),
    "noise_eve_dbm": ("noise_power_eve_w", _dbm),
    "bob_theta_deg": ("bob_theta_deg", float),
    "bob_range_m": ("bob_range_m", float),
    "eve_theta_deg": ("eve_theta_deg", float),
    "eve_range_m": ("eve_range_m", float),
    "snr_list": (None, _split),
    "n_list": (None, _split),
    "mc_symbols": (None, _int),
    "gamma_max": (None, float),
    "gamma_points": (None, _int),
    "out_dir": ("output_dir", str),
}

# Which settings each experiment reads, decided here alone: {ExperimentSpec field it reads:
# the key that sets it, or None}, beside kind, scenario and output_dir, which all of them
# read. The manifest records exactly these fields; READ_KEYS below derives the keys.
READS: dict[ExperimentKind, dict[str, str | None]] = {
    ExperimentKind.GAMMA_SURFACE:
        {"gamma_grid_max": "gamma_max", "gamma_grid_points": "gamma_points"},
    ExperimentKind.SINR_SURFACE:
        {"methods": "methods", "theta_grid_deg": None, "range_grid_m": None},
    ExperimentKind.SR_VS_SNR: {"sweep": "snr_list", "methods": "methods"},
    ExperimentKind.SR_VS_N: {"sweep": "n_list", "methods": "methods", "snr_db_list": "snr_list"},
    ExperimentKind.BER_VS_SNR:
        {"sweep": "snr_list", "methods": "methods", "mc_symbols": "mc_symbols"},
}
# each list key: the sweep it gives where it sets one but is not given, and the scenario
# keys it overrides (the SNRs set the transmit power, the counts N)
LISTS = {
    "snr_list": (DEFAULT_SNR_SWEEP_DB, {"snr_db", "total_power_w"}),
    "n_list": (DEFAULT_N_SWEEP, {"n_antennas"}),
}
_OWN = {key for reads in READS.values() for key in reads.values()}
# the keys each experiment reads, in KEYS order: its own, and every key that is no
# experiment's own and that none of its lists overrides; spec_from_values refuses the others
READ_KEYS = {
    kind: tuple(key for key in KEYS if key in reads.values() or key not in _OWN.union(
        *(LISTS[own][1] for own in reads.values() if own in LISTS)))
    for kind, reads in READS.items()
}


def _parse_kv_file(path: str) -> dict[str, str]:
    try:  # universal newlines split lines as iterating the file would; utf-8-sig drops a BOM
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # '#' after a space
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key!r} given twice")
        values[key] = value
    return values


def spec_from_values(values: dict[str, str]) -> ExperimentSpec:
    """Build a validated ExperimentSpec from flat string key-values, applying the
    standard scenario defaults for anything omitted."""
    parsed: dict = {}
    for key, text in values.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            parsed[key] = KEYS[key][1](text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    kind = parsed.get("experiment", ExperimentSpec.kind)
    refused = [key for key in parsed if key not in READ_KEYS[kind]]
    if refused:
        raise ConfigError(f"{kind.command} does not read {', '.join(refused)}")

    fields = {KEYS[key][0]: value for key, value in parsed.items() if KEYS[key][0]}
    fields.update({name: parsed[key] for name, key in READS[kind].items() if key in parsed})
    scenario_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    scenario_kwargs = {n: v for n, v in fields.items() if n in scenario_names}
    spec_kwargs = {n: v for n, v in fields.items() if n not in scenario_names}
    cfg = ScenarioConfig(**scenario_kwargs)
    if "snr_db" in parsed and "total_power_w" in parsed:
        raise ConfigError("snr_db and total_power_w both set the transmit power; give one")
    if "snr_db" in parsed:
        try:
            cfg = dataclasses.replace(cfg, total_power_w=power_for_snr_db(cfg, parsed["snr_db"]))
        except ConfigError as exc:
            raise ConfigError(f"snr_db: {exc}") from exc
    return ExperimentSpec(**spec_kwargs, scenario=cfg)


def load_config(path: str) -> ExperimentSpec:
    """Read a flat key = value config file; an empty file yields the full default spec."""
    return spec_from_values(_parse_kv_file(path))
