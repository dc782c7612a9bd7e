# securebeam/experiments.py
"""Experiment runner: config ingestion, sweeps, CSV emission, run manifest."""
from __future__ import annotations

import dataclasses
import datetime
import decimal
import json
import math
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamformers import BeamPair, Method, synthesize
from .channel import build_subcarrier_plan
from .config import ConfigError, NameEnum, ScenarioConfig, check_count, dbm_to_watts, path_loss
from .metrics import ber_sweep, secrecy_rate, sinr_surface
from .search import GammaGrid, grid_search_gamma

DEFAULT_SNR_SWEEP_DB = tuple(range(0, 31, 2))
DEFAULT_N_SWEEP = (4, 8, 16, 32, 64)
DEFAULT_SR_VS_N_SNRS_DB = (5.0, 15.0, 25.0)
# 181 x 200 angle-range probe grid; hits the default Bob and Eve positions exactly
DEFAULT_THETA_GRID_DEG = (0.0, 180.0, 181)
DEFAULT_RANGE_GRID_M = (500.0, 2987.5, 200)


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
        for name, key in READS[self.kind].items():  # its lists, as the CLI parsers give them
            if key not in LISTS and key != "methods":
                continue
            try:  # Method members or floats; an empty sweep is its list key's default
                values = tuple(map(Method if key == "methods" else float, getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
            values = values or (tuple(map(float, LISTS[key][0])) if name == "sweep" else ())
            setattr(self, name, values)
            try:  # '%.12g' names the files and prints the rows, so alike entries would clash
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
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if len(set(self.methods)) < len(self.methods):  # the list loop refuses an empty one
            raise ConfigError(f"methods must be nonempty and distinct, got {self.methods}")
        check_count("mc_symbols", self.mc_symbols, 1000)
        check_count("gamma_grid_points (gamma_points)", self.gamma_grid_points, 1)
        top, points = self.gamma_grid_max, self.gamma_grid_points
        # the grid linspace(0, top, points) must be finite and end at top; one point is just 0
        if not (math.isfinite(top) and top >= 0.0 and (top == 0.0) == (points == 1)):
            raise ConfigError(f"gamma_max must be 0 for 1 point, else finite and > 0, got {top}")
        for name in ("theta_grid_deg", "range_grid_m"):
            setattr(self, name, _grid(name, getattr(self, name)))


@dataclass(frozen=True)
class RunManifest:
    config: dict
    seed: int
    version: str
    started_at: str
    finished_at: str
    outputs: tuple[str, ...]


def _write_text(path: Path, text: str) -> None:
    """Write through <name>.tmp and a rename, so a reader never sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)  # at the first write: a failed run makes none
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_csv(paths: list[Path], axes: dict, values: dict) -> None:
    """Write values on the axes' grid (first axis slowest) as '%.12g' CSV rows to every path."""
    # axis values are formatted once; a '%.12g' number needs no '%' escape
    *outer, last = (["%.12g," % a for a in np.ravel(axis).tolist()] for axis in axes.values())
    prefixes = [""]  # one per point of the outer axes; a lone axis has the one empty prefix
    for cells in outer:
        prefixes = [p + c for p in prefixes for c in cells]
    size = len(prefixes) * len(last)
    if any(np.size(v) != size for v in values.values()):
        raise ValueError(f"values must have one entry per grid point ({size})")
    fill = ",".join(["%.12g"] * len(values)) + "\n"
    rows = ["", *(c + fill for c in last)]  # p.join(rows) puts p before every row, in C
    template = "".join([p.join(rows) for p in prefixes])
    flat = np.column_stack([np.ravel(v) for v in values.values()]).ravel().tolist()
    text = ",".join([*axes, *values]) + "\n" + template % tuple(flat)
    for path in paths:
        _write_text(path, text)


def _distinct(pairs: list[BeamPair]) -> tuple[list[BeamPair], list[int]]:
    """The pairs without repeats, in order of first appearance, and each pair's position among
    them. Only bit-identical weights repeat, so one computation serves every pair it stands for."""
    keys = [p.w_cm.tobytes() + p.w_an.tobytes() for p in pairs]
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
    spec: ExperimentSpec, cfg: ScenarioConfig, plan: np.ndarray, snrs_db: tuple[float, ...]
) -> tuple[BeamPair, list[int]]:
    """The methods' distinct beams at every SNR, stacked as (pairs, SNRs, N), and each method's
    position in the stack: every weight scales with sqrt(P_s), so each is built at unit power."""
    unit_cfg = dataclasses.replace(cfg, total_power_w=1.0)
    units, index = _distinct([synthesize(unit_cfg, plan, m) for m in spec.methods])
    scale = np.sqrt(power_for_snr_db(cfg, snrs_db))[:, np.newaxis]
    w_cm = np.array([scale * u.w_cm for u in units])
    return BeamPair(w_cm, np.array([scale * u.w_an for u in units])), index


def _datasets(spec: ExperimentSpec) -> Iterator[tuple[dict, dict, dict]]:
    """Compute the experiment, yielding per distinct dataset ({position in the manifest: name}
    of each file that holds it, 1-D axes, values on their grid)."""
    cfg = spec.scenario
    if spec.kind is ExperimentKind.SR_VS_N:  # one plan per antenna count
        rates = []  # per antenna count: (methods, SNRs); transposed, (SNRs, methods, Ns)
        for n in spec.sweep:
            cfg_n = dataclasses.replace(cfg, num_antennas=int(n))
            plan = build_subcarrier_plan(cfg.rng_seed, int(n), cfg.num_subcarriers)
            beams, index = _power_sweep(spec, cfg_n, plan, spec.snr_db_list)
            rates.append(secrecy_rate(cfg_n, plan, beams)[index])
        for s, (snr_db, by_method) in enumerate(zip(spec.snr_db_list, np.array(rates).T)):
            for i, (method, sr) in enumerate(zip(spec.methods, by_method)):
                name = f"sr_vs_n_{method.value}_snr{snr_db:.12g}db.csv"
                yield {(s, i): name}, {"n": spec.sweep}, {"sr_bits": sr}
        return

    plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
    if spec.kind is ExperimentKind.GAMMA_SURFACE:
        grid = GammaGrid.linear(spec.gamma_grid_max, spec.gamma_grid_points)
        surface = grid_search_gamma(cfg, plan, grid).surface
        axes = {"gamma_cm": grid.gamma_cm_values, "gamma_an": grid.gamma_an_values}
        yield {0: "gamma_surface_min_rtp.csv"}, axes, {"sr": surface}

    elif spec.kind is ExperimentKind.SINR_SURFACE:
        theta, ranges = np.linspace(*spec.theta_grid_deg), np.linspace(*spec.range_grid_m)
        # every beam is built before the first file is written, so an infeasible
        # method leaves no partial output behind
        pairs, index = _distinct([synthesize(cfg, plan, m) for m in spec.methods])
        for k, beams in enumerate(pairs):
            surface = sinr_surface(cfg, plan, beams, theta, ranges)
            values = {n: surface[n] for n in surface.dtype.names}
            yield _shared(spec, index, k), {"theta_deg": theta, "range_m": ranges}, values

    else:  # SR_VS_SNR or BER_VS_SNR
        beams, index = _power_sweep(spec, cfg, plan, spec.sweep)
        if spec.kind is ExperimentKind.SR_VS_SNR:
            column, rates = "sr_bits", secrecy_rate(cfg, plan, beams)
        else:  # one draw of bits, jamming and noise per SNR point, shared by every method
            seeds = [_ber_seed(cfg.rng_seed, i) for i in range(len(spec.sweep))]
            column, rates = "ber", ber_sweep(cfg, plan, beams, cfg.bob, spec.mc_symbols, seeds)
        for k, values in enumerate(rates):
            yield _shared(spec, index, k), {"snr_db": spec.sweep}, {column: values}


def run_experiment(spec: ExperimentSpec) -> RunManifest:
    """Run one experiment, write one CSV per method plus a manifest, return the manifest."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    # encoded before the first write, so no CSV is left beside an earlier run's manifest
    config = json.loads(json.dumps(_spec_as_dict(spec), default=np.generic.item))
    out_dir = Path(spec.output_dir)
    outputs = {}  # position in the manifest -> path
    for names, axes, values in _datasets(spec):
        paths = {rank: out_dir / name for rank, name in names.items()}
        _write_csv(list(paths.values()), axes, values)
        outputs.update(paths)

    manifest = RunManifest(
        config=config, seed=config["scenario"]["rng_seed"], version=__version__,
        started_at=started, finished_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=tuple(str(outputs[rank]) for rank in sorted(outputs)),
    )
    text = json.dumps(vars(manifest), indent=2) + "\n"
    _write_text(out_dir / "manifest.json", text)
    return manifest


def _spec_as_dict(spec: ExperimentSpec) -> dict:
    """The experiment, its scenario and the fields READS says it reads; enums are str."""
    fields = {name: getattr(spec, name) for name in READS[spec.kind]}
    return {"experiment": spec.kind, "scenario": dataclasses.asdict(spec.scenario), **fields}


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


def _count(text: str) -> int:
    # counts size numpy arrays and draws, whose sizes are int64
    number = _int(text)
    if abs(number) >= 2**63:
        raise ValueError(f"{text.strip()} does not fit in int64")
    return number


def _split(text: str) -> list[str]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return parts


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _split(text))


def _counts(text: str) -> tuple[int, ...]:
    return tuple(_count(part) for part in _split(text))


def _dbm(text: str) -> float:
    return dbm_to_watts(float(text))


# Every flat config key: the field it sets wherever it is read (None: READS names the field,
# or, for snr_db, spec_from_values derives total_power_w) and the parser of its text.
# Parsers raise ValueError; CLI flags go through the same parsers.
KEYS: dict[str, tuple[str | None, Callable[[str], object]]] = {
    "experiment": ("kind", ExperimentKind),
    "methods": (None, _split),  # names; Method takes every spelling
    "seed": ("rng_seed", _int),
    "n_antennas": ("num_antennas", _count),
    "n_subcarriers": ("num_subcarriers", _count),
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
    "snr_list": (None, _floats),
    "n_list": (None, _counts),
    "mc_symbols": (None, _count),
    "gamma_max": (None, float),
    "gamma_points": (None, _count),
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
    try:  # read_text's universal newlines split lines as iterating the file would
        lines = Path(path).read_text(encoding="utf-8").split("\n")
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
