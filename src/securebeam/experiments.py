# securebeam/experiments.py
"""Experiment runner: config ingestion, sweeps, CSV emission, run manifest."""
from __future__ import annotations

import dataclasses
import datetime
import enum
import json
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamformers import DEFAULT_GAMMAS, BeamPair, Method, RegularizationParams, synthesize
from .channel import SubcarrierPlan, build_subcarrier_plan, path_loss
from .config import ConfigError, PolarPosition, ScenarioConfig, dbm_to_watts
from .metrics import ber_monte_carlo, secrecy_rate, sinr_surface
from .search import GammaGrid, grid_search_gamma

OUTPUT_DIR_ENV = "SECUREBEAM_OUT_DIR"

DEFAULT_SNR_SWEEP_DB = tuple(range(0, 31, 2))
DEFAULT_N_SWEEP = (4, 8, 16, 32, 64)
DEFAULT_SR_VS_N_SNRS_DB = (5.0, 15.0, 25.0)
# 181 x 200 angle-range probe grid; hits Bob (70, 1000) and Eve (100, 750) exactly
DEFAULT_THETA_GRID_DEG = (0.0, 180.0, 181)
DEFAULT_RANGE_GRID_M = (500.0, 2987.5, 200)


class ExperimentKind(str, enum.Enum):
    GAMMA_SURFACE = "gamma_surface"
    SINR_SURFACE = "sinr_surface"
    SR_VS_SNR = "sr_vs_snr"
    SR_VS_N = "sr_vs_n"
    BER_VS_SNR = "ber_vs_snr"


def power_for_snr_db(cfg: ScenarioConfig, snr_db: np.ndarray | float) -> np.ndarray | float:
    """Total transmit power giving the requested SNR through Bob's path loss;
    elementwise for an array of SNRs. Rejects an SNR whose power is not finite and > 0."""
    snr = np.asarray(snr_db, dtype=np.float64)
    with np.errstate(over="ignore"):
        power = 10.0 ** (snr[()] / 10.0) * cfg.noise_power_bob_w / path_loss(cfg.bob.range_m)
    bad = snr[~(np.isfinite(power) & (power > 0.0))]
    if bad.size:
        raise ConfigError(f"SNR {bad[0]} dB does not give a finite transmit power > 0")
    return power


@dataclass
class ExperimentSpec:
    """One experiment: which dataset to produce, over which sweep, for which methods."""

    kind: ExperimentKind = ExperimentKind.SR_VS_SNR
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep: tuple[float, ...] = ()  # SNR (dB) or antenna-count axis, kind-dependent
    methods: tuple[Method, ...] = tuple(Method)
    mc_symbols: int = 100_000
    output_dir: str = "out"
    gammas: RegularizationParams = DEFAULT_GAMMAS
    gamma_grid_max: float = 3.0
    gamma_grid_points: int = 31
    snr_db_list: tuple[float, ...] = DEFAULT_SR_VS_N_SNRS_DB  # sr_vs_n only
    theta_grid_deg: tuple[float, float, int] = DEFAULT_THETA_GRID_DEG
    range_grid_m: tuple[float, float, int] = DEFAULT_RANGE_GRID_M

    def __post_init__(self):
        if not self.sweep:
            if self.kind in (ExperimentKind.SR_VS_SNR, ExperimentKind.BER_VS_SNR):
                self.sweep = DEFAULT_SNR_SWEEP_DB
            elif self.kind is ExperimentKind.SR_VS_N:
                self.sweep = DEFAULT_N_SWEEP
            else:
                self.sweep = (0.0,)  # surfaces carry their own grids
        self.sweep = tuple(float(s) for s in self.sweep)
        if self.kind is ExperimentKind.SR_VS_N and not all(n.is_integer() for n in self.sweep):
            raise ConfigError(f"antenna counts (n_list) must be integers, got {self.sweep}")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if self.kind is ExperimentKind.BER_VS_SNR and self.mc_symbols < 1000:
            raise ConfigError(
                f"mc_symbols must be >= 1000 for BER runs, got {self.mc_symbols}"
            )
        if self.gamma_grid_points < 1:
            raise ConfigError(
                f"gamma_grid_points (gamma_points) must be >= 1, got {self.gamma_grid_points}"
            )
        snr_sweep = self.kind in (ExperimentKind.SR_VS_SNR, ExperimentKind.BER_VS_SNR)
        try:
            power_for_snr_db(self.scenario, [*self.snr_db_list, *(self.sweep if snr_sweep else ())])
        except ConfigError as exc:
            raise ConfigError(f"snr_list: {exc}") from exc


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
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_csv(path: Path, header: list[str], columns: list) -> Path:
    """Write equal-size columns, each flattened, as CSV rows of '%.12g' numbers."""
    row = ",".join(["%.12g"] * len(header)) + "\n"
    rows = [row % tuple(r) for r in np.column_stack([np.ravel(c) for c in columns]).tolist()]
    _write_text(path, ",".join(header) + "\n" + "".join(rows))
    return path


def _ber_seed(base_seed: int, sweep_index: int) -> int:
    # one stream per sweep point, shared across methods for paired comparison
    return int(np.random.SeedSequence((base_seed, sweep_index)).generate_state(1)[0])


def _power_sweep(
    spec: ExperimentSpec, cfg: ScenarioConfig, plan: SubcarrierPlan, snrs_db: tuple[float, ...]
) -> BeamPair:
    """Every method's beams at every SNR, stacked as (methods, SNRs, N): every weight
    scales with sqrt(P_s), so each method is synthesized once, at unit power."""
    unit_cfg = cfg.replace(total_power_w=1.0)
    units = [synthesize(unit_cfg, plan, m, spec.gammas) for m in spec.methods]
    scale = np.sqrt(power_for_snr_db(cfg, snrs_db))[:, np.newaxis]
    w_cm = np.array([scale * u.w_cm for u in units])
    return BeamPair(w_cm, np.array([scale * u.w_an for u in units]), method=None)


def _datasets(spec: ExperimentSpec) -> Iterator[tuple[str, list[str], list]]:
    """Compute the experiment, yielding (file name, CSV header, columns) per file."""
    cfg = spec.scenario
    plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
    if spec.kind is ExperimentKind.GAMMA_SURFACE:
        grid = GammaGrid.linear(spec.gamma_grid_max, spec.gamma_grid_points)
        surface = grid_search_gamma(cfg, plan, grid).surface
        gc, ga = np.meshgrid(grid.gamma_cm_values, grid.gamma_an_values, indexing="ij")
        yield "gamma_surface_min_rtp.csv", ["gamma_cm", "gamma_an", "sr"], [gc, ga, surface]

    elif spec.kind is ExperimentKind.SINR_SURFACE:
        theta, ranges = np.linspace(*spec.theta_grid_deg), np.linspace(*spec.range_grid_m)
        header = ["theta_deg", "range_m", "cm_sinr_db", "an_power_db"]
        for method in spec.methods:
            beams = synthesize(cfg, plan, method, spec.gammas)
            surface = sinr_surface(cfg, plan, beams, theta, ranges, cfg.noise_power_bob_w)
            yield f"sinr_surface_{method.value}.csv", header, list(surface.values.T)

    elif spec.kind is ExperimentKind.SR_VS_SNR:
        rates = secrecy_rate(cfg, plan, _power_sweep(spec, cfg, plan, spec.sweep))
        for method, sr in zip(spec.methods, rates):
            yield f"sr_vs_snr_{method.value}.csv", ["snr_db", "sr_bits"], [spec.sweep, sr]

    elif spec.kind is ExperimentKind.SR_VS_N:
        rates = []  # per antenna count: (methods, SNRs)
        for n in spec.sweep:
            cfg_n = cfg.replace(num_antennas=int(n))
            plan = build_subcarrier_plan(cfg.rng_seed, int(n), cfg.num_subcarriers)
            beams = _power_sweep(spec, cfg_n, plan, spec.snr_db_list)
            rates.append(secrecy_rate(cfg_n, plan, beams))
        for j, snr_db in enumerate(spec.snr_db_list):
            for k, method in enumerate(spec.methods):
                name = f"sr_vs_n_{method.value}_snr{snr_db:.12g}db.csv"
                yield name, ["n", "sr_bits"], [spec.sweep, np.array(rates)[:, k, j]]

    elif spec.kind is ExperimentKind.BER_VS_SNR:
        beams = _power_sweep(spec, cfg, plan, spec.sweep)
        # one draw of bits, jamming and noise per SNR point, shared by every method
        ber = np.transpose([
            ber_monte_carlo(
                cfg, plan, BeamPair(beams.w_cm[:, i], beams.w_an[:, i], method=None),
                cfg.bob, spec.mc_symbols, _ber_seed(cfg.rng_seed, i),
            )
            for i in range(len(spec.sweep))
        ])
        for method, rates in zip(spec.methods, ber):
            yield f"ber_vs_snr_{method.value}.csv", ["snr_db", "ber"], [spec.sweep, rates]


def run_experiment(spec: ExperimentSpec) -> RunManifest:
    """Run one experiment, write one CSV per method plus a manifest, return the manifest."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, spec.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [_write_csv(out_dir / name, header, cols) for name, header, cols in _datasets(spec)]

    manifest = RunManifest(
        config=_spec_as_dict(spec), seed=spec.scenario.rng_seed, version=__version__,
        started_at=started, finished_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs=tuple(str(p) for p in outputs),
    )
    text = json.dumps(dataclasses.asdict(manifest), indent=2) + "\n"
    _write_text(out_dir / "manifest.json", text)
    return manifest


def _spec_as_dict(spec: ExperimentSpec) -> dict:
    scenario: dict = {}
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(spec.scenario, f.name)
        if isinstance(value, PolarPosition):
            scenario[f"{f.name}_theta_deg"] = value.angle_deg
            scenario[f"{f.name}_range_m"] = value.range_m
        else:
            scenario[f.name] = value
    return {
        "experiment": spec.kind.value,
        "methods": [m.value for m in spec.methods],
        "sweep": list(spec.sweep),
        "mc_symbols": spec.mc_symbols,
        "gamma_cm": spec.gammas.gamma_cm,
        "gamma_an": spec.gammas.gamma_an,
        "scenario": scenario,
    }


# ---------------------------------------------------------------------------
# flat key = value config files
# ---------------------------------------------------------------------------

# "min_tp", "min-tp" and "mintp" all name Method.MIN_TP
_METHOD_NAMES = {m.value.replace("_", ""): m for m in Method}


def _int(text: str) -> int:
    number = float(text)
    if not number.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(number)


def _split(text: str) -> list[str]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return parts


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _split(text))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(_int(part) for part in _split(text))


def _dbm(text: str) -> float:
    return dbm_to_watts(float(text))


def _kind(text: str) -> ExperimentKind:
    return ExperimentKind(text.strip().lower().replace("-", "_"))


def _methods(text: str) -> tuple[Method, ...]:
    methods = []
    for part in _split(text):
        name = part.lower().replace("-", "").replace("_", "")
        if name not in _METHOD_NAMES:
            raise ValueError(f"unknown method {part!r}")
        methods.append(_METHOD_NAMES[name])
    return tuple(methods)


# Every flat config key: the ScenarioConfig or ExperimentSpec field it sets
# (None for the keys spec_from_values combines itself) and the parser of its
# text. Parsers raise ValueError; CLI flags go through the same parsers.
KEYS: dict[str, tuple[str | None, Callable[[str], object]]] = {
    "experiment": ("kind", _kind),
    "methods": ("methods", _methods),
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
    "bob_theta_deg": (None, float),
    "bob_range_m": (None, float),
    "eve_theta_deg": (None, float),
    "eve_range_m": (None, float),
    "snr_list": (None, _floats),
    "n_list": (None, _ints),
    "mc_symbols": ("mc_symbols", _int),
    "gamma_cm": (None, float),
    "gamma_an": (None, float),
    "gamma_max": ("gamma_grid_max", float),
    "gamma_points": ("gamma_grid_points", _int),
    "out_dir": ("output_dir", str),
}


def _parse_kv_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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
    get = parsed.get

    fields = {KEYS[key][0]: value for key, value in parsed.items() if KEYS[key][0]}
    scenario_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    scenario_kwargs = {n: v for n, v in fields.items() if n in scenario_names}
    spec_kwargs = {n: v for n, v in fields.items() if n not in scenario_names}

    scenario_kwargs["bob"] = PolarPosition.from_degrees(
        get("bob_theta_deg", 70.0), get("bob_range_m", 1000.0)
    )
    scenario_kwargs["eve"] = PolarPosition.from_degrees(
        get("eve_theta_deg", 100.0), get("eve_range_m", 750.0)
    )
    cfg = ScenarioConfig(**scenario_kwargs)
    if "snr_db" in parsed and "total_power_w" not in parsed:
        try:
            cfg = cfg.replace(total_power_w=power_for_snr_db(cfg, parsed["snr_db"]))
        except ConfigError as exc:
            raise ConfigError(f"snr_db: {exc}") from exc
    spec_kwargs["scenario"] = cfg

    spec_kwargs["gammas"] = RegularizationParams(
        gamma_cm=get("gamma_cm", DEFAULT_GAMMAS.gamma_cm),
        gamma_an=get("gamma_an", DEFAULT_GAMMAS.gamma_an),
    )
    kind = spec_kwargs.get("kind", ExperimentSpec.kind)
    if kind is ExperimentKind.SR_VS_N:
        spec_kwargs["sweep"] = get("n_list", ())
        spec_kwargs["snr_db_list"] = get("snr_list", DEFAULT_SR_VS_N_SNRS_DB)
    elif kind in (ExperimentKind.SR_VS_SNR, ExperimentKind.BER_VS_SNR):
        spec_kwargs["sweep"] = get("snr_list", ())
    return ExperimentSpec(**spec_kwargs)


def load_config(path: str) -> ExperimentSpec:
    """Read a flat key = value config file; an empty file yields the full default spec."""
    return spec_from_values(_parse_kv_file(path))
