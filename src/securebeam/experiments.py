# securebeam/experiments.py
"""Experiment runner: config ingestion, sweeps, CSV emission, run manifest."""
from __future__ import annotations

import dataclasses
import datetime
import enum
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamformers import DEFAULT_GAMMAS, Method, RegularizationParams, synthesize
from .channel import build_subcarrier_plan, path_loss
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


ALL_METHODS = (Method.EA, Method.MIN_TP, Method.MIN_RTP)


def power_for_snr_db(cfg: ScenarioConfig, snr_db: float) -> float:
    """Total transmit power giving the requested SNR through Bob's path loss."""
    return 10.0 ** (snr_db / 10.0) * cfg.noise_power_bob_w / path_loss(cfg.bob.range_m)


@dataclass
class ExperimentSpec:
    """One experiment: which dataset to produce, over which sweep, for which methods."""

    kind: ExperimentKind = ExperimentKind.SR_VS_SNR
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep: tuple[float, ...] = ()  # SNR (dB) or antenna-count axis, kind-dependent
    methods: tuple[Method, ...] = ALL_METHODS
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
                self.sweep = tuple(float(s) for s in DEFAULT_SNR_SWEEP_DB)
            elif self.kind is ExperimentKind.SR_VS_N:
                self.sweep = tuple(float(n) for n in DEFAULT_N_SWEEP)
            else:
                self.sweep = (0.0,)  # surfaces carry their own grids
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if self.kind is ExperimentKind.BER_VS_SNR and self.mc_symbols < 1000:
            raise ConfigError(
                f"mc_symbols must be >= 1000 for BER runs, got {self.mc_symbols}"
            )


@dataclass(frozen=True)
class RunManifest:
    config: dict
    seed: int
    version: str
    started_at: str
    finished_at: str
    outputs: tuple[str, ...]


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _linspace(spec: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = spec
    return np.linspace(lo, hi, int(count))


def _gammas_for(spec: ExperimentSpec, method: Method) -> RegularizationParams | None:
    return spec.gammas if method is Method.MIN_RTP else None


def _ber_seed(base_seed: int, sweep_index: int) -> int:
    # one stream per sweep point, shared across methods for paired comparison
    return int(np.random.SeedSequence((base_seed, sweep_index)).generate_state(1)[0])


def run_experiment(spec: ExperimentSpec) -> RunManifest:
    """Run one experiment, write one CSV per method plus a manifest, return the manifest."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, spec.output_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = spec.scenario
    outputs: list[Path] = []

    if spec.kind is ExperimentKind.GAMMA_SURFACE:
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        grid = GammaGrid.linear(spec.gamma_grid_max, spec.gamma_grid_points)
        result = grid_search_gamma(cfg, plan, grid)
        gc, ga = np.meshgrid(grid.gamma_cm_values, grid.gamma_an_values, indexing="ij")
        rows = np.column_stack([gc.ravel(), ga.ravel(), result.surface.ravel()]).tolist()
        path = out_dir / "gamma_surface_min_rtp.csv"
        _write_csv(path, ["gamma_cm", "gamma_an", "sr"], rows)
        outputs.append(path)

    elif spec.kind is ExperimentKind.SINR_SURFACE:
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        theta = _linspace(spec.theta_grid_deg)
        ranges = _linspace(spec.range_grid_m)
        for method in spec.methods:
            beams = synthesize(cfg, plan, method, _gammas_for(spec, method))
            samples = sinr_surface(cfg, plan, beams, theta, ranges, cfg.noise_power_bob_w)
            rows = [
                [s.theta_deg, s.range_m, s.cm_sinr_db, s.an_power_db] for s in samples
            ]
            path = out_dir / f"sinr_surface_{method.value}.csv"
            _write_csv(path, ["theta_deg", "range_m", "cm_sinr_db", "an_power_db"], rows)
            outputs.append(path)

    elif spec.kind is ExperimentKind.SR_VS_SNR:
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        for method in spec.methods:
            rows = []
            for snr_db in spec.sweep:
                cfg_p = cfg.replace(total_power_w=power_for_snr_db(cfg, snr_db))
                beams = synthesize(cfg_p, plan, method, _gammas_for(spec, method))
                rows.append([float(snr_db), secrecy_rate(cfg_p, plan, beams)])
            path = out_dir / f"sr_vs_snr_{method.value}.csv"
            _write_csv(path, ["snr_db", "sr_bits"], rows)
            outputs.append(path)

    elif spec.kind is ExperimentKind.SR_VS_N:
        for snr_db in spec.snr_db_list:
            for method in spec.methods:
                rows = []
                for n_f in spec.sweep:
                    n = int(n_f)
                    cfg_n = cfg.replace(
                        num_antennas=n,
                        element_spacing_m=cfg.element_spacing_m,
                        total_power_w=power_for_snr_db(cfg, snr_db),
                    )
                    plan = build_subcarrier_plan(cfg.rng_seed, n, cfg.num_subcarriers)
                    beams = synthesize(cfg_n, plan, method, _gammas_for(spec, method))
                    rows.append([float(n), secrecy_rate(cfg_n, plan, beams)])
                path = out_dir / f"sr_vs_n_{method.value}_snr{_fmt(float(snr_db))}db.csv"
                _write_csv(path, ["n", "sr_bits"], rows)
                outputs.append(path)

    elif spec.kind is ExperimentKind.BER_VS_SNR:
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        for method in spec.methods:
            rows = []
            for i, snr_db in enumerate(spec.sweep):
                cfg_p = cfg.replace(total_power_w=power_for_snr_db(cfg, snr_db))
                beams = synthesize(cfg_p, plan, method, _gammas_for(spec, method))
                ber = ber_monte_carlo(
                    cfg_p, plan, beams, cfg.bob, spec.mc_symbols, _ber_seed(cfg.rng_seed, i)
                )
                rows.append([float(snr_db), float(ber)])
            path = out_dir / f"ber_vs_snr_{method.value}.csv"
            _write_csv(path, ["snr_db", "ber"], rows)
            outputs.append(path)

    else:
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")

    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = RunManifest(
        config=_spec_as_dict(spec),
        seed=cfg.rng_seed,
        version=__version__,
        started_at=started,
        finished_at=finished,
        outputs=tuple(str(p) for p in outputs),
    )
    manifest_path = out_dir / "manifest.json"
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(dataclasses.asdict(manifest), indent=2) + "\n")
    tmp.replace(manifest_path)
    return manifest


def _spec_as_dict(spec: ExperimentSpec) -> dict:
    cfg = spec.scenario
    return {
        "experiment": spec.kind.value,
        "methods": [m.value for m in spec.methods],
        "sweep": list(spec.sweep),
        "mc_symbols": spec.mc_symbols,
        "gamma_cm": spec.gammas.gamma_cm,
        "gamma_an": spec.gammas.gamma_an,
        "scenario": {
            "num_antennas": cfg.num_antennas,
            "num_subcarriers": cfg.num_subcarriers,
            "carrier_freq_hz": cfg.carrier_freq_hz,
            "total_bandwidth_hz": cfg.total_bandwidth_hz,
            "element_spacing_m": cfg.element_spacing_m,
            "power_alloc": cfg.power_alloc,
            "total_power_w": cfg.total_power_w,
            "noise_power_bob_w": cfg.noise_power_bob_w,
            "noise_power_eve_w": cfg.noise_power_eve_w,
            "bob_theta_deg": cfg.bob.angle_deg,
            "bob_range_m": cfg.bob.range_m,
            "eve_theta_deg": cfg.eve.angle_deg,
            "eve_range_m": cfg.eve.range_m,
            "rng_seed": cfg.rng_seed,
        },
    }


# ---------------------------------------------------------------------------
# flat key = value config files
# ---------------------------------------------------------------------------

_METHOD_ALIASES = {
    "ea": Method.EA,
    "min_tp": Method.MIN_TP,
    "min-tp": Method.MIN_TP,
    "mintp": Method.MIN_TP,
    "min_rtp": Method.MIN_RTP,
    "min-rtp": Method.MIN_RTP,
    "minrtp": Method.MIN_RTP,
}

_KIND_ALIASES = {k.value: k for k in ExperimentKind}
_KIND_ALIASES.update({k.value.replace("_", "-"): k for k in ExperimentKind})

_SCALAR_KEYS = {
    "n_antennas",
    "n_subcarriers",
    "carrier_freq_hz",
    "bandwidth_hz",
    "element_spacing_m",
    "beta",
    "total_power_w",
    "snr_db",
    "noise_bob_dbm",
    "noise_eve_dbm",
    "bob_theta_deg",
    "bob_range_m",
    "eve_theta_deg",
    "eve_range_m",
    "seed",
    "mc_symbols",
    "gamma_cm",
    "gamma_an",
    "gamma_max",
    "gamma_points",
}
_LIST_KEYS = {"snr_list", "n_list"}
_TEXT_KEYS = {"experiment", "methods", "out_dir"}
KNOWN_KEYS = _SCALAR_KEYS | _LIST_KEYS | _TEXT_KEYS


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
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {values[key]!r}") from exc


def _int(values: dict[str, str], key: str) -> int:
    number = _float(values, key)
    if not number.is_integer():
        raise ConfigError(f"{key}: not an integer: {values[key]!r}")
    return int(number)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"not a number list: {text!r}") from exc


def spec_from_values(values: dict[str, str]) -> ExperimentSpec:
    """Build a validated ExperimentSpec from flat string key-values, applying the
    standard scenario defaults for anything omitted."""
    scenario_kwargs: dict = {}
    if "n_antennas" in values:
        scenario_kwargs["num_antennas"] = _int(values, "n_antennas")
    if "n_subcarriers" in values:
        scenario_kwargs["num_subcarriers"] = _int(values, "n_subcarriers")
    if "carrier_freq_hz" in values:
        scenario_kwargs["carrier_freq_hz"] = _float(values, "carrier_freq_hz")
    if "bandwidth_hz" in values:
        scenario_kwargs["total_bandwidth_hz"] = _float(values, "bandwidth_hz")
    if "element_spacing_m" in values:
        scenario_kwargs["element_spacing_m"] = _float(values, "element_spacing_m")
    if "beta" in values:
        scenario_kwargs["power_alloc"] = _float(values, "beta")
    if "total_power_w" in values:
        scenario_kwargs["total_power_w"] = _float(values, "total_power_w")
    if "noise_bob_dbm" in values:
        scenario_kwargs["noise_power_bob_w"] = dbm_to_watts(_float(values, "noise_bob_dbm"))
    if "noise_eve_dbm" in values:
        scenario_kwargs["noise_power_eve_w"] = dbm_to_watts(_float(values, "noise_eve_dbm"))
    if "seed" in values:
        scenario_kwargs["rng_seed"] = _int(values, "seed")
    bob_theta = _float(values, "bob_theta_deg") if "bob_theta_deg" in values else 70.0
    bob_range = _float(values, "bob_range_m") if "bob_range_m" in values else 1000.0
    eve_theta = _float(values, "eve_theta_deg") if "eve_theta_deg" in values else 100.0
    eve_range = _float(values, "eve_range_m") if "eve_range_m" in values else 750.0
    scenario_kwargs["bob"] = PolarPosition.from_degrees(bob_theta, bob_range)
    scenario_kwargs["eve"] = PolarPosition.from_degrees(eve_theta, eve_range)
    cfg = ScenarioConfig(**scenario_kwargs)

    if "snr_db" in values and "total_power_w" not in values:
        cfg = cfg.replace(
            total_power_w=power_for_snr_db(cfg, _float(values, "snr_db")),
            element_spacing_m=cfg.element_spacing_m,
        )

    kind = ExperimentKind.SR_VS_SNR
    if "experiment" in values:
        name = values["experiment"].strip().lower()
        if name not in _KIND_ALIASES:
            raise ConfigError(f"experiment: unknown kind {values['experiment']!r}")
        kind = _KIND_ALIASES[name]

    methods = ALL_METHODS
    if "methods" in values:
        parsed = []
        for part in values["methods"].replace(",", " ").split():
            if part.lower() not in _METHOD_ALIASES:
                raise ConfigError(f"methods: unknown method {part!r}")
            parsed.append(_METHOD_ALIASES[part.lower()])
        methods = tuple(parsed)

    sweep: tuple[float, ...] = ()
    if kind in (ExperimentKind.SR_VS_SNR, ExperimentKind.BER_VS_SNR) and "snr_list" in values:
        sweep = _float_list(values["snr_list"])
    if kind is ExperimentKind.SR_VS_N and "n_list" in values:
        sweep = _float_list(values["n_list"])

    spec_kwargs: dict = {
        "kind": kind,
        "scenario": cfg,
        "sweep": sweep,
        "methods": methods,
    }
    if "mc_symbols" in values:
        spec_kwargs["mc_symbols"] = _int(values, "mc_symbols")
    if "out_dir" in values:
        spec_kwargs["output_dir"] = values["out_dir"]
    if "gamma_cm" in values or "gamma_an" in values:
        spec_kwargs["gammas"] = RegularizationParams(
            gamma_cm=_float(values, "gamma_cm") if "gamma_cm" in values else DEFAULT_GAMMAS.gamma_cm,
            gamma_an=_float(values, "gamma_an") if "gamma_an" in values else DEFAULT_GAMMAS.gamma_an,
        )
    if "gamma_max" in values:
        spec_kwargs["gamma_grid_max"] = _float(values, "gamma_max")
    if "gamma_points" in values:
        spec_kwargs["gamma_grid_points"] = _int(values, "gamma_points")
    if kind is ExperimentKind.SR_VS_N and "snr_list" in values:
        spec_kwargs["snr_db_list"] = _float_list(values["snr_list"])
    return ExperimentSpec(**spec_kwargs)


def load_config(path: str) -> ExperimentSpec:
    """Read a flat key = value config file; an empty file yields the full default spec."""
    return spec_from_values(_parse_kv_file(path))
