# securebeam/cli.py
"""Command-line entry point: one command per experiment, CSV outputs."""
from __future__ import annotations

import argparse
import functools
import sys

from .beamformers import Method
from .config import ConfigError, InfeasibleGeometryError
from .experiments import (
    KEYS,
    READ_KEYS,
    ExperimentKind,
    _parse_kv_file,
    run_experiment,
    spec_from_values,
)

_SUBCOMMANDS = [kind.command for kind in ExperimentKind]

# flag -> (config key, help); flag text goes through the config-file parsers
_FLAGS = {
    "--method": ("methods", f"comma-separated subset of {','.join(Method)}"),
    "--seed": ("seed", "RNG seed (subcarrier draw and BER noise)"),
    "--out": ("out_dir", "output directory (default 'out')"),
    "--snr-list": ("snr_list", "comma-separated SNR values in dB"),
    "--n-list": ("n_list", "comma-separated antenna counts"),
    "--mc-symbols": ("mc_symbols", "QPSK symbols per BER point"),
    "--beta": ("beta", "power fraction for the message beam"),
    "--n-antennas": ("n_antennas", "number of transmit antennas"),
    "--snr-db": ("snr_db", "fixed SNR in dB"),
}
# the commands that read each key, for its flag's help
_READERS = {
    key: ", ".join(kind.command for kind in ExperimentKind if key in READ_KEYS[kind]) for key in KEYS
}


def build_parser() -> argparse.ArgumentParser:
    # one parser: it parses every flag, and spec_from_values refuses a key the command does
    # not read; each add_argument call costs a help formatter, so five subparsers would
    # add each flag five times
    parser = argparse.ArgumentParser(
        prog="securebeam",
        description="Reproduce secrecy-rate, SINR-field, and BER experiments for "
        "null-steered precise jamming and communication.",
    )
    parser.add_argument("command", choices=_SUBCOMMANDS, help="the experiment to run")
    parser.add_argument("--config", help="flat key = value config file")
    grid_help = f"gamma grid as MAX:POINTS, e.g. 3:31 (read by {_READERS['gamma_max']})"
    parser.add_argument("--grid", help=grid_help)
    for flag, (key, help_text) in _FLAGS.items():
        parser.add_argument(flag, dest=key, help=f"{help_text} (read by {_READERS[key]})")
    return parser


# main's parser, built once per process; build_parser still gives every other caller its own
_parser = functools.cache(build_parser)


def _values_from_args(args: argparse.Namespace) -> dict[str, str]:
    values = _parse_kv_file(args.config) if args.config else {}
    given = values.setdefault("experiment", args.command)  # the file's, in any spelling
    if ExperimentKind(given) is not ExperimentKind(args.command):
        raise ConfigError(f"{args.config}: experiment = {given}, but the command is {args.command}")
    if args.grid is not None:
        try:
            values["gamma_max"], values["gamma_points"] = args.grid.split(":", 1)
        except ValueError as exc:
            raise ConfigError(f"--grid expects MAX:POINTS, got {args.grid!r}") from exc
    values.update(
        {key: getattr(args, key) for key, _ in _FLAGS.values() if getattr(args, key) is not None}
    )
    return values


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = spec_from_values(_values_from_args(args))
        manifest = run_experiment(spec)
    except ConfigError as exc:
        print(f"securebeam: config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleGeometryError as exc:
        print(f"securebeam: infeasible geometry: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"securebeam: i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a count below check_count's bound may still not fit
        print(f"securebeam: out of memory: {exc}", file=sys.stderr)
        return 5
    for path in manifest["outputs"]:
        print(path)
    return 0
