import json
import math
import re
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
    run_experiment,
    synthesize,
)
from securebeam.cli import build_parser
from securebeam.cli import main as cli_main
from securebeam.experiments import KEYS, ExperimentSpec, _ber_seed, power_for_snr_db

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# the five small specs of acceptance criterion 10; tests/data/golden holds the
# CSVs they gave before the runner moved to one array path
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


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        assert cfg.bob.angle_deg == pytest.approx(70.0)
        assert cfg.bob.range_m == 1000.0
        assert cfg.eve.angle_deg == pytest.approx(100.0)
        assert cfg.eve.range_m == 750.0
        assert cfg.element_spacing_m == pytest.approx(cfg.wavelength_m / 2.0)
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

    def test_snr_sets_total_power(self, tmp_path):
        spec = load_config(write(tmp_path, "snr_db = 20\n"))
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

    @pytest.mark.parametrize(
        "key", ["n_antennas", "n_subcarriers", "seed", "mc_symbols", "gamma_points", "n_list"]
    )
    def test_non_integral_count_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, f"{key} = 8.9\n"))

    def test_integral_count_in_float_notation_accepted(self, tmp_path):
        spec = load_config(write(tmp_path, "n_antennas = 16.0\nmc_symbols = 1e5\n"))
        assert spec.scenario.num_antennas == 16
        assert spec.mc_symbols == 100_000

    def test_ber_symbol_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="mc_symbols"):
            load_config(write(tmp_path, "experiment = ber_vs_snr\nmc_symbols = 10\n"))

    def test_readme_lists_every_key(self):
        text = README.read_text()
        listed = re.search(r"Recognized keys:(.*?)\.\s", text, re.S).group(1)
        assert set(re.findall(r"`(\w+)`", listed)) == set(KEYS)

    def test_every_cli_flag_sets_a_key(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for parser in sub.choices.values():
            dests = {a.dest for a in parser._actions} - {"help", "config", "grid"}
            assert dests <= set(KEYS)


class TestRunExperiment:
    def test_non_integral_antenna_sweep_rejected(self):
        with pytest.raises(ConfigError, match="n_list"):
            ExperimentSpec(kind=ExperimentKind.SR_VS_N, sweep=(8.9,))

    def test_sr_vs_snr_single_point(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR,
            sweep=(20.0,),
            methods=(Method.MIN_TP,),
            output_dir=str(tmp_path / "out"),
        )
        manifest = run_experiment(spec)
        assert len(manifest.outputs) == 1
        lines = open(manifest.outputs[0]).read().splitlines()
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
            return open(manifest.outputs[0], "rb").read()

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_gamma_surface_schema(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.GAMMA_SURFACE,
            gamma_grid_points=3,
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        lines = open(manifest.outputs[0]).read().splitlines()
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
        lines = open(manifest.outputs[0]).read().splitlines()
        assert lines[0] == "theta_deg,range_m,cm_sinr_db,an_power_db"
        assert len(lines) == 1 + 30

    def test_sr_vs_n_files_per_snr(self, tmp_path):
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_N,
            sweep=(4.0, 8.0),
            methods=(Method.MIN_TP,),
            snr_db_list=(5.0, 15.0),
            output_dir=str(tmp_path),
        )
        manifest = run_experiment(spec)
        assert len(manifest.outputs) == 2
        lines = open(manifest.outputs[0]).read().splitlines()
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
        assert on_disk["outputs"] == list(manifest.outputs)
        assert on_disk["config"]["scenario"]["num_antennas"] == 8

    def test_ber_csv_equals_per_method_calls(self, tmp_path):
        # the runner stacks the methods' beams and shares one draw per SNR point;
        # each value must equal the per-method, per-point call with the same seed
        sweep, n = (0.0, 6.0, 12.0), 20_000
        spec = ExperimentSpec(
            kind=ExperimentKind.BER_VS_SNR, sweep=sweep, mc_symbols=n, output_dir=str(tmp_path)
        )
        run_experiment(spec)
        cfg = spec.scenario
        plan = build_subcarrier_plan(cfg.rng_seed, cfg.num_antennas, cfg.num_subcarriers)
        for m in Method:
            rows = []
            for i, snr_db in enumerate(sweep):
                cfg_p = cfg.replace(total_power_w=power_for_snr_db(cfg, snr_db))
                beams = synthesize(cfg_p, plan, m)
                ber = ber_monte_carlo(cfg_p, plan, beams, cfg.bob, n, _ber_seed(cfg.rng_seed, i))
                rows.append(f"{snr_db:.12g},{ber:.12g}")
            lines = (tmp_path / f"ber_vs_snr_{m.value}.csv").read_text().splitlines()
            assert lines[1:] == rows

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
        names = [Path(p).name for p in manifest.outputs] + ["manifest.json"]
        assert renames == [(name + ".tmp", name) for name in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("kind", list(GOLDEN_SPECS), ids=lambda k: k.value)
    def test_outputs_match_golden(self, tmp_path, kind):
        manifest = run_experiment(
            ExperimentSpec(kind=kind, output_dir=str(tmp_path), **GOLDEN_SPECS[kind])
        )
        golden = GOLDEN / kind.value
        assert sorted(Path(p).name for p in manifest.outputs) == sorted(
            p.name for p in golden.iterdir()
        )
        for path in map(Path, manifest.outputs):
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

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("SECUREBEAM_OUT_DIR", str(target))
        spec = ExperimentSpec(
            kind=ExperimentKind.SR_VS_SNR,
            sweep=(10.0,),
            methods=(Method.EA,),
            output_dir=str(tmp_path / "ignored"),
        )
        manifest = run_experiment(spec)
        assert all(p.startswith(str(target)) for p in manifest.outputs)


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

    def test_infeasible_geometry_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(
            "eve_theta_deg = 70\neve_range_m = 1000\nmethods = min_tp\nsnr_list = 20\n"
        )
        rc = cli_main(
            ["sr-vs-snr", "--config", str(cfgfile), "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

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
        ],
    )
    def test_boundary_input_exit_code(self, tmp_path, capsys, argv, key):
        rc = cli_main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_flags_parsed_like_config_file(self, tmp_path):
        rc = cli_main(
            ["sr-vs-snr", "--n-antennas", "16.0", "--method", "min_tp",
             "--snr-list", "20", "--out", str(tmp_path)]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["num_antennas"] == 16

    def test_gamma_surface_grid_flag(self, tmp_path):
        rc = cli_main(["gamma-surface", "--grid", "2:3", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "gamma_surface_min_rtp.csv").read_text().splitlines()
        assert len(lines) == 1 + 9
