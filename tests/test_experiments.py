import json
import re
from pathlib import Path

import pytest

from securebeam import ConfigError, ExperimentKind, Method, load_config, run_experiment
from securebeam.cli import build_parser
from securebeam.cli import main as cli_main
from securebeam.experiments import KEYS, ExperimentSpec, power_for_snr_db

README = Path(__file__).resolve().parents[1] / "README.md"


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
