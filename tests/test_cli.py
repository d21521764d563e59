"""CLI tests: argument handling, outputs, determinism, exit codes."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from twoatomcavity import cli
from twoatomcavity.errors import DegenerateRoots


def run_cli(args: list[str]) -> int:
    return cli.main(args)


class TestArgumentHandling:
    def test_invalid_flag_exits_1(self, capsys):
        assert run_cli(["--no-such-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_mode_exits_1(self):
        assert run_cli(["--mode", "plot"]) == 1

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "twoatomcavity" in capsys.readouterr().out

    def test_negative_photon_number_exits_1(self, capsys):
        assert run_cli(["--n-photon", "-2"]) == 1
        assert "n_photon" in capsys.readouterr().err

    def test_bad_steps_exits_1(self):
        assert run_cli(["--steps", "1"]) == 1

    def test_bad_tau_max_exits_1(self):
        assert run_cli(["--tau-max", "0"]) == 1

    def test_sweep_requires_valid_param(self, capsys):
        assert run_cli(["--sweep", "coupling:0:1:3"]) == 1
        assert "sweep parameter" in capsys.readouterr().err

    def test_sweep_malformed_exits_1(self):
        assert run_cli(["--sweep", "delta:0:1"]) == 1

    def test_sweep_mode_without_spec_exits_1(self):
        assert run_cli(["--mode", "sweep"]) == 1

    def test_sweep_spec_in_audit_mode_exits_1(self):
        assert run_cli(["--mode", "audit", "--sweep", "delta:0:1:3"]) == 1

    def test_custom_initial_requires_amplitudes(self, capsys):
        assert run_cli(["--initial", "custom"]) == 1
        assert "amplitudes" in capsys.readouterr().err

    def test_custom_amplitudes_must_be_normalized(self, capsys):
        assert run_cli(["--initial", "custom", "--amplitudes", "1,1,1,0"]) == 1
        assert "norm" in capsys.readouterr().err

    def test_custom_amplitudes_wrong_count(self):
        assert run_cli(["--initial", "custom", "--amplitudes", "1,0,1"]) == 1

    def test_custom_amplitudes_unparseable(self):
        assert run_cli(["--initial", "custom", "--amplitudes", "a,b,c,d"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--delta", "nan"],
            ["--tau-max", "inf"],
            ["--initial", "custom", "--amplitudes", "1,0,nan,1"],
            ["--fock-cutoff", "2"],
            ["--sweep", "n_photon:0:9:3", "--fock-cutoff", "12"],
            ["--sweep", "delta:nan:1:3"],
        ],
        ids=" ".join,
    )
    def test_non_finite_or_undersized_input_exits_1(self, argv, capsys, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_system_exits_1(self, capsys):
        assert run_cli(["--n-photon", "20"]) == 1
        assert "maximum" in capsys.readouterr().err


class TestSeriesMode:
    def test_writes_expected_header_and_rows(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            ["--delta", "0.5", "--steps", "5", "--tau-max", "2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,p_ee,p_eg,p_ge,p_gg,negativity,class"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0.00000000000e+00"
        assert first[1] == "1.00000000000e+00"
        assert first[6] == "separable"

    def test_float_format_is_lowercase_scientific(self, tmp_path):
        out = tmp_path / "series.csv"
        run_cli(["--steps", "3", "--tau-max", "1", "--output", str(out)])
        body = out.read_text()
        assert "e+" in body or "e-" in body
        assert "E+" not in body and "E-" not in body

    def test_stationary_example_rows_identical(self, tmp_path):
        # Two grid points from the no-photon ground pair: nothing moves, so
        # the rows agree in every column except the time stamp.
        out = tmp_path / "series.csv"
        code = run_cli(
            ["--initial", "gg", "--n-photon", "0", "--steps", "2", "--output", str(out)]
        )
        assert code == 0
        row1, row2 = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert row1[1:] == row2[1:]
        assert row1[0] != row2[0]

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["--preset", "fig1b", "--steps", "101"]
        assert run_cli(args + ["--output", str(first)]) == 0
        assert run_cli(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_custom_initial_runs(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            [
                "--initial",
                "custom",
                "--amplitudes",
                "0.6,0.8,0.6,0.8",
                "--steps",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        assert first[1] == "4.09600000000e-01"  # |b1*b2|^2 = (0.8 * 0.8)^2

    def test_emitted_negativity_stays_in_bounds(self, tmp_path):
        out = tmp_path / "series.csv"
        run_cli(["--preset", "fig4a_caption", "--steps", "201", "--output", str(out)])
        for line in out.read_text().splitlines()[1:]:
            value = float(line.split(",")[5])
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_matches_golden_file(self, tmp_path, data_dir):
        out = tmp_path / "series.csv"
        code = run_cli(
            [
                "--mode",
                "series",
                "--delta",
                "0.5",
                "--n-photon",
                "0",
                "--initial",
                "ee",
                "--tau-max",
                "10",
                "--steps",
                "1001",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        golden = (data_dir / "golden_series_ee_d0.5_n0.csv").read_bytes()
        assert out.read_bytes() == golden


class TestSweepMode:
    def test_delta_sweep_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "--sweep",
                "delta:0.1:1.0:4",
                "--steps",
                "201",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,avg_negativity,first_negativity_zero,negativity_zero_count"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1.00000000000e-01"
        assert first[2] == "-1.00000000000e+00"  # never returns to zero
        assert first[3] == "0"

    def test_photon_sweep_uses_integers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "--sweep",
                "n_photon:0:3:4",
                "--delta",
                "0.5",
                "--steps",
                "51",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n_photon,")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_sweep_mode_inferred_from_spec(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["--sweep", "delta:0:1:2", "--steps", "11", "--output", str(out)]) == 0
        assert out.exists()

    def test_sweep_rejects_negative_photon_values(self):
        assert run_cli(["--sweep", "n_photon:-2:1:4", "--steps", "11"]) == 1

    def test_sweep_rejects_oversized_photon_values(self):
        assert run_cli(["--sweep", "n_photon:0:20:2", "--steps", "11"]) == 1


class TestAuditMode:
    def test_writes_json_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = run_cli(["--mode", "audit", "--delta", "0.5", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["delta"] == 0.5
        assert len(payload["elements"]) == 16
        printed = capsys.readouterr().out
        assert "u22" in printed and "mismatch" in printed

    def test_mismatches_do_not_fail_the_run(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli(["--mode", "audit", "--delta", "0", "--output", str(out)]) == 0

    def test_audit_grid_includes_zero(self, tmp_path):
        out = tmp_path / "audit.json"
        run_cli(["--mode", "audit", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["tau_grid"][0] == 0.0
        assert payload["tau_grid"][-1] == 10.0
        assert len(payload["tau_grid"]) == 21

    def test_degenerate_roots_exit_2(self, tmp_path, capsys, monkeypatch):
        # The guard is unreachable for real parameters, so force it to fire
        # to pin down the computation-error exit path.
        from twoatomcavity import propagator

        def explode(*args, **kwargs):
            raise DegenerateRoots(
                "smallest root separation 0.0e+00 is below 1e-09; "
                "use the spectral propagator instead of the closed form"
            )

        monkeypatch.setattr(cli, "audit_closed_form", explode)
        out = tmp_path / "audit.json"
        code = run_cli(["--mode", "audit", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "computation error" in err
        assert "spectral propagator" in err


class TestConfigLayers:
    def test_config_file_sets_values(self, tmp_path):
        out = tmp_path / "series.csv"
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "mode": "series",
                    "delta": 0.5,
                    "n_photon": 0,
                    "initial": "gg",
                    "tau_max": 1.0,
                    "steps": 3,
                    "output_path": str(out),
                }
            )
        )
        assert run_cli(["--config", str(config)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[4] == "1.00000000000e+00"  # starts in gg

    def test_flags_override_config_file(self, tmp_path):
        out = tmp_path / "series.csv"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 3, "tau_max": 1.0}))
        assert run_cli(["--config", str(config), "--steps", "4", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_config_overrides_preset(self, tmp_path):
        out = tmp_path / "series.csv"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"initial": "gg", "steps": 2, "tau_max": 1.0}))
        assert (
            run_cli(["--preset", "fig1a", "--config", str(config), "--output", str(out)])
            == 0
        )
        # fig1a starts doubly excited; the config file flips it to gg.
        assert out.read_text().splitlines()[1].split(",")[4] == "1.00000000000e+00"

    def test_config_file_amplitudes_and_sweep_objects(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "mode": "sweep",
                    "initial": "custom",
                    "amplitudes": ["0.6", "0.8", [0.0, 0.6], "0.8"],
                    "steps": 11,
                    "sweep": {"param": "delta", "start": 0.0, "stop": 1.0, "count": 2},
                    "output_path": str(out),
                }
            )
        )
        assert run_cli(["--config", str(config)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"detuning": 1.0}))
        assert run_cli(["--config", str(config)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert run_cli(["--config", str(tmp_path / "absent.json")]) == 1

    def test_malformed_config_file_exits_1(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert run_cli(["--config", str(config)]) == 1

    def test_non_object_config_exits_1(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]")
        assert run_cli(["--config", str(config)]) == 1


class TestPresets:
    def test_all_presets_resolve(self):
        parser = cli.build_parser()
        for name in cli.PRESETS:
            args = parser.parse_args(["--preset", name])
            config = cli.resolve_config(args)
            assert config.mode == "series"
            assert config.initial in ("ee", "gg")

    def test_text_and_caption_variants_differ(self):
        assert cli.PRESETS["fig4a_text"]["delta"] != cli.PRESETS["fig4a_caption"]["delta"]
        assert cli.PRESETS["fig4a_text"]["initial"] == "ee"

    def test_preset_runs_end_to_end(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run_cli(["--preset", "fig3a", "--steps", "11", "--output", str(out)]) == 0
        header, first, *_ = out.read_text().splitlines()
        assert first.split(",")[1] == "1.00000000000e+00"

    def test_flag_overrides_preset(self, tmp_path):
        out = tmp_path / "series.csv"
        assert (
            run_cli(
                ["--preset", "fig1a", "--initial", "gg", "--steps", "2", "--output", str(out)]
            )
            == 0
        )
        assert out.read_text().splitlines()[1].split(",")[4] == "1.00000000000e+00"


class TestFloatFormatting:
    def test_round_off_snaps_to_zero(self):
        assert cli._format_float(1.4e-32) == "0.00000000000e+00"
        assert cli._format_float(-0.0) == "0.00000000000e+00"

    def test_small_but_genuine_values_survive(self):
        assert cli._format_float(1.99979167643e-08) == "1.99979167643e-08"
        assert cli._format_float(-1.0) == "-1.00000000000e+00"


class TestDefaults:
    def test_default_output_names(self):
        parser = cli.build_parser()
        series = cli.resolve_config(parser.parse_args([]))
        assert series.output_path == "series.csv"
        sweep = cli.resolve_config(parser.parse_args(["--sweep", "delta:0:1:2"]))
        assert sweep.output_path == "sweep.csv"
        audit = cli.resolve_config(parser.parse_args(["--mode", "audit"]))
        assert audit.output_path == "audit.json"

    def test_default_window(self):
        config = cli.resolve_config(cli.build_parser().parse_args([]))
        assert config.tau_max == 10.0
        assert config.steps == 1001
        assert config.delta == 0.0
        assert config.n_photon == 0
        assert config.initial == "ee"
