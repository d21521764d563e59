"""CLI tests: argument handling, outputs, determinism, exit codes."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from twoatomcavity import cli, entanglement, model
from twoatomcavity.dynamics import SeriesColumns, time_series
from twoatomcavity.entanglement import CLASS_LABELS
from twoatomcavity.model import SystemParams, named_atomic_state

from oracles import exact_single_block_series


def run_cli(args: list[str]) -> int:
    return cli.main(args)


def run_module_strict(args: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose warnings are errors."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "twoatomcavity.cli", *args],
        capture_output=True, text=True, env=env, check=False,
    )


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
            ["--initial", "custom", "--amplitudes", "1,0,inf,0"],
            ["--initial", "custom", "--amplitudes", "1e200,0,1,0"],
            ["--sweep", "delta:nan:1:3"],
            ["--sweep", "n_photon:0:1:5"],
            ["--config", '{"n_photon": 2.7}'],
            ["--config", '{"steps": 10.5}'],
            ["--config", '{"delta": true}'],
            ["--config", '{"initial": "custom", "amplitudes": [true, false, true, false]}'],
            ["--config", '{"initial": "custom", "amplitudes": [["a", 0], 1, 1, 0]}'],
            ["--sweep", "delta:-1e308:1e308:3"],
            ["--config", '{"sweep": {"param": "delta", "start": 0, "stop": 1, "count": 2.5}}'],
        ],
        ids=" ".join,
    )
    def test_non_finite_or_undersized_input_exits_1(self, argv, capsys, tmp_path):
        if argv[0] == "--config":  # the second item is the file's JSON text
            config = tmp_path / "config.json"
            config.write_text(argv[1])
            argv = ["--config", str(config)]
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--steps", "1000000000000000"], ["--sweep", "delta:0:1:1000000000000000"]],
        ids=" ".join,
    )
    def test_unallocatable_grid_exits_2(self, argv, capsys, tmp_path):
        # 10**15 doubles are 8 PB, beyond the address space: the allocation
        # fails at once, without touching memory.
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["series", "sweep", "audit"])
    @pytest.mark.parametrize("target", ["missing/out.dat", ".", "out\x00.dat"],
                             ids=["missing_dir", "directory", "nul"])
    def test_unwritable_output_exits_1(self, mode, target, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["--mode", mode, "--steps", "5", "--output", target]
        if mode == "sweep":
            argv += ["--sweep", "delta:0:1:2"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{", b"[" * 5000, b'{"a": ' * 5000],
        ids=["not_utf8", "deep_array", "deep_object"],
    )
    def test_unreadable_config_file_exits_1(self, content, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        assert run_cli(["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nul_in_config_path_exits_1(self, capsys):
        assert run_cli(["--config", "run\x00.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file ") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["--bogus\nline", "stray\r\nline", "--s=\n"])
    def test_line_breaks_in_arguments_stay_on_one_error_line(self, token, capsys):
        assert run_cli([token]) == 1
        err = capsys.readouterr().err
        assert err.startswith("twoatomcavity: error: ") and err.count("\n") == 1

    def test_parser_is_built_once_and_reads_like_a_fresh_one(self, capsys, monkeypatch):
        assert run_cli(["--help"]) == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()
        fresh = cli.build_parser()
        with pytest.raises(SystemExit):
            fresh.parse_args(["--steps", "ten"])
        fresh_error = capsys.readouterr().err

        def refuse():
            raise AssertionError("built a second parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for _ in range(2):
            assert run_cli(["--steps", "ten"]) == 1
            assert capsys.readouterr().err == fresh_error

    @pytest.mark.parametrize(
        "argv",
        [[], ["--sweep", "delta:0:1:3"], ["--mode", "audit"]],
        ids=["series", "sweep", "audit"],
    )
    def test_photon_number_beyond_float_range_exits_1(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        code = run_cli([*argv, "--n-photon", "1" + "0" * 400, "--steps", "5",
                        "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_photon must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("offset, code", [(5e-10, 0), (-5e-10, 0), (2e-9, 1), (-2e-9, 1)])
    def test_amplitude_tolerance_is_1e_9(self, offset, code, capsys, tmp_path):
        # atom 2's squared norm is 1 + offset.
        b2 = repr(float(np.sqrt(0.36 + offset)))
        out = tmp_path / "series.csv"
        argv = ["--initial", "custom", "--amplitudes", f"0.6,0.8,0.8,{b2}", "--steps", "5"]
        assert run_cli([*argv, "--output", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and out.exists()
        else:
            assert err.startswith("error: atom 2 amplitudes have squared norm")
            assert err.count("\n") == 1 and not out.exists()

    def test_one_amplitude_check(self):
        assert not hasattr(cli, "_normalized_custom_amplitudes")
        assert not hasattr(cli, "CUSTOM_AMPLITUDE_TOL")
        assert model.AMPLITUDE_TOL == 1e-9

    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta": 10**400}))
        assert run_cli(["--config", str(config), "--output", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: delta must be a number")

    def test_integral_floats_in_config_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_photon": 3.0, "steps": 11.0, "sweep": {
            "param": "delta", "start": 0, "stop": 1, "count": 3.0}}))
        out = tmp_path / "sweep.csv"
        assert run_cli(["--config", str(config), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        args = cli.build_parser().parse_args(["--config", str(config)])
        resolved = cli.resolve_config(args)
        assert (resolved.params.n_photon, resolved.steps) == (3, 11)
        assert all(type(v) is int for v in (resolved.params.n_photon, resolved.steps))
        assert resolved.sweep.values == (0.0, 0.5, 1.0)

    def test_large_photon_number_exits_0(self, tmp_path):
        # Each excitation block is evolved exactly: no photon-number limit.
        out = tmp_path / "series.csv"
        assert run_cli(["--n-photon", "20", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1002

    @pytest.mark.parametrize(
        "argv",
        [
            ["--steps", "2", "--tau-max", "1e12"],
            ["--sweep", "delta:0.1:1.0:6", "--initial", "eg", "--n-photon", "2",
             "--tau-max", "1e6"],
        ],
        ids=" ".join,
    )
    def test_long_windows_exit_0(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_million_photons_keep_the_invariants(self, tmp_path):
        # The written CSV at n = 10^6: swapping the atoms swaps p_eg and p_ge
        # and leaves the rest alone; snapped negativity lies in [0, 1].
        rows = []
        for amplitudes in ("0.6,0.8,0.8j,0.6", "0.8j,0.6,0.6,0.8"):
            out = tmp_path / "series.csv"
            argv = ["--n-photon", "1000000", "--initial", "custom", "--amplitudes", amplitudes,
                    "--delta", "0.3", "--steps", "101", "--output", str(out)]
            assert run_cli(argv) == 0
            rows.append(
                np.array([line.split(",")[:6] for line in out.read_text().splitlines()[1:]],
                         dtype=float)
            )
        first, swapped = rows
        for table in rows:
            assert np.max(np.abs(table[:, 1:5].sum(axis=1) - 1.0)) < 1e-10
            assert np.all((table[:, 5] >= 0.0) & (table[:, 5] <= 1.0))
        assert np.max(np.abs(first - swapped[:, [0, 1, 3, 2, 4, 5]])) < 1e-9


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

    def test_golden_file_is_exact_to_its_last_digit(self, data_dir):
        # Every printed value lies within one unit of its 12th significant
        # digit of a 40-digit evaluation; a printed 0 stands for |exact| < 1e-14.
        import mpmath

        lines = (data_dir / "golden_series_ee_d0.5_n0.csv").read_text().splitlines()
        exact = exact_single_block_series("ee", 0.5, 0, 10.0, 1001)
        assert len(lines) == 1 + len(exact)
        for line, values in zip(lines[1:], exact):
            fields = line.split(",")[:6]
            for printed, value in zip(fields, values):
                if float(printed) == 0.0:
                    assert abs(value) < cli.FORMAT_SNAP_TOL, (line, printed)
                    continue
                unit = mpmath.mpf(10) ** (int(printed.split("e")[1]) - 11)
                assert abs(mpmath.mpf(printed) - value) <= unit, (line, printed, value)

    def test_huge_window_writes_without_warnings(self, tmp_path):
        # Three-digit exponents are formatted by Python; no NumPy warning
        # escapes the digit arrays.
        out = tmp_path / "series.csv"
        done = run_module_strict(["--initial", "eg", "--tau-max", "1e300", "--steps", "5",
                                  "--output", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        columns = time_series(SystemParams(delta=0.0, n_photon=0), named_atomic_state("eg"),
                              1e300, 5)
        table = np.column_stack((columns.tau, columns.populations, columns.negativity))
        expected = [cli.SERIES_HEADER] + [
            ",".join([cli._format_float(value) for value in row] + [CLASS_LABELS[label]])
            for row, label in zip(table.tolist(), columns.labels.tolist())
        ]
        assert out.read_text().splitlines() == expected
        assert expected[-1].startswith("1.00000000000e+300,")


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

    @pytest.mark.parametrize(
        "spec, keys",
        [("delta:1e-15:3e-15:3", ["1.00000000000e-15", "2.00000000000e-15", "3.00000000000e-15"]),
         ("delta:-1e-15:-0.0:2", ["-1.00000000000e-15", "0.00000000000e+00"])],
    )
    def test_tiny_detunings_keep_distinct_keys(self, spec, keys, tmp_path):
        # The swept value is an input, not round-off: it is never snapped to
        # 0, and a negative zero prints as 0.
        out = tmp_path / "sweep.csv"
        argv = ["--sweep", spec, "--initial", "eg", "--steps", "11", "--output", str(out)]
        assert run_cli(argv) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == keys

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

    def test_sweep_does_not_classify(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classified a sample")

        monkeypatch.setattr(entanglement, "_classify_stack", refuse)
        out = tmp_path / "sweep.csv"
        argv = ["--sweep", "delta:0:1:5", "--initial", "eg", "--n-photon", "2", "--steps", "301"]
        assert run_cli(argv + ["--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6
        with pytest.raises(AssertionError, match="classified a sample"):
            run_cli(["--initial", "eg", "--steps", "301", "--output", str(out)])

    def test_sweep_allocates_chunks_not_its_amplitudes(self, tmp_path):
        # 4 x 26,215 rows: their amplitudes on 4 x 5 levels would take 33.6 MB;
        # the chunks and a negativity-only column keep the sweep's traced
        # peak below 4 MB.
        points, steps = 4, 26_215
        assert points * steps * 4 * 5 * 16 >= 32 * 2**20
        out = tmp_path / "sweep.csv"
        argv = ["--sweep", f"delta:0.1:0.9:{points}", "--initial", "eg", "--n-photon", "2",
                "--steps", str(steps), "--output", str(out)]
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 10**6

    def test_sweep_rejects_negative_photon_values(self):
        assert run_cli(["--sweep", "n_photon:-2:1:4", "--steps", "11"]) == 1

    def test_sweep_accepts_large_photon_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["--sweep", "n_photon:0:20:2", "--steps", "11", "--output", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "20"]


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

    @pytest.mark.parametrize("flags", [["--delta=4e102"], ["--delta=-2e154"],
                                       ["--n-photon", str(10**230)],
                                       ["--n-photon", str(10**308)]],
                             ids=["delta-4e102", "delta--2e154", "n-1e230", "n-1e308"])
    def test_overflowing_root_scale_is_a_computation_error(self, flags, tmp_path):
        # The cube of the root scale overflows above |delta| ~ 3.3e102 (the
        # square of delta above ~1.3e154) or n_photon ~ 2.6e204 (at 1e308
        # the scale itself is infinite): one error line naming both
        # parameters, no traceback.
        done = run_module_strict(["--mode", "audit", *flags,
                                  "--output", str(tmp_path / "audit.json")])
        assert done.returncode == 2
        assert done.stderr.startswith("computation error: ") and done.stderr.count("\n") == 1
        assert "detuning" in done.stderr and "n_photon" in done.stderr

    def test_overflowing_elements_are_reported_without_warnings(self, tmp_path, capsys):
        # Just below that edge some closed-form products overflow; the audit
        # reports the elements and warns about nothing.
        strict = tmp_path / "strict.json"
        done = run_module_strict(["--mode", "audit", "--delta", "3e102",
                                  "--output", str(strict)])
        assert (done.returncode, done.stderr) == (0, "")
        out = tmp_path / "audit.json"
        assert run_cli(["--mode", "audit", "--delta", "3e102", "--output", str(out)]) == 0
        assert done.stdout == capsys.readouterr().out
        assert strict.read_bytes() == out.read_bytes()


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
        config.write_text(json.dumps({"detuning": 1.0, "tau": 2.0}))
        assert run_cli(["--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config keys ['detuning', 'tau']; valid keys: ['amplitudes', "
            "'delta', 'initial', 'mode', 'n_photon', 'output_path', 'steps', 'sweep', "
            "'tau_max']\n"
        )

    def test_config_file_and_flags_resolve_alike(self, tmp_path):
        # Every key set once in a config file and once as flags.
        out = str(tmp_path / "sweep.csv")
        values = {
            "mode": "sweep", "delta": 0.25, "n_photon": 2, "initial": "custom",
            "amplitudes": "0.6,0.8,0.8,0.6", "tau_max": 3.5, "steps": 41,
            "output_path": out, "sweep": "delta:0.1:0.9:5",
        }
        assert sorted(values) == sorted(cli._DEFAULTS)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        flags = [
            "--mode", "sweep", "--delta", "0.25", "--n-photon", "2", "--initial", "custom",
            "--amplitudes", "0.6,0.8,0.8,0.6", "--tau-max", "3.5", "--steps", "41",
            "--output", out, "--sweep", "delta:0.1:0.9:5",
        ]
        parser = cli.build_parser()
        from_file = cli.resolve_config(parser.parse_args(["--config", str(config)]))
        from_flags = cli.resolve_config(parser.parse_args(flags))
        assert from_file == from_flags
        values["sweep"] = {"param": "delta", "start": 0.1, "stop": 0.9, "count": 5}
        config.write_text(json.dumps(values))
        from_dict = cli.resolve_config(parser.parse_args(["--config", str(config)]))
        assert from_dict == from_flags
        assert from_file != cli.resolve_config(parser.parse_args([]))

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

    @pytest.mark.parametrize("value", [3, 0, True, False, 1.5, ["a"], {"x": 1}])
    def test_non_string_output_path_exits_1(self, tmp_path, monkeypatch, capsys, value):
        # Nothing is written, neither to str(value) nor to the default path.
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"output_path": value, "steps": 5}))
        assert run_cli(["--config", "run.json"]) == 1
        assert capsys.readouterr().err == (
            f"error: output_path must be a string or null, got {value!r}\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json"]


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

    @pytest.mark.parametrize("label", range(len(CLASS_LABELS)))
    def test_series_rows_format_each_field_like_format_float(self, label):
        tol = cli.FORMAT_SNAP_TOL
        values = [-0.0, tol / 2, -tol / 2, tol, -tol, 1e-300, 0.9999999999995, 0.9999999999996,
                  1e12, -1e12]
        # Rotate the values through the six float columns of the rows.
        table = np.array([np.roll(values, -row)[:6] for row in range(len(values))])
        rows = assert_rows_format_like_format_float(table.ravel(), label)
        assert len(rows) == len(values)
        assert rows[0].split(",")[:6] == ["0.00000000000e+00"] * 3 + [
            "1.00000000000e-14", "-1.00000000000e-14", "0.00000000000e+00"]
        # 0.9999999999995 is stored just below its decimal spelling, so only
        # 0.9999999999996 rounds up at the 12th digit.
        assert rows[6].split(",")[:4] == ["9.99999999999e-01", "1.00000000000e+00",
                                          "1.00000000000e+12", "-1.00000000000e+12"]

    def test_series_rows_format_edge_values_like_format_float(self):
        rng = np.random.default_rng(99)
        # 12-digit mantissas plus one half: decimal rounding ties, written
        # as products and quotients, and their neighbouring doubles.
        mantissas = [*rng.integers(10**11, 10**12, 40).tolist(), 10**11, 10**12 - 1]
        ties = np.array([(k + 0.5) * 10.0**j for k in mantissas for j in range(-30, 12, 3)]
                        + [(k + 0.5) / 10.0**j for k in mantissas for j in range(1, 31, 3)]
                        + [float(f"{k}5e{j}") for k in mantissas for j in range(-30, 12, 3)])
        near_ties = [ties, *np.nextafter(ties, [[0.0], [np.inf]])]
        # Powers of ten, and values that round up to one, at every exponent
        # the digit arrays write and just past them.
        powers = np.array([10.0**j for j in range(-105, 106)] + [1e-300, 1e300]
                          + [float(f"9.9999999999{d}e{j}") for d in (94, 95, 96)
                             for j in range(-105, 106)])
        tol = cli.FORMAT_SNAP_TOL
        values = np.concatenate([
            *near_ties, powers, *np.nextafter(powers, [[0.0], [np.inf]]),
            [tol, -tol, *np.nextafter(tol, [0.0, 1.0]), *np.nextafter(-tol, [0.0, -1.0])],
            [5e-324, 2.5e-310, -1e-320, 9.9999999999995e5, 9.9999999999995e99,
             9.99999999999949e99, -0.5, -1e300, np.inf, -np.inf, np.nan],
        ])
        assert_rows_format_like_format_float(values, alone=True)
        assert_rows_format_like_format_float(values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(),
                st.floats(0.0, 1.0),
                st.builds(lambda k, j: (k + 0.5) * 10.0**j,
                          st.integers(10**11, 10**12 - 1), st.integers(-40, 40)),
            ),
            min_size=1, max_size=120,
        ),
        alone=st.booleans(),
    )
    def test_series_rows_format_any_double_like_format_float(self, values, alone):
        assert_rows_format_like_format_float(values, alone=alone)


def assert_rows_format_like_format_float(values, label: int = 0, alone: bool = False) -> list[str]:
    """Format ``values`` as series rows; each field must be :func:`_format_float`'s.

    With ``alone``, each value gets a row of its own whose other fields are
    plain, so that no other field of the row sends the row to Python.
    """
    values = np.asarray(values, dtype=float)
    if alone:
        table = np.tile([0.5, 0.25, 0.0, 1.0, 3.0, 0.125], (len(values), 1))
        table[np.arange(len(values)), np.arange(len(values)) % 6] = values
    else:
        table = np.resize(values, -(-len(values) // 6) * 6).reshape(-1, 6)
    columns = SeriesColumns(
        tau=table[:, 0], populations=table[:, 1:5], negativity=table[:, 5],
        labels=np.full(len(table), label),
    )
    with np.errstate(all="raise"):
        rows = cli._format_series_rows(columns)
    assert len(rows) == len(table)
    for row, fields in zip(table.tolist(), rows):
        expected = [cli._format_float(value) for value in row] + [CLASS_LABELS[label]]
        assert fields.split(",") == expected
    return rows


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
        assert config.params == SystemParams(delta=0.0, n_photon=0)
        assert config.initial == "ee"


# --- Fuzzing: generated argv lists and config files, run in process -------------

#: Caps that keep every generated run small: grid points, sweep points and
#: photon number.
FUZZ_MAX_STEPS, FUZZ_MAX_COUNT, FUZZ_MAX_PHOTONS = 64, 8, 10**6

_junk_text = st.text(max_size=12)
_floats_any = st.floats(allow_nan=True, allow_infinity=True)
_number_text = st.one_of(
    _floats_any.map(repr),
    st.sampled_from(["0", "-0", "1e400", "nan", "inf", "5e-324", "1e103", "1e308", "0x10", ""]),
    _junk_text,
)
_delta_text = st.one_of(st.floats(-3.0, 3.0).map(repr), _number_text)
_tau_text = st.one_of(st.floats(1e-3, 1e3).map(repr), _number_text)
_photon_values = st.integers(-3, FUZZ_MAX_PHOTONS)
_step_values = st.integers(-2, FUZZ_MAX_STEPS)
_count_values = st.integers(-1, FUZZ_MAX_COUNT)
_mode_values = st.sampled_from([*cli.RUN_MODES, "plot", ""])
_initial_values = st.sampled_from([*model.ATOMIC_STATE_NAMES, "custom", "bell", ""])
_amplitude_text = st.one_of(
    st.sampled_from(["1,0,1,0", "0.6,0.8,0.8,0.6j", "0,1,1j,0", "1,0,1", "a,b,c,d", "1,0,nanj,0"]),
    st.lists(_number_text, min_size=3, max_size=5).map(",".join),
)


@st.composite
def _sweep_text(draw) -> str:
    """``param:start:stop:count`` text, mostly well formed and always small."""
    param = draw(st.sampled_from([*cli.SWEEP_PARAMS, "tau", ""]))
    if param == "n_photon":
        ends = st.integers(-2, FUZZ_MAX_PHOTONS).map(str)
    else:
        ends = _delta_text
    parts = [param, draw(ends), draw(ends), str(draw(_count_values))]
    if draw(st.integers(0, 9)) == 0:
        del parts[draw(st.integers(0, 3))]
    return ":".join(parts)


_FLAG_VALUES = {
    "--mode": _mode_values,
    "--preset": st.sampled_from([*cli.PRESETS, "fig9"]),
    "--delta": _delta_text,
    "--n-photon": st.one_of(_photon_values.map(str), _junk_text),
    "--initial": _initial_values,
    "--amplitudes": _amplitude_text,
    "--tau-max": _tau_text,
    "--steps": st.one_of(_step_values.map(str), st.sampled_from(["2.5", "x", ""])),
    "--sweep": _sweep_text(),
    "--output": st.one_of(
        st.just("out.dat"), st.sampled_from(["missing/out.dat", ".", "", "out\x00.dat"])
    ),
}


#: Valid runs that the generated flags then add to or override.
_BASE_RUNS = (
    [],
    ["--mode", "audit"],
    ["--sweep", "delta:0:1:3"],
    ["--sweep", "n_photon:0:4:3", "--initial", "gg"],
    ["--preset", "fig3a"],
    ["--initial", "custom", "--amplitudes", "0.6,0.8,0.8,0.6j"],
)


@st.composite
def _argv(draw) -> list[str]:
    """A small valid run, then flags with generated values, flags without one and stray tokens."""
    argv = [*draw(st.sampled_from(_BASE_RUNS)), "--steps", "8"]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            argv.append(draw(st.one_of(_junk_text, st.sampled_from(["-h", "--", "-", "--s=\n"]))))
        else:
            flag = draw(st.sampled_from(sorted(_FLAG_VALUES)))
            argv.append(flag)
            if kind > 1:
                argv.append(draw(_FLAG_VALUES[flag]))
    return argv


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, FUZZ_MAX_COUNT), _floats_any, _junk_text
)


def _or_junk(values):
    """Mostly ``values``; one draw in four a JSON scalar or list of any type."""
    junk = st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3))
    return st.integers(0, 3).flatmap(lambda pick: values if pick else junk)


_CONFIG_VALUES = {
    "mode": _or_junk(_mode_values),
    "delta": _or_junk(st.floats(-10.0, 10.0)),
    "n_photon": _or_junk(st.one_of(_photon_values, _photon_values.map(float))),
    "initial": _or_junk(_initial_values),
    "amplitudes": _or_junk(
        st.one_of(
            _amplitude_text,
            st.lists(st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3)),
                     min_size=4, max_size=4),
        )
    ),
    "tau_max": _or_junk(st.floats(-1.0, 1e3)),
    "steps": _or_junk(st.one_of(_step_values, _step_values.map(float))),
    "output_path": _or_junk(_FLAG_VALUES["--output"]),
    "sweep": _or_junk(
        st.one_of(
            _sweep_text(),
            st.fixed_dictionaries(
                {
                    "param": _or_junk(st.sampled_from(cli.SWEEP_PARAMS)),
                    "start": _or_junk(st.integers(0, 9)),
                    "stop": _or_junk(st.integers(0, 9)),
                    "count": _or_junk(_count_values),
                }
            ),
        )
    ),
}


@st.composite
def _config_files(draw) -> str | bytes:
    """Config-file contents: mostly a generated JSON object, sometimes text that is not one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[1, 2]", "{not json", "", b"\xff\xfe{", "[" * 5000]))
    config = draw(st.fixed_dictionaries({}, optional=_CONFIG_VALUES))
    if draw(st.integers(0, 9)) == 0:
        config["unknown_key"] = draw(_json_scalars)
    return json.dumps(config)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv(), config=st.one_of(st.none(), _config_files()))
def test_fuzzed_runs_exit_0_1_or_2_with_one_error_line(argv, config):
    """Any argv and config file: exit 0, 1 or 2, one stderr line on 1 or 2, never a raise."""
    with tempfile.TemporaryDirectory() as workdir:
        if config is not None:
            path = Path(workdir, "config.json")
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(config)
            argv = [*argv, "--config", str(path)]
        err, out = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)  # default and relative outputs land in the temp dir
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID_INPUT, cli.EXIT_COMPUTATION_ERROR)
    if code != cli.EXIT_OK:
        message = err.getvalue()
        assert message.endswith("\n") and message.count("\n") == 1, message
