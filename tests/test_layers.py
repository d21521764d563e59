"""The layers a per-layer tracer wraps are the ones the CLI calls.

A tracer replaces a function, in every package module that holds a
reference to it, by a wrapper that counts or times its calls.  Work done
behind a function it does not wrap is invisible to it, so these tests wrap
the layer functions the same way and require every CLI run to reach each
layer it does work in, without a byte of its output changing.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twoatomcavity import cli
from twoatomcavity.dynamics import _CHUNK_SAMPLES

#: (module, function) of each wrapped layer.
LAYERS = (
    ("dynamics", "time_series"),
    ("dynamics", "populations"),
    ("linalg", "partial_trace_field"),
    ("linalg", "partial_transpose"),
    ("linalg", "eig_hermitian"),
    ("entanglement", "negativity"),
    ("entanglement", "_classify_stack"),
    ("dynamics", "first_negativity_zero"),
    ("dynamics", "negativity_zero_count"),
    ("dynamics", "average_negativity"),
    ("model", "spectral_quantities"),
    ("linalg", "expm_i_hermitian"),
    ("propagator", "propagate_spectral"),
    ("propagator", "propagate_closed_form"),
    ("propagator", "_closed_form_matrices"),
)


def _counted(calls: Counter, name: str, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def count_layer_calls(patch: pytest.MonkeyPatch) -> Counter:
    """Wrap every reference to each layer in the package; return the counts."""
    calls: Counter = Counter()
    modules = [
        module
        for key, module in list(sys.modules.items())
        if key == "twoatomcavity" or key.startswith("twoatomcavity.")
    ]
    for module_name, name in LAYERS:
        original = getattr(sys.modules[f"twoatomcavity.{module_name}"], name)
        wrapper = _counted(calls, name, original)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, attribute, wrapper)
    return calls


SERIES_STEPS, SWEEP_STEPS, SWEEP_POINTS = 300, 201, 3
SERIES = ["--initial", "eg", "--delta", "0.37", "--n-photon", "3", "--tau-max", "3.7",
          "--steps", str(SERIES_STEPS)]
SWEEP = ["--sweep", f"delta:0.1:1.0:{SWEEP_POINTS}", "--initial", "eg",
         "--steps", str(SWEEP_STEPS)]

#: A series is one time_series call over its samples, a sweep one call over
#: all of its (point, sample) rows; each makes one chunk call per
#: ``_CHUNK_SAMPLES`` rows.  Only the series reads populations and labels.
SERIES_CHUNKS = math.ceil(SERIES_STEPS / _CHUNK_SAMPLES)
SWEEP_CHUNKS = math.ceil(SWEEP_POINTS * SWEEP_STEPS / _CHUNK_SAMPLES)

#: Eigendecompositions: one stacked call for the excitation blocks of each
#: size (this series and sweep have one size), then per chunk one for the
#: partial transposes the negativity cannot certify PSD and, in the series,
#: one for the classifier's fit of the samples its bounds cannot rule out
#: (every chunk of this series has some of each).
SERIES_EIGH = 1 + 2 * SERIES_CHUNKS
SWEEP_EIGH = 1 + SWEEP_CHUNKS


@pytest.mark.parametrize(
    "argv, expected",
    [
        (SERIES, {"time_series": 1, "populations": SERIES_CHUNKS,
                  "partial_trace_field": SERIES_CHUNKS,
                  "partial_transpose": SERIES_CHUNKS, "eig_hermitian": SERIES_EIGH,
                  "negativity": SERIES_CHUNKS, "_classify_stack": SERIES_CHUNKS}),
        (SWEEP, {"time_series": 1, "partial_trace_field": SWEEP_CHUNKS,
                 "partial_transpose": SWEEP_CHUNKS, "eig_hermitian": SWEEP_EIGH,
                 "negativity": SWEEP_CHUNKS,
                 "first_negativity_zero": SWEEP_POINTS, "negativity_zero_count": SWEEP_POINTS,
                 "average_negativity": SWEEP_POINTS}),
    ],
    ids=["series", "sweep"],
)
def test_cli_runs_reach_every_wrapped_layer(tmp_path, argv, expected):
    plain = tmp_path / "plain.csv"
    assert cli.main([*argv, "--output", str(plain)]) == 0
    traced = tmp_path / "traced.csv"
    with pytest.MonkeyPatch.context() as patch:
        calls = count_layer_calls(patch)
        assert cli.main([*argv, "--output", str(traced)]) == 0
    assert dict(calls) == expected
    assert traced.read_bytes() == plain.read_bytes()


#: ``--preset fig2a`` prepares |gg, 0>, which nothing couples to: every
#: sample's partial transpose is certified PSD, so the series decomposes
#: its one-state block and nothing else, and classifies every sample
#: separable at the negativity gate.
PRESET_CHUNKS = math.ceil(cli._DEFAULTS["steps"] / _CHUNK_SAMPLES)


def test_a_certified_series_decomposes_only_its_block(tmp_path):
    plain = tmp_path / "plain.csv"
    assert cli.main(["--preset", "fig2a", "--output", str(plain)]) == 0
    traced = tmp_path / "traced.csv"
    with pytest.MonkeyPatch.context() as patch:
        calls = count_layer_calls(patch)
        assert cli.main(["--preset", "fig2a", "--output", str(traced)]) == 0
    assert dict(calls) == {"time_series": 1, "populations": PRESET_CHUNKS,
                           "partial_trace_field": PRESET_CHUNKS,
                           "partial_transpose": PRESET_CHUNKS, "eig_hermitian": 1,
                           "negativity": PRESET_CHUNKS, "_classify_stack": PRESET_CHUNKS}
    assert traced.read_bytes() == plain.read_bytes()


AUDIT = ["--mode", "audit", "--delta", "0.37", "--n-photon", "4"]


@pytest.mark.parametrize("grid_length", [1, 2, 21, 50])
def test_cli_audit_decomposes_once_whatever_the_grid(tmp_path, capsys, grid_length):
    """One eigendecomposition and one root computation per audit, and one
    closed-form pass per grid time that covers both modes."""
    grid = tuple(np.linspace(0.0, 10.0, grid_length).tolist())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "AUDIT_TAU_GRID", grid)
        plain = tmp_path / "plain.json"
        assert cli.main([*AUDIT, "--output", str(plain)]) == 0
        plain_text = capsys.readouterr().out
        calls = count_layer_calls(patch)
        traced = tmp_path / "traced.json"
        assert cli.main([*AUDIT, "--output", str(traced)]) == 0
    assert dict(calls) == {
        "eig_hermitian": 1,
        "spectral_quantities": 1,
        "_closed_form_matrices": grid_length,
    }
    assert traced.read_bytes() == plain.read_bytes()
    assert capsys.readouterr().out == plain_text


def test_benchmark_tracer_finds_every_traced_name():
    # The tracer of bench/spans.py looks up each name it traces in the
    # package; removing one of them breaks every traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {
        (module, name): getattr(sys.modules[f"twoatomcavity.{module}"], name)
        for module, name, _ in spans.TRACED
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(sys.modules[f"twoatomcavity.{module}"], name) is not original
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(sys.modules[f"twoatomcavity.{module}"], name) is original


def test_baseline_script_imports_every_name_it_uses(monkeypatch):
    # bench/baseline.py imports its timed functions from the package; this
    # loads the script, which puts the sources on sys.path, without running
    # its main().
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "bench" / "baseline.py"
    spec = importlib.util.spec_from_file_location("bench_baseline", path)
    baseline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baseline)
    assert callable(baseline.main)
