"""The layers a per-layer tracer wraps are the ones the CLI calls.

A tracer replaces a function, in every package module that holds a
reference to it, by a wrapper that counts or times its calls.  Work done
behind a function it does not wrap is invisible to it, so these tests wrap
the layer functions the same way and require every CLI run to reach each
layer it does work in, without a byte of its output changing.
"""
from __future__ import annotations

import sys
from collections import Counter

import pytest

from twoatomcavity import cli

#: (module, function) of each wrapped layer.
LAYERS = (
    ("dynamics", "time_series"),
    ("linalg", "partial_trace_field"),
    ("linalg", "partial_transpose"),
    ("entanglement", "negativity"),
    ("dynamics", "first_negativity_zero"),
    ("dynamics", "negativity_zero_count"),
    ("dynamics", "average_negativity"),
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


# 300 steps are three 128-sample chunks; a sweep point of 201 steps is two.
SERIES = ["--initial", "eg", "--delta", "0.37", "--n-photon", "3", "--tau-max", "3.7",
          "--steps", "300"]
SWEEP = ["--sweep", "delta:0.1:1.0:3", "--initial", "eg", "--steps", "201"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (SERIES, {"time_series": 1, "partial_trace_field": 3, "partial_transpose": 3,
                  "negativity": 3}),
        (SWEEP, {"time_series": 3, "partial_trace_field": 6, "partial_transpose": 6,
                 "negativity": 6, "first_negativity_zero": 3, "negativity_zero_count": 3,
                 "average_negativity": 3}),
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
