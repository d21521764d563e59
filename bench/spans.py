"""Per-layer spans recorded from outside the package.

Each traced function is replaced, in every ``twoatomcavity`` module that
holds a reference to it, by a wrapper that times the call. Spans nest: a
span's self time is its duration minus the durations of the spans opened
directly inside it. Spans are aggregated as they close (calls, self time and
a few counts), so memory stays flat however many samples a run produces.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, function, span name). Several functions may share one span name.
TRACED = (
    ("cli", "resolve_config", "cli.resolve_config"),
    ("cli", "run_series", "cli.run_series"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "run_audit", "cli.run_audit"),
    ("dynamics", "time_series", "dynamics.time_series"),
    ("dynamics", "first_negativity_zero", "dynamics.stats"),
    ("dynamics", "negativity_zero_count", "dynamics.stats"),
    ("dynamics", "average_negativity", "dynamics.stats"),
    ("entanglement", "negativity", "entanglement.negativity"),
    ("entanglement", "classify", "entanglement.classify"),
    ("linalg", "partial_trace_field", "linalg.partial_trace_field"),
    ("linalg", "partial_transpose", "linalg.partial_transpose"),
    ("linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("linalg", "expm_i_hermitian", "linalg.expm_i_hermitian"),
    ("model", "full_hamiltonian", "model.full_hamiltonian"),
    ("model", "spectral_quantities", "model.spectral_quantities"),
    ("propagator", "propagate_spectral", "propagator.propagate_spectral"),
    ("propagator", "propagate_closed_form", "propagator.propagate_closed_form"),
    ("propagator", "audit_closed_form", "propagator.audit_closed_form"),
)


class Tracer:
    """Aggregated spans: per name, the call count and the summed self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.dim3_sum = 0
        self.gate_passed = 0
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        children, clock = self._children, time.perf_counter
        calls, self_s = self.calls, self.self_s

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += duration

        return span

    def _count_dim3(self, function):
        def counted(m, *args, **kwargs):
            self.dim3_sum += len(m) ** 3
            return function(m, *args, **kwargs)

        return counted

    def _count_gate(self, function):
        def counted(*args, **kwargs):
            match = function(*args, **kwargs)
            self.gate_passed += match.label != "separable"
            return match

        return counted

    def install(self) -> None:
        """Replace every reference to each traced function in the package."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "twoatomcavity" or key.startswith("twoatomcavity.")
        ]
        for module_name, function_name, span_name in TRACED:
            original = getattr(sys.modules[f"twoatomcavity.{module_name}"], function_name)
            wrapper = self._wrap(span_name, original)
            if span_name == "linalg.eig_hermitian":
                wrapper = self._count_dim3(wrapper)
            elif span_name == "entanglement.classify":
                wrapper = self._count_gate(wrapper)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attribute, original))
                        setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()


#: Per-layer metrics as (name, unit); see README for what each should move.
PER_LAYER = (
    ("entanglement.negativity.calls", "calls/op"),
    ("entanglement.negativity.self_s", "s/op"),
    ("entanglement.negativity.calls_per_sample", "calls/sample"),
    ("entanglement.classify.calls", "calls/op"),
    ("entanglement.classify.self_s", "s/op"),
    ("entanglement.classify.gate_pass_share", "ratio"),
    ("dynamics.time_series.calls", "calls/op"),
    ("dynamics.time_series.self_s", "s/op"),
    ("dynamics.stats.self_s", "s/op"),
    ("linalg.partial_trace_field.calls", "calls/op"),
    ("linalg.partial_trace_field.self_s", "s/op"),
    ("linalg.partial_transpose.self_s", "s/op"),
    ("linalg.eig_hermitian.calls", "calls/op"),
    ("linalg.eig_hermitian.self_s", "s/op"),
    ("linalg.eig_hermitian.dim3_sum", "dim3/op"),
    ("linalg.expm_i_hermitian.calls", "calls/op"),
    ("linalg.expm_i_hermitian.self_s", "s/op"),
    ("model.full_hamiltonian.calls", "calls/op"),
    ("model.full_hamiltonian.self_s", "s/op"),
    ("model.spectral_quantities.calls", "calls/op"),
    ("model.spectral_quantities.self_s", "s/op"),
    ("propagator.propagate_spectral.self_s", "s/op"),
    ("propagator.propagate_closed_form.self_s", "s/op"),
    ("propagator.audit_closed_form.self_s", "s/op"),
    ("cli.resolve_config.self_s", "s/op"),
    ("cli.run_series.self_s", "s/op"),
    ("cli.run_sweep.self_s", "s/op"),
    ("cli.run_audit.self_s", "s/op"),
    ("cli.artifact_bytes", "B/op"),
    ("trace.overhead_s", "s/op"),
)


def layer_metrics(
    tracer: Tracer, ops: int, completed: int, samples: int, artifact_bytes: int,
    overhead_s: float,
) -> dict[str, float]:
    """Per-op values of every per-layer metric over the traced rounds.

    Counts and self times are divided by the traced ops attempted, bytes by
    the traced ops completed, negativity calls by the samples delivered.
    """
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        layer, _, measure = name.rpartition(".")
        if measure == "calls":
            values[name] = tracer.calls[layer] / ops
        elif measure == "self_s":
            values[name] = tracer.self_s[layer] / ops
    values["entanglement.negativity.calls_per_sample"] = (
        tracer.calls["entanglement.negativity"] / samples if samples else 0.0
    )
    classified = tracer.calls["entanglement.classify"]
    values["entanglement.classify.gate_pass_share"] = (
        tracer.gate_passed / classified if classified else 0.0
    )
    values["linalg.eig_hermitian.dim3_sum"] = tracer.dim3_sum / ops
    values["cli.artifact_bytes"] = artifact_bytes / completed if completed else 0.0
    values["trace.overhead_s"] = overhead_s
    return values
