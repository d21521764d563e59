"""Command-line front end: time series, parameter sweeps, closed-form audits.

Configuration comes from four layers, later layers overriding earlier ones:
built-in defaults, a named ``--preset``, a JSON ``--config`` file whose keys
mirror the run-configuration fields, and explicit command-line flags.

Exit codes: 0 on success, 1 on invalid input, 2 on a computation error.
Output files are deterministic: re-running the same configuration on the
same build produces byte-identical bytes.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    average_negativity,
    first_negativity_zero,
    negativity_zero_count,
    time_series,
)
from .errors import NotNormalized, TwoAtomCavityError
from .linalg import MAX_DIM
from .model import (
    ATOMIC_STATE_NAMES,
    DEFAULT_CUTOFF_MARGIN,
    MIN_CUTOFF_MARGIN,
    SystemParams,
    TwoAtomAmplitudes,
    named_atomic_state,
)
from .propagator import audit_closed_form

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_COMPUTATION_ERROR = 2

RUN_MODES = ("series", "sweep", "audit")
SWEEP_PARAMS = ("delta", "n_photon")

#: Per-atom normalization tolerance for user-supplied custom amplitudes.
CUSTOM_AMPLITUDE_TOL = 1e-9

#: 12 significant digits, lowercase scientific notation.
FLOAT_FORMAT = "{:.11e}"

#: Magnitudes below this are pure round-off on unit-scale quantities and are
#: written as exactly zero, so stationary dynamics serialize to identical rows.
FORMAT_SNAP_TOL = 1e-14

SERIES_HEADER = "tau,p_ee,p_eg,p_ge,p_gg,negativity,class"

#: Time grid used by the closed-form audit (includes tau = 0).
AUDIT_TAU_GRID = tuple(float(tau) for tau in np.linspace(0.0, 10.0, 21))

#: Named parameter sets for the standard simulation regimes (populations and
#: entanglement degree for excited/ground preparations at the studied
#: detunings and photon numbers).  ``fig4a_text`` and ``fig4a_caption``
#: intentionally coexist: two different detunings (0.1 and 1.0) are associated
#: with that regime, so both variants are shipped rather than picking one.
PRESETS: dict[str, dict] = {
    "fig1a": {"delta": 0.1, "n_photon": 0, "initial": "ee"},
    "fig1b": {"delta": 0.5, "n_photon": 0, "initial": "ee"},
    "fig2a": {"delta": 0.1, "n_photon": 0, "initial": "gg"},
    "fig2b": {"delta": 0.5, "n_photon": 0, "initial": "gg"},
    "fig3a": {"delta": 0.5, "n_photon": 3, "initial": "ee"},
    "fig3b": {"delta": 0.5, "n_photon": 3, "initial": "gg"},
    "fig4a_text": {"delta": 0.1, "n_photon": 0, "initial": "ee"},
    "fig4a_caption": {"delta": 1.0, "n_photon": 0, "initial": "ee"},
    "fig4b": {"delta": 0.5, "n_photon": 0, "initial": "ee"},
    "fig5a": {"delta": 1.0, "n_photon": 0, "initial": "gg"},
    "fig5b": {"delta": 0.5, "n_photon": 0, "initial": "gg"},
    "fig6a": {"delta": 0.5, "n_photon": 3, "initial": "ee"},
    "fig6b": {"delta": 0.5, "n_photon": 3, "initial": "gg"},
}

_CONFIG_KEYS = (
    "mode",
    "delta",
    "n_photon",
    "initial",
    "amplitudes",
    "tau_max",
    "steps",
    "fock_cutoff",
    "output_path",
    "sweep",
)

_DEFAULT_OUTPUTS = {"series": "series.csv", "sweep": "sweep.csv", "audit": "audit.json"}


class ConfigError(Exception):
    """Invalid user input (flag, config file, or preset combination)."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter scan: which parameter, the range, and the point count."""

    param: str
    start: float
    stop: float
    count: int


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    mode: str
    delta: float
    n_photon: int
    initial: str
    amplitudes: tuple[complex, complex, complex, complex] | None
    tau_max: float
    steps: int
    fock_cutoff: int | None
    output_path: str
    sweep: SweepSpec | None


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on invalid flags."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoatomcavity",
        description=(
            "Simulate two identical two-level atoms coupled to a single-mode "
            "cavity field with a definite photon number: populations, "
            "entanglement degree, state classification, parameter sweeps, and "
            "closed-form propagator audits."
        ),
    )
    parser.add_argument("--mode", choices=RUN_MODES, default=None, help="what to run")
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named parameter set (overridable by flags)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON file with run-configuration keys")
    parser.add_argument("--delta", type=float, default=None,
                        help="detuning in units of the coupling")
    parser.add_argument("--n-photon", type=int, default=None, help="initial photon number")
    parser.add_argument("--initial", default=None,
                        choices=ATOMIC_STATE_NAMES + ("custom",),
                        help="initial atomic state")
    parser.add_argument("--amplitudes", default=None, metavar="A1,B1,A2,B2",
                        help="four complex amplitudes for --initial custom "
                             "(per atom: a|ground> + b|excited>)")
    parser.add_argument("--tau-max", type=float, default=None, help="end of the time window")
    parser.add_argument("--steps", type=int, default=None, help="number of grid points (>= 2)")
    parser.add_argument("--fock-cutoff", type=int, default=None,
                        help="highest retained photon number (default n_photon + "
                             f"{DEFAULT_CUTOFF_MARGIN})")
    parser.add_argument("--output", default=None, metavar="PATH", help="output file path")
    parser.add_argument("--sweep", default=None, metavar="PARAM:START:STOP:COUNT",
                        help="scan a parameter (delta or n_photon)")
    return parser


def _parse_complex(value: object) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        try:
            return complex(value.strip().replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex amplitude {value!r}") from exc
    raise ConfigError(f"cannot parse complex amplitude {value!r}")


def _parse_amplitudes(value: object) -> tuple[complex, complex, complex, complex]:
    if isinstance(value, str):
        parts: list[object] = [part for part in value.split(",")]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"amplitudes must be a comma list or array, got {value!r}")
    if len(parts) != 4:
        raise ConfigError(f"expected 4 amplitudes (a1,b1,a2,b2), got {len(parts)}")
    amplitudes = tuple(_parse_complex(part) for part in parts)
    if not all(cmath.isfinite(amplitude) for amplitude in amplitudes):
        raise ConfigError(f"amplitudes must be finite, got {value!r}")
    return amplitudes  # type: ignore[return-value]


def _parse_sweep(value: object) -> SweepSpec:
    if isinstance(value, SweepSpec):
        return value
    if isinstance(value, dict):
        try:
            spec = SweepSpec(
                param=str(value["param"]),
                start=float(value["start"]),
                stop=float(value["stop"]),
                count=int(value["count"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep specification {value!r}") from exc
    elif isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"sweep must look like param:start:stop:count, got {value!r}"
            )
        try:
            spec = SweepSpec(
                param=parts[0], start=float(parts[1]), stop=float(parts[2]), count=int(parts[3])
            )
        except ValueError as exc:
            raise ConfigError(f"bad sweep specification {value!r}") from exc
    else:
        raise ConfigError(f"bad sweep specification {value!r}")
    if spec.param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {spec.param!r}")
    if spec.count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {spec.count}")
    if not (math.isfinite(spec.start) and math.isfinite(spec.stop)):
        raise ConfigError(f"sweep start and stop must be finite, got {value!r}")
    return spec


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {sorted(_CONFIG_KEYS)}"
        )
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, preset, config file, and flags into a RunConfig."""
    merged: dict = {
        "mode": None,
        "delta": 0.0,
        "n_photon": 0,
        "initial": "ee",
        "amplitudes": None,
        "tau_max": 10.0,
        "steps": 1001,
        "fock_cutoff": None,
        "output_path": None,
        "sweep": None,
    }
    if args.preset is not None:
        merged.update(PRESETS[args.preset])
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    flag_map = {
        "mode": args.mode,
        "delta": args.delta,
        "n_photon": args.n_photon,
        "initial": args.initial,
        "amplitudes": args.amplitudes,
        "tau_max": args.tau_max,
        "steps": args.steps,
        "fock_cutoff": args.fock_cutoff,
        "output_path": args.output,
        "sweep": args.sweep,
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = value

    sweep = _parse_sweep(merged["sweep"]) if merged["sweep"] is not None else None
    mode = merged["mode"]
    if mode is None:
        mode = "sweep" if sweep is not None else "series"
    if mode not in RUN_MODES:
        raise ConfigError(f"mode must be one of {RUN_MODES}, got {mode!r}")
    if mode == "sweep" and sweep is None:
        raise ConfigError("sweep mode needs a --sweep specification")
    if mode != "sweep" and sweep is not None:
        raise ConfigError(f"a sweep specification is only valid in sweep mode, not {mode!r}")

    initial = merged["initial"]
    if initial not in ATOMIC_STATE_NAMES + ("custom",):
        raise ConfigError(
            f"initial must be one of {ATOMIC_STATE_NAMES + ('custom',)}, got {initial!r}"
        )
    amplitudes = None
    if initial == "custom":
        if merged["amplitudes"] is None:
            raise ConfigError("initial=custom needs --amplitudes a1,b1,a2,b2")
        amplitudes = _normalized_custom_amplitudes(_parse_amplitudes(merged["amplitudes"]))

    try:
        delta = float(merged["delta"])
        n_photon = int(merged["n_photon"])
        tau_max = float(merged["tau_max"])
        steps = int(merged["steps"])
        fock_cutoff = None if merged["fock_cutoff"] is None else int(merged["fock_cutoff"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric configuration value: {exc}") from exc
    if not math.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta}")
    if n_photon < 0:
        raise ConfigError(f"n_photon must be >= 0, got {n_photon}")
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not (0.0 < tau_max < math.inf):
        raise ConfigError(f"tau_max must be positive and finite, got {tau_max}")
    if fock_cutoff is not None:
        swept = sweep is not None and sweep.param == "n_photon"
        largest_n = max(_sweep_values(sweep)) if swept else n_photon  # type: ignore[arg-type]
        if fock_cutoff < largest_n + MIN_CUTOFF_MARGIN:
            raise ConfigError(
                f"fock_cutoff={fock_cutoff} cannot hold the two-excitation ladder; "
                f"need at least n_photon + {MIN_CUTOFF_MARGIN} = {largest_n + MIN_CUTOFF_MARGIN}"
            )

    output_path = merged["output_path"] or _DEFAULT_OUTPUTS[mode]
    return RunConfig(
        mode=mode,
        delta=delta,
        n_photon=n_photon,
        initial=initial,
        amplitudes=amplitudes,
        tau_max=tau_max,
        steps=steps,
        fock_cutoff=fock_cutoff,
        output_path=str(output_path),
        sweep=sweep,
    )


def _normalized_custom_amplitudes(
    raw: tuple[complex, complex, complex, complex],
) -> tuple[complex, complex, complex, complex]:
    """Validate per-atom normalization within 1e-9, then renormalize exactly."""
    a1, b1, a2, b2 = raw
    pairs = []
    for label, a, b in (("atom 1", a1, b1), ("atom 2", a2, b2)):
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if abs(norm_sq - 1.0) >= CUSTOM_AMPLITUDE_TOL:
            raise ConfigError(
                f"{label} amplitudes have squared norm {norm_sq!r}; "
                f"must be 1 within {CUSTOM_AMPLITUDE_TOL:.0e}"
            )
        scale = np.sqrt(norm_sq)
        pairs.append((a / scale, b / scale))
    return (pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1])


def _system_params(config: RunConfig, n_photon: int | None = None, delta: float | None = None) -> SystemParams:
    n = config.n_photon if n_photon is None else n_photon
    d = config.delta if delta is None else delta
    if config.fock_cutoff is None:
        return SystemParams(delta=d, n_photon=n)
    return SystemParams(delta=d, n_photon=n, fock_cutoff=config.fock_cutoff)


def _check_full_space_dimension(params: SystemParams) -> None:
    dim = 4 * params.field_dim
    if dim > MAX_DIM:
        raise ConfigError(
            f"full-space dimension 4*(fock_cutoff+1) = {dim} exceeds the supported "
            f"maximum {MAX_DIM}; reduce n_photon or fock_cutoff"
        )


def _initial_for(config: RunConfig):
    if config.initial == "custom":
        a1, b1, a2, b2 = config.amplitudes  # type: ignore[misc]
        return TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2)
    return named_atomic_state(config.initial)


def _format_float(value: float) -> str:
    if abs(value) < FORMAT_SNAP_TOL:
        value = 0.0
    return FLOAT_FORMAT.format(value)


def run_series(config: RunConfig) -> int:
    """Write a CSV time series of populations, negativity, and class labels."""
    params = _system_params(config)
    _check_full_space_dimension(params)
    records = time_series(params, _initial_for(config), config.tau_max, config.steps)
    lines = [SERIES_HEADER]
    for record in records:
        lines.append(
            ",".join(
                [
                    _format_float(record.tau),
                    _format_float(record.p_ee),
                    _format_float(record.p_eg),
                    _format_float(record.p_ge),
                    _format_float(record.p_gg),
                    _format_float(record.negativity),
                    record.class_label,
                ]
            )
        )
    Path(config.output_path).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _sweep_values(spec: SweepSpec) -> list[float] | list[int]:
    grid = np.linspace(spec.start, spec.stop, spec.count)
    if spec.param == "n_photon":
        values = [int(round(value)) for value in grid]
        if any(value < 0 for value in values):
            raise ConfigError("n_photon sweep values must be >= 0")
        return values
    return [float(value) for value in grid]


def run_sweep(config: RunConfig) -> int:
    """Write a CSV table of negativity summary statistics per parameter value.

    Columns: the swept value, the time-averaged negativity over the window,
    the first time the negativity returns to zero, and the count of such
    zeros.  The first-zero sentinel -1 means "no downward crossing of the
    zero threshold in the window": either the negativity never rises above
    the threshold (the pair is never entangled), or it rises above it and is
    still above it at the window end.
    """
    spec = config.sweep
    assert spec is not None  # guaranteed by resolve_config
    values = _sweep_values(spec)
    initial = _initial_for(config)
    rows = [f"{spec.param},avg_negativity,first_negativity_zero,negativity_zero_count"]
    for value in values:
        if spec.param == "delta":
            params = _system_params(config, delta=float(value))
        else:
            params = _system_params(config, n_photon=int(value))
        _check_full_space_dimension(params)
        records = time_series(params, initial, config.tau_max, config.steps)
        first_zero = first_negativity_zero(records)
        row = [
            str(int(value)) if spec.param == "n_photon" else _format_float(float(value)),
            _format_float(average_negativity(records)),
            _format_float(-1.0 if first_zero is None else first_zero),
            str(negativity_zero_count(records)),
        ]
        rows.append(",".join(row))
    Path(config.output_path).write_text("\n".join(rows) + "\n")
    return EXIT_OK


def run_audit(config: RunConfig) -> int:
    """Audit the closed-form propagator and write the JSON report.

    The plain-text table goes to stdout; mismatch verdicts are findings, not
    failures, so the exit status stays 0.
    """
    params = _system_params(config)
    report = audit_closed_form(params, AUDIT_TAU_GRID)
    Path(config.output_path).write_text(report.to_json() + "\n")
    sys.stdout.write(report.to_text())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NotNormalized as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    runners = {"series": run_series, "sweep": run_sweep, "audit": run_audit}
    try:
        return runners[config.mode](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except TwoAtomCavityError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION_ERROR


def main_entry() -> None:
    """Console-script wrapper."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
