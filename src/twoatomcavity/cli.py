"""Command-line front end: time series, parameter sweeps, closed-form audits.

Configuration comes from four layers, later layers overriding earlier ones:
built-in defaults, a named ``--preset``, a JSON ``--config`` file whose keys
mirror the run-configuration fields, and explicit command-line flags.

Series and sweeps evolve each excitation block exactly, so any photon
number and any finite window is accepted.  Exit codes: 0 on success, 1 on
invalid input (a one-line ``error:`` message), 2 on a computation error such
as a time window whose phases overflow.  Output files are deterministic:
re-running the same configuration on the same build produces byte-identical
bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import (
    SeriesColumns,
    average_negativity,
    first_negativity_zero,
    negativity_zero_count,
    time_series,
)
from .entanglement import CLASS_LABELS
from .errors import NotNormalized, TwoAtomCavityError
from .model import (
    ATOMIC_STATE_NAMES,
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

#: The run-configuration keys and their built-in defaults.  Config files
#: take exactly these keys, and each has a flag of the same dest.
_DEFAULTS: dict = {
    "mode": None,
    "delta": 0.0,
    "n_photon": 0,
    "initial": "ee",
    "amplitudes": None,
    "tau_max": 10.0,
    "steps": 1001,
    "output_path": None,
    "sweep": None,
}

_DEFAULT_OUTPUTS = {"series": "series.csv", "sweep": "sweep.csv", "audit": "audit.json"}


class ConfigError(Exception):
    """Invalid user input (flag, config file, or preset combination)."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter scan: which parameter and the values it takes, in order."""

    param: str
    values: tuple[float, ...] | tuple[int, ...]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    mode: str
    params: SystemParams
    initial: str
    amplitudes: TwoAtomAmplitudes | None
    tau_max: float
    steps: int
    output_path: str
    sweep: SweepSpec | None


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on invalid flags."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        # argparse quotes unrecognized arguments and ambiguous options
        # verbatim; a line break in one must not split the message.
        message = "\\n".join(message.splitlines())
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
    parser.add_argument("--output", dest="output_path", default=None, metavar="PATH",
                        help="output file path")
    parser.add_argument("--sweep", default=None, metavar="PARAM:START:STOP:COUNT",
                        help="scan a parameter (delta or n_photon)")
    return parser


def _parse_complex(value: object) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real("amplitude", value[0]), _real("amplitude", value[1]))
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
    return tuple(_parse_complex(part) for part in parts)  # type: ignore[return-value]


def _real(name: str, value: object) -> float:
    """A configuration number as a float; booleans are not numbers here."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _integer(name: str, value: object) -> int:
    """A configuration integer; an integral float such as 3.0 is accepted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, float)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _parse_sweep(value: object) -> SweepSpec:
    """The sweep's parameter and values from ``param:start:stop:count`` or a dict."""
    keys = ("param", "start", "stop", "count")
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"sweep must look like param:start:stop:count, got {value!r}"
            )
        value = dict(zip(keys, parts))
    if not (isinstance(value, dict) and all(key in value for key in keys)):
        raise ConfigError(f"bad sweep specification {value!r}")
    param = str(value["param"])
    start = _real("sweep start", value["start"])
    stop = _real("sweep stop", value["stop"])
    count = _integer("sweep count", value["count"])
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {param!r}")
    if count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {count}")
    # Finite ends too far apart would overflow the grid's step into NaN points.
    if not math.isfinite(stop - start):
        raise ConfigError(
            f"sweep start, stop and their distance must be finite, got {start!r} and {stop!r}"
        )
    grid = np.linspace(start, stop, count)
    if param == "delta":
        return SweepSpec(param, tuple(grid.tolist()))
    values = tuple(int(round(point)) for point in grid)
    if any(point < 0 for point in values):
        raise ConfigError("n_photon sweep values must be >= 0")
    repeated = sorted(point for point, times in Counter(values).items() if times > 1)
    if repeated:
        raise ConfigError(
            f"n_photon sweep rounds {count} points onto repeated values {repeated}; "
            "use at most one point per integer"
        )
    return SweepSpec(param, values)


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    # ValueError: a NUL in the path, or bytes that are not UTF-8.
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    # RecursionError: arrays or objects nested deeper than the decoder recurses.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {sorted(_DEFAULTS)}"
        )
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, preset, config file, and flags into a RunConfig."""
    merged = dict(_DEFAULTS)
    if args.preset is not None:
        merged.update(PRESETS[args.preset])
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key)
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
    if initial == "custom" and merged["amplitudes"] is None:
        raise ConfigError("initial=custom needs --amplitudes a1,b1,a2,b2")

    amplitudes = None
    try:
        if initial == "custom":
            amplitudes = TwoAtomAmplitudes(*_parse_amplitudes(merged["amplitudes"]))
        params = SystemParams(
            delta=_real("delta", merged["delta"]),
            n_photon=_integer("n_photon", merged["n_photon"]),
        )
    except (NotNormalized, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    tau_max = _real("tau_max", merged["tau_max"])
    steps = _integer("steps", merged["steps"])
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if not (0.0 < tau_max < math.inf):
        raise ConfigError(f"tau_max must be positive and finite, got {tau_max}")

    output_path = merged["output_path"]
    if not (output_path is None or isinstance(output_path, str)):
        raise ConfigError(f"output_path must be a string or null, got {output_path!r}")
    output_path = output_path or _DEFAULT_OUTPUTS[mode]
    return RunConfig(
        mode=mode,
        params=params,
        initial=initial,
        amplitudes=amplitudes,
        tau_max=tau_max,
        steps=steps,
        output_path=output_path,
        sweep=sweep,
    )


def _initial_for(config: RunConfig):
    if config.initial == "custom":
        return config.amplitudes
    return named_atomic_state(config.initial)


def _format_float(value: float) -> str:
    if abs(value) < FORMAT_SNAP_TOL:
        value = 0.0
    return FLOAT_FORMAT.format(value)


#: One series row: six floats as ``FLOAT_FORMAT`` writes them, then the label.
_SERIES_ROW_FORMAT = ",".join(["%.11e"] * 6 + ["%s"])

#: Largest decimal exponent written from digit arrays; it keeps the exponent
#: at two digits and the power of ten below a normal float's range.
_DIGIT_EXPONENT_LIMIT = 99

#: ``10.0**k`` correctly rounded, for ``k = e - 11`` and ``|e| <= _DIGIT_EXPONENT_LIMIT``.
_DIGIT_POWERS = np.array(
    [float(f"1e{e - 11}") for e in range(-_DIGIT_EXPONENT_LIMIT, _DIGIT_EXPONENT_LIMIT + 1)]
)

#: Fractional parts of the scaled mantissa this close to one half are left to
#: Python: the scaling rounds it by at most about 2.2e-4.
_DIGIT_TIE_WINDOW = 1e-3

#: Each four-digit group 0000..9999 as ASCII bytes, built from its digits.
_DIGIT_GROUPS = (
    (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
     + ord("0"))
    .astype(np.uint8)
    .view("S4")[:, 0]
)

#: A 17-character field ``d.ddddddddddde+XX`` and the comma after it.
_FIELD_TEMPLATE = np.frombuffer(b"0.00000000000e+00,", dtype=np.uint8)
_ROW_WIDTH = 6 * len(_FIELD_TEMPLATE)


def _field_digits(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mantissa integers, decimal exponents and a mask of the fields they decide.

    A decided field is zero, or positive and finite with a two-digit
    exponent: ``e = floor(log10 x)`` and ``D = rint(x / 10^(e - 11))``, with
    ``10^12`` carried into ``e + 1``.  ``D`` is what ``%.11e`` writes unless
    the scaled mantissa lies within ``_DIGIT_TIE_WINDOW`` of a rounding tie
    or falls short of twelve integer digits (an exponent one too high, from
    ``log10`` or from the clip), or ``D`` exceeds twelve digits (an exponent
    one too low); such fields are undecided.  A mantissa short of ``10^11``
    by less than the window rounds to ``10^11`` under either exponent.
    """
    positive = (table > 0.0) & (table < np.inf)
    # Zeros and undecided fields are scaled as 1.0, which keeps every step
    # finite; a zero's exponent is then 0, as written.
    magnitude = np.where(positive, table, 1.0)
    limit = _DIGIT_EXPONENT_LIMIT
    exponent = np.clip(np.floor(np.log10(magnitude)).astype(np.int64), -limit, limit)
    scaled = magnitude / _DIGIT_POWERS[exponent + limit]
    mantissa = np.rint(scaled)
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    exponent += carry
    positive &= (
        (np.abs(scaled - np.floor(scaled) - 0.5) > _DIGIT_TIE_WINDOW)
        & (scaled >= 1e11 - _DIGIT_TIE_WINDOW)
        & (mantissa < 1e12)
        & (np.abs(exponent) <= limit)
    )
    mantissa = np.where(positive, mantissa, 0.0).astype(np.int64)
    return mantissa, exponent, positive | (table == 0.0)


def _format_series_rows(columns: SeriesColumns) -> list[str]:
    """CSV rows of a classified series, each field as :func:`_format_float` writes it.

    Fields are written from digit arrays (:func:`_field_digits`); a row with
    a field those do not decide (a near-tie, a negative or non-finite value,
    an exponent of three digits) is formatted by ``%.11e`` instead.
    """
    table = np.column_stack((columns.tau, columns.populations, columns.negativity))
    # abs(-0.0) is below the tolerance too, so a negative zero prints as 0.
    table = np.where(np.abs(table) < FORMAT_SNAP_TOL, 0.0, table)
    mantissa, exponent, decided = _field_digits(table)
    # The first group of a twelve-digit mantissa is its leading digit and
    # the first three after the point.
    groups = np.stack((mantissa // 10**8, mantissa // 10**4 % 10**4, mantissa % 10**4), axis=-1)
    digits = _DIGIT_GROUPS.take(groups).view(np.uint8).reshape(len(table), 6, 12)
    chars = np.empty((len(table), 6, len(_FIELD_TEMPLATE)), dtype=np.uint8)
    chars[...] = _FIELD_TEMPLATE
    chars[:, :, 0] = digits[:, :, 0]
    chars[:, :, 2:13] = digits[:, :, 1:]
    chars[:, :, 14] = np.where(exponent < 0, ord("-"), ord("+"))
    chars[:, :, 15:17] = _DIGIT_GROUPS.take(np.abs(exponent) % 100).view(np.uint8).reshape(
        len(table), 6, 4
    )[:, :, 2:]
    text = chars.tobytes().decode("ascii")
    names = CLASS_LABELS
    rows = [
        text[start : start + _ROW_WIDTH] + names[label]
        for start, label in zip(range(0, len(text), _ROW_WIDTH), columns.labels.tolist())
    ]
    for index in np.flatnonzero(~np.all(decided, axis=1)).tolist():
        rows[index] = _SERIES_ROW_FORMAT % (*table[index].tolist(), names[columns.labels[index]])
    return rows


def _write_output(path: str, text: str) -> None:
    """Write an artifact; a path that cannot be written is invalid input."""
    try:
        Path(path).write_text(text)
    # ValueError: a NUL in the path.
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def run_series(config: RunConfig) -> int:
    """Write a CSV time series of populations, negativity, and class labels."""
    columns = time_series(config.params, _initial_for(config), config.tau_max, config.steps)
    lines = [SERIES_HEADER, *_format_series_rows(columns)]
    _write_output(config.output_path, "\n".join(lines) + "\n")
    return EXIT_OK


def run_sweep(config: RunConfig) -> int:
    """Write a CSV table of negativity summary statistics per parameter value.

    Columns: the swept value (a detuning as ``FLOAT_FORMAT`` writes it, with
    no round-off snap, since it is an input; negative zero prints as 0), the
    time-averaged negativity over the window,
    the first time the negativity returns to zero, and the count of such
    zeros.  The first-zero sentinel -1 means "no downward crossing of the
    zero threshold in the window": either the negativity never rises above
    the threshold (the pair is never entangled), or it rises above it and is
    still above it at the window end.

    All points are evaluated in one stacked call, which returns only their
    negativity columns; the statistics are taken per point from its column.
    """
    spec = config.sweep
    assert spec is not None  # guaranteed by resolve_config
    points = [replace(config.params, **{spec.param: value}) for value in spec.values]
    columns = time_series(points, _initial_for(config), config.tau_max, config.steps)
    rows = [f"{spec.param},avg_negativity,first_negativity_zero,negativity_zero_count"]
    for value, negativity in zip(spec.values, columns.negativity):
        first_zero = first_negativity_zero(columns.tau, negativity)
        row = [
            str(value) if spec.param == "n_photon" else FLOAT_FORMAT.format(value + 0.0),
            _format_float(average_negativity(columns.tau, negativity)),
            _format_float(-1.0 if first_zero is None else first_zero),
            str(negativity_zero_count(negativity)),
        ]
        rows.append(",".join(row))
    _write_output(config.output_path, "\n".join(rows) + "\n")
    return EXIT_OK


def run_audit(config: RunConfig) -> int:
    """Audit the closed-form propagator and write the JSON report.

    The plain-text table goes to stdout; mismatch verdicts are findings, not
    failures, so the exit status stays 0.
    """
    report = audit_closed_form(config.params, AUDIT_TAU_GRID)
    _write_output(config.output_path, report.to_json() + "\n")
    sys.stdout.write(report.to_text())
    return EXIT_OK


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    runners = {"series": run_series, "sweep": run_sweep, "audit": run_audit}
    try:
        config = resolve_config(args)
        return runners[config.mode](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except TwoAtomCavityError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION_ERROR
    except MemoryError as exc:
        # A grid or sweep too large to allocate, such as --steps 10**15.
        print(f"computation error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTATION_ERROR


def main_entry() -> None:
    """Console-script wrapper."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
