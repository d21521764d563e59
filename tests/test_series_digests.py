"""Byte-identity of series, sweep and audit artifacts against a recorded digest table.

``data/series_digests.json`` maps each command line below to the sha256 of
the file it writes followed by what it prints to stdout. The table pins the
CSV bytes across refactors of the sample pipeline: the 13 presets, entangled
and custom preparations at several (delta, n_photon) points, and step counts
on both sides of 128 and 1024, chunk sizes of the sample pipeline (2, 127,
128, 129, 1001, 1023, 1024 and 1025), plus sweeps: delta sweeps of the eg,
ee, gg and singlet preparations (the singlet never crosses zero), eg sweeps
at 2, 3, 129 and 1001 steps (crossings on both sides of the chunk boundary),
a long-window eg sweep, two photon-number sweeps over 0..9, and a delta
sweep and a photon-number sweep over 0..3 whose rows cross a chunk boundary
inside a point; and gg, eg and custom series at the photon number
2**53 + 3, above the integers a double holds exactly. It also pins the JSON
report and the text table of six closed-form audits.

Regenerate the table (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_series_digests.py

The regenerator prints each key that is new, changed or removed, so that a
regeneration shows which recorded digests moved.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from twoatomcavity import cli

TABLE = Path(__file__).resolve().parent / "data" / "series_digests.json"

CUSTOM_AMPLITUDES = ("0.6,0.8,0.8,0.6j", "0.28,0.96j,1,0")

#: (delta, n_photon, tau_max) points for the prepared states.
POINTS = (("0.0", "0", "10"), ("0.37", "3", "3.7"), ("1.0", "9", "10"))

STEPS = ("2", "127", "128", "129", "1001", "1023", "1024", "1025")

AUDIT_DELTAS = ("0", "0.37", "1")

AUDIT_PHOTONS = ("0", "9")

SWEEP_STEPS = ("2", "3", "129", "1001")


def _cases() -> list[tuple[str, ...]]:
    cases = [("--preset", name) for name in sorted(cli.PRESETS)]
    preparations = [("--initial", "eg"), ("--initial", "ge"), ("--initial", "singlet")]
    preparations += [("--initial", "custom", "--amplitudes", a) for a in CUSTOM_AMPLITUDES]
    for preparation in preparations:
        for delta, n_photon, tau_max in POINTS:
            for steps in STEPS:
                cases.append(
                    preparation
                    + ("--delta", delta, "--n-photon", n_photon,
                       "--tau-max", tau_max, "--steps", steps)
                )
    for steps in SWEEP_STEPS:
        cases.append(
            ("--sweep", "delta:0:1:5", "--initial", "eg", "--n-photon", "2", "--steps", steps)
        )
    for initial in ("ee", "gg", "singlet"):
        cases.append(
            ("--sweep", "delta:0:1:5", "--initial", initial, "--n-photon", "1", "--steps", "501")
        )
    cases.append(
        ("--sweep", "delta:0.1:1.0:6", "--initial", "eg", "--n-photon", "2", "--tau-max", "1e6")
    )
    cases.append(("--sweep", "n_photon:0:9:10", "--initial", "gg"))
    # 5 x 300 and 4 x 300 rows: the row stack of these sweeps crosses a
    # 1024-row chunk boundary inside the fourth point.
    cases.append(
        ("--sweep", "delta:0:1:5", "--initial", "eg", "--n-photon", "2", "--steps", "300")
    )
    cases.append(
        ("--sweep", "n_photon:0:3:4", "--initial", "custom", "--amplitudes",
         CUSTOM_AMPLITUDES[0], "--delta", "0.4", "--steps", "300")
    )
    cases.append(
        ("--sweep", "n_photon:0:9:10", "--initial", "custom", "--amplitudes",
         CUSTOM_AMPLITUDES[0], "--delta", "0.4", "--steps", "201")
    )
    # Above 2**53 a double does not hold every integer, and float(n) - 2
    # differs from float(n - 2): these pin that the lowest photon number of
    # each block is formed as an exact integer before it becomes a double.
    for preparation in (("--initial", "gg"), ("--initial", "eg"),
                        ("--initial", "custom", "--amplitudes", CUSTOM_AMPLITUDES[0])):
        cases.append(preparation + ("--n-photon", str(2**53 + 3), "--steps", "50"))
    for delta in AUDIT_DELTAS:
        for n_photon in AUDIT_PHOTONS:
            cases.append(("--mode", "audit", "--delta", delta, "--n-photon", n_photon))
    return cases


CASES = _cases()


def _digest(argv: tuple[str, ...], directory: Path) -> str:
    out = directory / "artifact"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--output", str(out)])
    assert code == 0, argv
    return hashlib.sha256(out.read_bytes() + stdout.getvalue().encode()).hexdigest()


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(" ".join(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_artifact_matches_recorded_digest(argv, tmp_path):
    table = json.loads(TABLE.read_text())
    assert _digest(argv, tmp_path) == table[" ".join(argv)]


if __name__ == "__main__":
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        digests = {" ".join(argv): _digest(argv, Path(scratch)) for argv in CASES}
    for status, keys in (
        ("new", sorted(set(digests) - set(old))),
        ("changed", sorted(k for k in digests if k in old and digests[k] != old[k])),
        ("removed", sorted(set(old) - set(digests))),
    ):
        for key in keys:
            print(f"{status}: {key}", file=sys.stderr)
    TABLE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
