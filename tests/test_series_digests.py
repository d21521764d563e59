"""Byte-identity of series and sweep artifacts against a recorded digest table.

``data/series_digests.json`` maps each command line below to the sha256 of
the file it writes. The table pins the CSV bytes across refactors of the
sample pipeline: the 13 presets, entangled and custom preparations at several
(delta, n_photon) points, and step counts on both sides of the time-series
chunk boundary (2, 127, 128, 129 and 1001), plus one delta and one
photon-number sweep.

Regenerate the table (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_series_digests.py
"""
from __future__ import annotations

import hashlib
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

STEPS = ("2", "127", "128", "129", "1001")


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
    cases.append(
        ("--sweep", "delta:0:1:5", "--initial", "eg", "--n-photon", "2", "--steps", "129")
    )
    cases.append(
        ("--sweep", "n_photon:0:9:10", "--initial", "custom", "--amplitudes",
         CUSTOM_AMPLITUDES[0], "--delta", "0.4", "--steps", "201")
    )
    return cases


CASES = _cases()


def _digest(argv: tuple[str, ...], directory: Path) -> str:
    out = directory / "artifact.csv"
    code = cli.main([*argv, "--output", str(out)])
    assert code == 0, argv
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(" ".join(c) for c in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_artifact_matches_recorded_digest(argv, tmp_path):
    table = json.loads(TABLE.read_text())
    assert _digest(argv, tmp_path) == table[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = {" ".join(argv): _digest(argv, Path(scratch)) for argv in CASES}
    TABLE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
