"""Reference figures of single library calls, best of repeated timings.

    python3 bench/baseline.py

Prints the in-process figures of the ROADMAP baseline table: ``time_series``
with 1001 steps at n = 3, one 4x4 ``negativity``, ``classify`` on a separable
and on an entangled state, and the 64x64 ``eig_hermitian``.
"""
from __future__ import annotations

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from twoatomcavity import (
    SystemParams,
    classify,
    eig_hermitian,
    full_hamiltonian,
    named_atomic_state,
    negativity,
    time_series,
)


def best(function, repeats: int, number: int) -> float:
    """Best over ``repeats`` of the mean time of ``number`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            function()
        times.append((time.perf_counter() - start) / number)
    return min(times)


def main() -> None:
    fig3a = SystemParams(delta=0.5, n_photon=3)
    ee = named_atomic_state("ee")
    separable = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    bell = np.outer([0, 1, 1, 0], [0, 1, 1, 0]).astype(complex) / 2
    h64 = full_hamiltonian(SystemParams(delta=0.5, n_photon=9))
    cases = [
        ("time_series, 1001 steps, n=3", lambda: time_series(fig3a, ee, 10.0, 1001), 5, 1),
        ("one 4x4 negativity", lambda: negativity(bell), 5, 2000),
        ("classify, separable state", lambda: classify(separable), 5, 2000),
        ("classify, entangled state", lambda: classify(bell), 5, 2000),
        ("64x64 eig_hermitian", lambda: eig_hermitian(h64), 5, 200),
    ]
    for name, function, repeats, number in cases:
        seconds = best(function, repeats, number)
        print(f"{name:32s} {seconds * 1e6:12.1f} us")


if __name__ == "__main__":
    main()
