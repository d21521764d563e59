"""Shared fixtures: a seeded generator and repository paths."""
from __future__ import annotations

import os

# One BLAS thread, set before NumPy is first imported: on a busy two-core
# host a multithreaded BLAS makes the small stacked eigh calls many times
# slower.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

TESTS_DIR = Path(__file__).resolve().parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


@pytest.fixture
def data_dir() -> Path:
    return TESTS_DIR / "data"
