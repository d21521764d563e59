"""Reduced two-atom dynamics over a time grid.

The interaction conserves the excitation number, so a preparation
``|atoms> ⊗ |n>`` evolves inside at most three excitation blocks of at most
four states each (Tavis & Cummings 1968): |ee, n> lies in the block whose
lowest photon number is n, |eg, n> and |ge, n> in the block of n - 1, and
|gg, n> in the block of n - 2.  :func:`series_columns` diagonalizes each
block on its own, places the amplitudes on the photon levels n-2..n+2 and
walks its time grid in chunks of ``_CHUNK_SAMPLES`` samples, which bounds the
memory of the stacked arrays; no Fock space is truncated.  It returns the
samples as columns (time, populations, negativity and, unless told not to
classify, class labels), into which it writes each chunk.
:func:`time_series` is a record view of those columns.  The negativity
statistics (:func:`first_negativity_zero`, :func:`negativity_zero_count`,
:func:`average_negativity`) take records; each delegates to an array
implementation over the ``tau`` and ``negativity`` columns, which sweeps
call directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import entanglement, linalg
from .model import (
    BLOCK_PHOTON_OFFSETS,
    SystemParams,
    TwoAtomAmplitudes,
    excitation_block,
)

#: Populations more negative than this are genuine violations, not round-off.
POPULATION_CLAMP = 1e-12

#: Negativity at or below this threshold counts as zero for event detection.
NEGATIVITY_ZERO_THRESHOLD = 1e-6

#: Grid samples evaluated together by :func:`series_columns`.
_CHUNK_SAMPLES = 128


@dataclass(frozen=True)
class TimeSeriesRecord:
    """One sampled instant: populations, entanglement degree, class label."""

    tau: float
    p_ee: float
    p_eg: float
    p_ge: float
    p_gg: float
    negativity: float
    class_label: str

    @property
    def populations(self) -> tuple[float, float, float, float]:
        return (self.p_ee, self.p_eg, self.p_ge, self.p_gg)


def _atomic_vector_of(initial: TwoAtomAmplitudes | np.ndarray) -> np.ndarray:
    if isinstance(initial, TwoAtomAmplitudes):
        return initial.atomic_vector()
    vector = np.asarray(initial, dtype=np.complex128)
    if vector.shape != (4,):
        raise ValueError(
            f"initial state must be TwoAtomAmplitudes or a length-4 atomic vector, "
            f"got shape {vector.shape}"
        )
    return vector


def _populations_stack(rho: np.ndarray) -> np.ndarray:
    """Diagonals ``(batch, 4)`` of a stack of reduced matrices, clamped."""
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return np.where((-POPULATION_CLAMP < diag) & (diag < 0.0), 0.0, diag)


def populations(rho: np.ndarray) -> tuple[float, float, float, float]:
    """Diagonal of the reduced matrix with tiny negative round-off clamped.

    Values in ``(-POPULATION_CLAMP, 0)`` become exactly 0; anything more
    negative is left untouched so genuine positivity violations stay visible.
    """
    clamped = _populations_stack(np.asarray(rho)[None])[0]
    return tuple(clamped.tolist())  # type: ignore[return-value]


#: Photon levels n-2..n+2 on which the amplitudes of a sample are placed.
_LEVELS = 5


def _populated_blocks(params: SystemParams, atomic: np.ndarray) -> list[tuple]:
    """Eigensystem, initial coefficients and state positions of each populated block.

    The block whose lowest photon number is ``n - shift`` holds the prepared
    states at photon ``n`` whose photon offset equals ``shift``: |ee> for 0,
    |eg> and |ge> for 1, |gg> for 2.  Each block the preparation populates is
    diagonalized on its own; its states sit at atomic index ``kept`` and
    photon level ``offset + 2 - shift`` of the levels n-2..n+2.
    """
    offsets = np.array(BLOCK_PHOTON_OFFSETS)
    blocks = []
    for shift in (0, 1, 2):
        start = np.where(offsets == shift, atomic, 0.0)
        if not np.any(start):
            continue
        hamiltonian, kept = excitation_block(params.delta, params.n_photon - shift)
        system = linalg.eig_hermitian(hamiltonian)
        coefficients = system.eigenvectors.conj().T @ start[kept]
        blocks.append((system, coefficients, kept, offsets[kept] + 2 - shift))
    return blocks


class SeriesColumns(NamedTuple):
    """A sampled series as columns: one row per grid point.

    ``labels`` holds indices into ``entanglement.CLASS_LABELS``, or is
    ``None`` when the series was computed without classification.
    """

    tau: np.ndarray  # (T,)
    populations: np.ndarray  # (T, 4): p_ee, p_eg, p_ge, p_gg
    negativity: np.ndarray  # (T,)
    labels: np.ndarray | None  # (T,)


def series_columns(
    params: SystemParams,
    initial: TwoAtomAmplitudes | np.ndarray,
    tau_max: float,
    steps: int,
    *,
    labels: bool = True,
    classifier_kwargs: dict | None = None,
) -> SeriesColumns:
    """Sample the reduced dynamics on a uniform grid over ``[0, tau_max]``.

    The grid is ``tau_k = k * tau_max / (steps - 1)``.  Each excitation block
    the preparation populates is diagonalized once; the grid is then
    evaluated in chunks of ``_CHUNK_SAMPLES`` samples, each chunk costing one
    stacked phase rotation, one stacked partial trace over the five photon
    levels n-2..n+2, one stacked partial-transpose spectrum for the
    negativity and, when ``labels`` is true, one classification pass that
    reuses that negativity.  At ``tau = 0`` the initial state is used
    bit-exactly.

    Raises:
        ValueError: if ``steps < 2`` or ``tau_max`` is not positive and finite.
        NotNormalized: if a sampled state's squared norm is off by
            ``linalg.NORMALIZATION_TOL`` or is not finite (a phase that
            overflows makes it NaN).
    """
    if int(steps) != steps or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not (0.0 < tau_max < np.inf):
        raise ValueError(f"tau_max must be positive and finite, got {tau_max!r}")
    classifier_kwargs = classifier_kwargs or {}
    atomic = _atomic_vector_of(initial)
    blocks = _populated_blocks(params, atomic)
    prepared = np.zeros((4, _LEVELS), dtype=np.complex128)
    prepared[:, 2] = atomic
    taus = np.linspace(0.0, float(tau_max), int(steps))
    populations_column = np.empty((len(taus), 4))
    negativity_column = np.empty(len(taus))
    label_column = np.empty(len(taus), dtype=np.intp) if labels else None
    for start in range(0, len(taus), _CHUNK_SAMPLES):
        chunk = taus[start : start + _CHUNK_SAMPLES]
        rows = slice(start, start + len(chunk))
        amplitudes = np.zeros((len(chunk), 4, _LEVELS), dtype=np.complex128)
        for system, coefficients, atoms, levels in blocks:
            # An overflowing tau * eigenvalue makes the phase NaN, which the
            # norm check of the partial trace reports as one error.
            with np.errstate(over="ignore", invalid="ignore"):
                phased = np.exp(-1j * system.eigenvalues * chunk[:, None]) * coefficients
            amplitudes[:, atoms, levels] = (system.eigenvectors @ phased[:, :, None])[:, :, 0]
        amplitudes[chunk == 0.0] = prepared
        rho = linalg._partial_trace_stack(amplitudes)
        degree, _ = entanglement._negativity_stack(rho)
        populations_column[rows] = _populations_stack(rho)
        negativity_column[rows] = degree
        if label_column is not None:
            label_column[rows] = entanglement._classify_stack(
                rho, degree, **classifier_kwargs
            )
    return SeriesColumns(taus, populations_column, negativity_column, label_column)


def time_series(
    params: SystemParams,
    initial: TwoAtomAmplitudes | np.ndarray,
    tau_max: float,
    steps: int,
    classifier_kwargs: dict | None = None,
) -> list[TimeSeriesRecord]:
    """One :class:`TimeSeriesRecord` per sample of :func:`series_columns`.

    Takes the same arguments, classifies every sample, and raises the same
    errors.
    """
    columns = series_columns(
        params, initial, tau_max, steps, classifier_kwargs=classifier_kwargs
    )
    names = entanglement.CLASS_LABELS
    return [
        TimeSeriesRecord(tau, p_ee, p_eg, p_ge, p_gg, value, names[label])
        for tau, (p_ee, p_eg, p_ge, p_gg), value, label in zip(
            columns.tau.tolist(),
            columns.populations.tolist(),
            columns.negativity.tolist(),
            columns.labels.tolist(),
        )
    ]


def _downward_crossings(gaps: np.ndarray) -> np.ndarray:
    """Mask ``(T - 1,)`` of the sample pairs whose gap drops from above 0 to at or below it."""
    return (gaps[:-1] > 0.0) & (gaps[1:] <= 0.0)


def _first_negativity_zero(
    tau: np.ndarray, negativity: np.ndarray, threshold: float = NEGATIVITY_ZERO_THRESHOLD
) -> float | None:
    """:func:`first_negativity_zero` of the columns ``tau`` and ``negativity``."""
    gaps = negativity - threshold
    drops = np.flatnonzero(_downward_crossings(gaps))
    if drops.size == 0:
        return None
    k = int(drops[0])
    gap_before, gap_after = gaps[k].item(), gaps[k + 1].item()
    tau_before, tau_after = tau[k].item(), tau[k + 1].item()
    fraction = gap_before / (gap_before - gap_after)
    return tau_before + (tau_after - tau_before) * fraction


def _negativity_zero_count(
    negativity: np.ndarray, threshold: float = NEGATIVITY_ZERO_THRESHOLD
) -> int:
    """:func:`negativity_zero_count` of the column ``negativity``."""
    return int(np.count_nonzero(_downward_crossings(negativity - threshold)))


def _average_negativity(tau: np.ndarray, negativity: np.ndarray) -> float:
    """:func:`average_negativity` of the columns ``tau`` and ``negativity``.

    The interior samples are summed one by one in Python, not by
    ``np.sum``, whose pairwise summation rounds differently.
    """
    if len(tau) < 2:
        raise ValueError("need at least two records to average")
    values = negativity.tolist()
    dt = tau[1].item() - tau[0].item()
    integral = dt * (0.5 * values[0] + sum(values[1:-1]) + 0.5 * values[-1])
    window = tau[-1].item() - tau[0].item()
    return integral / window


def _record_columns(records: Sequence[TimeSeriesRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The ``tau`` and ``negativity`` columns of a record sequence."""
    tau = np.array([record.tau for record in records], dtype=float)
    negativity = np.array([record.negativity for record in records], dtype=float)
    return tau, negativity


def first_negativity_zero(
    records: Sequence[TimeSeriesRecord],
    threshold: float = NEGATIVITY_ZERO_THRESHOLD,
) -> float | None:
    """First time the negativity falls back to zero, or ``None``.

    A "zero" is a downward crossing of ``threshold``: the sampled negativity
    sits above it at one grid point and at or below it at the next.  The
    crossing time is linearly interpolated between the two grid points.
    """
    return _first_negativity_zero(*_record_columns(records), threshold)


def negativity_zero_count(
    records: Sequence[TimeSeriesRecord],
    threshold: float = NEGATIVITY_ZERO_THRESHOLD,
) -> int:
    """Number of downward threshold crossings of the negativity."""
    return _negativity_zero_count(_record_columns(records)[1], threshold)


def average_negativity(records: Sequence[TimeSeriesRecord]) -> float:
    """Time average of the negativity over the sampled window.

    Computed as the trapezoid integral of the linear interpolant divided by
    the window length.
    """
    return _average_negativity(*_record_columns(records))


def midline_crossing_count(values: Iterable[float], midline: float = 0.5) -> int:
    """Count strict sign changes of ``values - midline``.

    Used to quantify how often a population oscillates through its midpoint.
    """
    signs = [value - midline for value in values]
    count = 0
    previous = None
    for gap in signs:
        if gap == 0.0:
            continue
        current = gap > 0.0
        if previous is not None and current != previous:
            count += 1
        previous = current
    return count
