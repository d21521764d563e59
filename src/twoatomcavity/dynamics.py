"""Reduced two-atom dynamics over a time grid.

The interaction conserves the excitation number, so a preparation
``|atoms> ⊗ |n>`` evolves inside at most three excitation blocks of at most
four states each (Tavis & Cummings 1968): |ee, n> lies in the block whose
lowest photon number is n, |eg, n> and |ge, n> in the block of n - 1, and
|gg, n> in the block of n - 2.  :func:`time_series` diagonalizes each block
on its own, places the amplitudes on the photon levels n-2..n+2 and walks
its time grid in chunks of ``_CHUNK_SAMPLES`` samples, which bounds the
memory of the stacked arrays; no Fock space is truncated.
:func:`evolve_reduced` evolves the truncated full space instead and is kept
as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import entanglement, linalg
from .model import (
    BLOCK_PHOTON_OFFSETS,
    SystemParams,
    TwoAtomAmplitudes,
    excitation_block,
    joint_state_from_atomic,
)
from .propagator import propagate_full

#: Populations more negative than this are genuine violations, not round-off.
POPULATION_CLAMP = 1e-12

#: Negativity at or below this threshold counts as zero for event detection.
NEGATIVITY_ZERO_THRESHOLD = 1e-6

#: Grid samples evaluated together by :func:`time_series`.
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


def evolve_reduced(
    params: SystemParams, initial: TwoAtomAmplitudes | np.ndarray, tau: float
) -> np.ndarray:
    """Reduced two-atom density matrix at scaled time ``tau``.

    Evolves the joint state in the truncated full space, then traces out the
    field: the independent oracle for :func:`time_series`.  ``initial`` is a
    product-state description or a length-4 atomic vector (basis |ee>, |eg>,
    |ge>, |gg>) tensored with ``|n_photon>``.
    """
    psi0 = joint_state_from_atomic(_atomic_vector_of(initial), params)
    evolved = propagate_full(params, tau, psi0)
    return linalg.partial_trace_field(evolved)


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


def time_series(
    params: SystemParams,
    initial: TwoAtomAmplitudes | np.ndarray,
    tau_max: float,
    steps: int,
    classifier_kwargs: dict | None = None,
) -> list[TimeSeriesRecord]:
    """Sample the reduced dynamics on a uniform grid over ``[0, tau_max]``.

    The grid is ``tau_k = k * tau_max / (steps - 1)``.  Each excitation block
    the preparation populates is diagonalized once; the grid is then
    evaluated in chunks of ``_CHUNK_SAMPLES`` samples, each chunk costing one
    stacked phase rotation, one stacked partial trace over the five photon
    levels n-2..n+2, one stacked partial-transpose spectrum for the
    negativity and one classification pass that reuses that negativity.  At
    ``tau = 0`` the initial state is used bit-exactly.

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
    records = []
    for start in range(0, len(taus), _CHUNK_SAMPLES):
        chunk = taus[start : start + _CHUNK_SAMPLES]
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
        labels, _, _ = entanglement._classify_stack(rho, degree, **classifier_kwargs)
        records.extend(
            TimeSeriesRecord(tau, p_ee, p_eg, p_ge, p_gg, value, entanglement.CLASS_LABELS[label])
            for tau, (p_ee, p_eg, p_ge, p_gg), value, label in zip(
                chunk.tolist(), _populations_stack(rho).tolist(), degree.tolist(), labels.tolist()
            )
        )
    return records


def first_negativity_zero(
    records: Sequence[TimeSeriesRecord],
    threshold: float = NEGATIVITY_ZERO_THRESHOLD,
) -> float | None:
    """First time the negativity falls back to zero, or ``None``.

    A "zero" is a downward crossing of ``threshold``: the sampled negativity
    sits above it at one grid point and at or below it at the next.  The
    crossing time is linearly interpolated between the two grid points.
    """
    for before, after in zip(records, records[1:]):
        gap_before = before.negativity - threshold
        gap_after = after.negativity - threshold
        if gap_before > 0.0 >= gap_after:
            fraction = gap_before / (gap_before - gap_after)
            return before.tau + (after.tau - before.tau) * fraction
    return None


def negativity_zero_count(
    records: Sequence[TimeSeriesRecord],
    threshold: float = NEGATIVITY_ZERO_THRESHOLD,
) -> int:
    """Number of downward threshold crossings of the negativity."""
    count = 0
    for before, after in zip(records, records[1:]):
        if before.negativity - threshold > 0.0 >= after.negativity - threshold:
            count += 1
    return count


def average_negativity(records: Sequence[TimeSeriesRecord]) -> float:
    """Time average of the negativity over the sampled window.

    Computed as the trapezoid integral of the linear interpolant divided by
    the window length.
    """
    if len(records) < 2:
        raise ValueError("need at least two records to average")
    values = [record.negativity for record in records]
    dt = records[1].tau - records[0].tau
    integral = dt * (0.5 * values[0] + sum(values[1:-1]) + 0.5 * values[-1])
    window = records[-1].tau - records[0].tau
    return integral / window


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
