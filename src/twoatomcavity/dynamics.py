"""Reduced two-atom dynamics over a time grid.

The authoritative path evolves the joint atoms-plus-field state in the
truncated full space and traces the field out exactly.  For initial states
confined to a single invariant subspace (|ee, n> or, for ``n >= 2``,
|gg, n>), the reduced state is also computable from the four subspace
amplitudes alone; both paths agree within 1e-10 and the subspace route
exists as a cross-check, not as the production path.

:func:`time_series` diagonalizes the full Hamiltonian once and then walks
its time grid in chunks of ``_CHUNK_SAMPLES`` samples.  Each chunk costs a
few stacked array operations: one phase rotation of every sample, the
truncation and norm checks, the partial traces, one stacked partial-transpose
spectrum (the negativity, computed once per sample and handed to the
classifier) and one classification pass.  The chunk size bounds the memory
of the stacked arrays; the records are bit-identical to evaluating each
sample on its own with :func:`evolve_reduced`'s building blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import entanglement, linalg
from .errors import TruncationLeak
from .model import (
    SystemParams,
    TwoAtomAmplitudes,
    full_hamiltonian,
    joint_state_from_atomic,
    subspace_hamiltonian,
)
from .propagator import TRUNCATION_TOL, propagate_full

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
    field.  ``initial`` is a product-state description or a length-4 atomic
    vector (basis |ee>, |eg>, |ge>, |gg>) tensored with ``|n_photon>``.
    """
    psi0 = joint_state_from_atomic(_atomic_vector_of(initial), params)
    evolved = propagate_full(params, tau, psi0)
    return linalg.partial_trace_field(evolved)


def _single_subspace_rho(amplitudes: np.ndarray) -> np.ndarray:
    """Reduced matrix for four amplitudes riding one invariant subspace.

    The four joint components live on photon sectors (n, n+1, n+1, n+2), so
    field orthogonality kills every coherence except the middle pair, which
    shares one sector.
    """
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[np.arange(4), np.arange(4)] = np.abs(amplitudes) ** 2
    rho[1, 2] = amplitudes[1] * np.conj(amplitudes[2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def evolve_reduced_subspace(params: SystemParams, which: str, tau: float) -> np.ndarray:
    """Reduced density matrix via the 4-dimensional subspace only.

    Supports ``which="ee"`` (any photon number) and ``which="gg"`` for
    ``n_photon >= 2`` (the ladder from |gg, n> is the subspace built on
    ``n_photon - 2``).  Exists as an independent route for agreement tests.
    """
    if which == "ee":
        u = linalg.expm_i_hermitian(subspace_hamiltonian(params), tau)
        amplitudes = u[:, 0]
    elif which == "gg":
        if params.n_photon < 2:
            raise ValueError(
                "the subspace route for a ground-state pair needs n_photon >= 2; "
                "below that the ladder truncates and the full-space path applies"
            )
        shifted = replace(
            params,
            n_photon=params.n_photon - 2,
            fock_cutoff=params.fock_cutoff,
        )
        u = linalg.expm_i_hermitian(subspace_hamiltonian(shifted), tau)
        amplitudes = u[:, 3]
    else:
        raise ValueError(f"subspace route supports 'ee' or 'gg', got {which!r}")
    return _single_subspace_rho(amplitudes)


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


def time_series(
    params: SystemParams,
    initial: TwoAtomAmplitudes | np.ndarray,
    tau_max: float,
    steps: int,
    classifier_kwargs: dict | None = None,
) -> list[TimeSeriesRecord]:
    """Sample the reduced dynamics on a uniform grid over ``[0, tau_max]``.

    The grid is ``tau_k = k * tau_max / (steps - 1)``.  The full Hamiltonian
    is diagonalized once; the grid is then evaluated in chunks of
    ``_CHUNK_SAMPLES`` samples, each chunk costing one stacked phase rotation,
    one stacked partial trace, one stacked partial-transpose spectrum for the
    negativity and one classification pass that reuses that negativity.  At
    ``tau = 0`` the initial state is used bit-exactly.

    Raises:
        ValueError: if ``steps < 2`` or ``tau_max`` is not positive and finite.
        TruncationLeak: if any sampled state populates the top two retained
            Fock levels; the message names the first such ``tau`` of the grid.
    """
    if int(steps) != steps or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not (0.0 < tau_max < np.inf):
        raise ValueError(f"tau_max must be positive and finite, got {tau_max!r}")
    classifier_kwargs = classifier_kwargs or {}
    psi0 = joint_state_from_atomic(_atomic_vector_of(initial), params)
    system = linalg.eig_hermitian(full_hamiltonian(params))
    coefficients = system.eigenvectors.conj().T @ psi0
    taus = np.linspace(0.0, float(tau_max), int(steps))
    records = []
    for start in range(0, len(taus), _CHUNK_SAMPLES):
        chunk = taus[start : start + _CHUNK_SAMPLES]
        phased = np.exp(-1j * system.eigenvalues * chunk[:, None]) * coefficients
        # A stacked mat-vec rounds exactly like one ``V @ x`` per sample; a
        # single ``phased @ V.T`` product does not.
        psi = np.matmul(system.eigenvectors, phased[:, :, None])[:, :, 0]
        psi[chunk == 0.0] = psi0
        amplitudes = psi.reshape(len(chunk), 4, params.field_dim)
        top = np.max(np.abs(amplitudes[:, :, -2:]), axis=(1, 2))
        leaking = top >= TRUNCATION_TOL
        if np.any(leaking):
            first = int(np.argmax(leaking))
            raise TruncationLeak(
                f"amplitude {top[first]:.3e} on the top two Fock levels at "
                f"tau={float(chunk[first])!r}; raise fock_cutoff"
            )
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
