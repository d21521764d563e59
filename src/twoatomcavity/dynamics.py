"""Reduced two-atom dynamics over a time grid.

The interaction conserves the excitation number, so a preparation
``|atoms> ⊗ |n>`` evolves inside at most three excitation blocks of at most
four states each (Tavis & Cummings 1968): |ee, n> lies in the block whose
lowest photon number is n, |eg, n> and |ge, n> in the block of n - 1, and
|gg, n> in the block of n - 2.  :func:`time_series` diagonalizes each
block on its own, places the amplitudes on the photon levels n-2..n+2 and
evaluates the rows (point, sample) of one point or of a whole sweep in
chunks of ``_CHUNK_SAMPLES`` rows, which bounds the memory of the stacked
arrays; no Fock space is truncated.  It returns the samples as columns, into
which it writes each chunk: time, populations, negativity and class labels
for one point, time and negativity only for a sweep.  The negativity
statistics (:func:`first_negativity_zero`, :func:`negativity_zero_count`,
:func:`average_negativity`) take one point's ``tau`` and ``negativity``
columns, or any 1-D sequences of the same values; a zero is a downward
crossing of ``NEGATIVITY_ZERO_THRESHOLD``.
"""
from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

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

#: Rows (point, sample) evaluated together by :func:`time_series`: the
#: chunk's reduced states take 1024 * 16 complex entries, 256 KiB.
_CHUNK_SAMPLES = 1024


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


def populations(rho: np.ndarray) -> np.ndarray:
    """Diagonals ``(..., 4)`` of reduced matrices ``(..., 4, 4)``, clamped.

    Values in ``(-POPULATION_CLAMP, 0)`` become exactly 0; anything more
    negative is left untouched so genuine positivity violations stay visible.
    """
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return np.where((-POPULATION_CLAMP < diag) & (diag < 0.0), 0.0, diag)


#: Photon levels n-2..n+2 on which the amplitudes of a sample are placed.
_LEVELS = 5


class _BlockStack(NamedTuple):
    """The blocks of one photon shift and one size, stacked over the points that have them.

    Point ``p`` has block ``slots[p]`` of the stack, or none when that is -1.
    Its states sit at atomic indices ``atoms`` and photon levels ``levels``.
    """

    slots: np.ndarray  # (points,)
    eigenvalues: np.ndarray  # (blocks, d)
    eigenvectors: np.ndarray  # (blocks, d, d)
    coefficients: np.ndarray  # (blocks, d)
    atoms: np.ndarray  # (d,)
    levels: np.ndarray  # (d,)


def _populated_blocks(points: list[SystemParams], atomic: np.ndarray) -> list[_BlockStack]:
    """Eigensystems, initial coefficients and state positions of every populated block.

    The block whose lowest photon number is ``n - shift`` holds the prepared
    states at photon ``n`` whose photon offset equals ``shift``: |ee> for 0,
    |eg> and |ge> for 1, |gg> for 2.  Below ``n = shift`` the block loses its
    states of negative photon number and has 3 or 1 states.  The blocks of
    equal size, over all shifts and points, are diagonalized in one stacked
    :func:`linalg.eig_hermitian` call; a block's states sit at atomic index
    ``kept`` and photon level ``offset + 2 - shift`` of the levels n-2..n+2.
    """
    offsets = np.array(BLOCK_PHOTON_OFFSETS)
    # (shift, kept) -> the points with that block and its rows in the stack of its size.
    members: dict[tuple[int, tuple[int, ...]], tuple[list[int], list[int]]] = {}
    hamiltonians: dict[int, list[np.ndarray]] = {}
    for shift in (0, 1, 2):
        if not np.any(atomic[offsets == shift]):
            continue
        for point, params in enumerate(points):
            hamiltonian, kept = excitation_block(params.delta, params.n_photon - shift)
            stack = hamiltonians.setdefault(len(kept), [])
            group, rows = members.setdefault((shift, tuple(kept)), ([], []))
            group.append(point)
            rows.append(len(stack))
            stack.append(hamiltonian)
    spectra = {size: linalg.eig_hermitian(np.stack(stack)) for size, stack in hamiltonians.items()}
    stacks = []
    for (shift, kept), (group, rows) in members.items():
        atoms = np.array(kept)
        spectrum = spectra[len(atoms)]
        eigenvalues, eigenvectors = spectrum.eigenvalues[rows], spectrum.eigenvectors[rows]
        start = np.where(offsets == shift, atomic, 0.0)[atoms]
        slots = np.full(len(points), -1)
        slots[group] = np.arange(len(group))
        stacks.append(
            _BlockStack(
                slots,
                eigenvalues,
                eigenvectors,
                eigenvectors.conj().swapaxes(-1, -2) @ start,
                atoms,
                offsets[atoms] + 2 - shift,
            )
        )
    return stacks


class SeriesColumns(NamedTuple):
    """A sampled series as columns: one row per grid point.

    ``labels`` holds indices into ``entanglement.CLASS_LABELS``.  A sweep (a
    sequence of ``SystemParams``) has only a negativity column, which leads
    with a point axis ``P``, and ``populations`` and ``labels`` are
    ``None``; ``tau`` is the grid its points share.
    """

    tau: np.ndarray  # (T,)
    populations: np.ndarray | None  # (T, 4): p_ee, p_eg, p_ge, p_gg
    negativity: np.ndarray  # ([P,] T)
    labels: np.ndarray | None  # (T,)


def time_series(
    params: SystemParams | Sequence[SystemParams],
    initial: TwoAtomAmplitudes | np.ndarray,
    tau_max: float,
    steps: int,
) -> SeriesColumns:
    """Sample the reduced dynamics on a uniform grid over ``[0, tau_max]``.

    The grid is ``tau_k = k * tau_max / (steps - 1)``.  ``params`` is one
    point or a sequence of points (a sweep), all sampled on that grid.  Every
    excitation block the preparation populates is diagonalized once per
    point.  The rows (point, sample) are then evaluated in chunks of
    ``_CHUNK_SAMPLES`` rows, which may span points: each chunk costs one
    stacked phase rotation per block shape, one stacked partial trace over
    the five photon levels n-2..n+2, one negativity call (a stacked
    partial-transpose spectrum of the samples it cannot certify separable)
    and, for one point, one populations pass and one classification pass
    that reuses that negativity.  Each row depends only on its own point and
    sample, so a point's columns do not depend on the chunking or on the
    other points.  At ``tau = 0`` the initial state is used bit-exactly.

    Returns, for one ``SystemParams``, the columns ``tau``, ``populations``
    ``(T, 4)``, ``negativity`` ``(T,)`` and ``labels`` ``(T,)``; for a
    sequence of ``P`` of them, ``tau`` and the negativity ``(P, T)`` only,
    with ``populations`` and ``labels`` set to ``None``.

    Raises:
        ValueError: if ``steps < 2`` or ``tau_max`` is not positive and finite.
        NotNormalized: if a sampled state's squared norm is off by
            ``linalg.NORMALIZATION_TOL`` or is not finite (a phase that
            overflows makes it NaN); it names the first such row in (point,
            sample) order.
    """
    if int(steps) != steps or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not (0.0 < tau_max < np.inf):
        raise ValueError(f"tau_max must be positive and finite, got {tau_max!r}")
    steps = int(steps)
    single = isinstance(params, SystemParams)
    points = [params] if single else list(params)
    atomic = _atomic_vector_of(initial)
    blocks = _populated_blocks(points, atomic)
    prepared = np.zeros((4, _LEVELS), dtype=np.complex128)
    prepared[:, 2] = atomic
    taus = np.linspace(0.0, float(tau_max), steps)
    rows = len(points) * steps
    negativity_column = np.empty(rows)
    populations_column = np.empty((rows, 4)) if single else None
    label_column = np.empty(rows, dtype=np.intp) if single else None
    for start in range(0, rows, _CHUNK_SAMPLES):
        chunk = slice(start, min(start + _CHUNK_SAMPLES, rows))
        point, sample = np.divmod(np.arange(chunk.start, chunk.stop), steps)
        tau = taus[sample]
        amplitudes = np.zeros((len(tau), 4, _LEVELS), dtype=np.complex128)
        for block in blocks:
            slot = block.slots[point]
            member = np.flatnonzero(slot >= 0)
            slot = slot[member]
            # An overflowing tau * eigenvalue makes the phase NaN, which the
            # norm check of the partial trace reports as one error.
            with np.errstate(over="ignore", invalid="ignore"):
                phased = (
                    np.exp(-1j * block.eigenvalues[slot] * tau[member, None])
                    * block.coefficients[slot]
                )
            amplitudes[member[:, None], block.atoms, block.levels] = (
                block.eigenvectors[slot] @ phased[:, :, None]
            )[:, :, 0]
        amplitudes[tau == 0.0] = prepared
        rho = linalg.partial_trace_field(amplitudes)
        degree = entanglement.negativity(rho)
        negativity_column[chunk] = degree
        if single:
            populations_column[chunk] = populations(rho)
            label_column[chunk] = entanglement._classify_stack(rho, degree)
    shape = (steps,) if single else (len(points), steps)
    return SeriesColumns(taus, populations_column, negativity_column.reshape(shape), label_column)


def _downward_crossings(gaps: np.ndarray) -> np.ndarray:
    """Mask ``(T - 1,)`` of the sample pairs whose gap drops from above 0 to at or below it."""
    return (gaps[:-1] > 0.0) & (gaps[1:] <= 0.0)


def _column(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a float array, checked to be one point's 1-D column."""
    column = np.asarray(values, dtype=np.float64)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one point's 1-D column, got shape {column.shape}")
    return column


def _sample_columns(tau: np.ndarray, negativity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tau`` and ``negativity`` as float arrays, checked to be 1-D and of one shape."""
    tau, negativity = _column("tau", tau), _column("negativity", negativity)
    if tau.shape != negativity.shape:
        raise ValueError(f"tau and negativity differ in shape: {tau.shape} and {negativity.shape}")
    return tau, negativity


def first_negativity_zero(tau: np.ndarray, negativity: np.ndarray) -> float | None:
    """First time the negativity falls back to zero, or ``None``.

    A "zero" is a downward crossing of ``NEGATIVITY_ZERO_THRESHOLD``: the
    sampled negativity sits above it at one grid point and at or below it at
    the next.  The crossing time is linearly interpolated between the two
    grid points.  Columns that are not 1-D or differ in shape raise
    ``ValueError``.
    """
    tau, negativity = _sample_columns(tau, negativity)
    gaps = negativity - NEGATIVITY_ZERO_THRESHOLD
    drops = np.flatnonzero(_downward_crossings(gaps))
    if drops.size == 0:
        return None
    k = int(drops[0])
    gap_before, gap_after = gaps[k].item(), gaps[k + 1].item()
    tau_before, tau_after = tau[k].item(), tau[k + 1].item()
    fraction = gap_before / (gap_before - gap_after)
    return tau_before + (tau_after - tau_before) * fraction


def negativity_zero_count(negativity: np.ndarray) -> int:
    """Number of downward ``NEGATIVITY_ZERO_THRESHOLD`` crossings of the negativity.

    A column that is not 1-D raises ``ValueError``.
    """
    gaps = _column("negativity", negativity) - NEGATIVITY_ZERO_THRESHOLD
    return int(np.count_nonzero(_downward_crossings(gaps)))


def average_negativity(tau: np.ndarray, negativity: np.ndarray) -> float:
    """Time average of the negativity over the sampled window.

    Computed as the trapezoid integral of the linear interpolant divided by
    the window length.  The interior samples are added one by one, left to
    right, not by ``np.sum``, whose pairwise summation rounds differently,
    nor by the built-in ``sum``, which compensates from Python 3.12 on, so
    every Python version gives the same bits.
    Columns that are not 1-D, differ in shape, hold fewer than two samples
    or span a window of zero length raise ``ValueError``.
    """
    tau, negativity = _sample_columns(tau, negativity)
    if len(tau) < 2:
        raise ValueError("need at least two samples to average")
    window = tau[-1].item() - tau[0].item()
    if window == 0.0:
        raise ValueError(f"the window [{tau[0].item()!r}, {tau[-1].item()!r}] has zero length")
    values = negativity.tolist()
    interior = 0.0
    for value in values[1:-1]:
        interior += value
    dt = tau[1].item() - tau[0].item()
    integral = dt * (0.5 * values[0] + interior + 0.5 * values[-1])
    return integral / window

