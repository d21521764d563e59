"""Dense complex linear algebra for small Hermitian problems.

Everything in this module operates on matrices of dimension at most
``MAX_DIM`` (4x4 for the two-atom reduced state, up to 64x64 for the
truncated atoms-plus-field space).  All functions are pure and
deterministic: identical inputs produce identical outputs.

The work is done by private stack kernels (``_eigh_stack``,
``_partial_trace_stack``, ``_partial_transpose``) that take a leading batch
axis, so :func:`twoatomcavity.dynamics.time_series` evaluates a whole chunk
of its time grid in one call per kernel.  The public functions are
stack-of-one wrappers over them: one matrix or state in, one result out.
Stacking changes no bits: NumPy's ``eigh`` and ``matmul`` apply the same
LAPACK/BLAS routine to each matrix of a stack as to a single matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotNormalized

#: Largest matrix dimension accepted by the eigensolver entry points.
MAX_DIM = 64

#: Tolerance on ``max|m - m^dagger|`` below which a matrix counts as Hermitian.
HERMITICITY_TOL = 1e-10

#: Tolerance on ``| ||psi||^2 - 1 |`` for joint-state inputs.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class HermitianEigensystem:
    """Spectral decomposition of a Hermitian matrix.

    Attributes:
        eigenvalues: real eigenvalues sorted ascending, shape ``(dim,)``.
        eigenvectors: orthonormal eigenvectors as columns, shape
            ``(dim, dim)``; column ``k`` belongs to ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _validate_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(
            f"matrix dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m.astype(np.complex128, copy=False)


def hermiticity_defect(m: np.ndarray) -> float:
    """Return ``max|m - m^dagger|``, the distance from Hermiticity.

    For a stack of matrices (shape ``(..., d, d)``) this is the largest
    defect over the stack.
    """
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def _eigh_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of Hermitian matrices, shape ``(..., d, d)``.

    Returns ascending eigenvalues ``(..., d)`` and eigenvector columns
    ``(..., d, d)``.  Raises :class:`NotHermitian` if any matrix of the stack
    is not Hermitian within ``HERMITICITY_TOL`` (non-finite entries fail this
    check too) and :class:`ConvergenceFailure` on non-convergence.
    """
    defect = hermiticity_defect(m)
    if not defect < HERMITICITY_TOL:
        raise NotHermitian(
            f"max|m - m^dagger| = {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def eig_hermitian(m: np.ndarray) -> HermitianEigensystem:
    """Eigendecompose a Hermitian matrix.

    Args:
        m: square matrix, dimension at most ``MAX_DIM``, Hermitian within
            ``HERMITICITY_TOL``.

    Returns:
        A :class:`HermitianEigensystem` with ascending eigenvalues.

    Raises:
        NotHermitian: if the Hermiticity check fails.
        ConvergenceFailure: if the underlying iteration does not converge.
        ValueError: for non-square, oversized, or non-finite input.
    """
    eigenvalues, eigenvectors = _eigh_stack(_validate_square(m)[None])
    return HermitianEigensystem(eigenvalues=eigenvalues[0], eigenvectors=eigenvectors[0])


def expm_i_hermitian(m: np.ndarray, t: float) -> np.ndarray:
    """Evaluate the unitary ``exp(-i * m * t)`` for Hermitian ``m``.

    At ``t == 0`` the exact identity matrix is returned, so downstream
    consumers see bit-exact initial conditions.

    Raises:
        NotHermitian, ConvergenceFailure, ValueError: as in
            :func:`eig_hermitian`.
    """
    m = _validate_square(m)
    if t == 0.0:
        return np.eye(m.shape[0], dtype=np.complex128)
    system = eig_hermitian(m)
    phases = np.exp(-1j * system.eigenvalues * t)
    v = system.eigenvectors
    return (v * phases) @ v.conj().T


def _partial_trace_stack(amplitudes: np.ndarray) -> np.ndarray:
    """Reduced atomic matrices of a stack of joint states.

    ``amplitudes`` has shape ``(batch, n_atomic, field_dim)``; the result is
    ``(batch, n_atomic, n_atomic)``.  Raises :class:`NotNormalized` naming the
    first state of the stack whose squared norm is off by
    ``NORMALIZATION_TOL`` or more, or is not finite.
    """
    norm_sq = np.sum((np.abs(amplitudes) ** 2).reshape(len(amplitudes), -1), axis=1)
    off = ~(np.abs(norm_sq - 1.0) < NORMALIZATION_TOL)
    if np.any(off):
        raise NotNormalized(
            f"squared norm {float(norm_sq[np.argmax(off)])!r} deviates from 1 beyond "
            f"{NORMALIZATION_TOL:.0e}"
        )
    rho = amplitudes @ np.swapaxes(amplitudes.conj(), -1, -2)
    rescale = norm_sq != 1.0
    rho[rescale] /= norm_sq[rescale, None, None]
    return rho


def partial_trace_field(psi: np.ndarray, n_atomic: int = 4) -> np.ndarray:
    """Trace the field out of a pure atoms-plus-field state.

    Args:
        psi: joint amplitudes, either flat with length ``n_atomic * field_dim``
            (atomic index major, photon number minor) or already shaped
            ``(n_atomic, field_dim)``.
        n_atomic: dimension of the atomic factor (4 for two qubits).

    Returns:
        The reduced atomic density matrix
        ``rho[j, k] = sum_m psi(j, m) * conj(psi(k, m))`` rescaled by the
        squared norm, Hermitian with unit trace.

    Raises:
        NotNormalized: if ``| ||psi||^2 - 1 |`` is not below
            ``NORMALIZATION_TOL``.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim == 1:
        if psi.size % n_atomic != 0:
            raise ValueError(
                f"flat state length {psi.size} is not a multiple of {n_atomic}"
            )
        amplitudes = psi.reshape(n_atomic, psi.size // n_atomic)
    elif psi.ndim == 2 and psi.shape[0] == n_atomic:
        amplitudes = psi
    else:
        raise ValueError(f"cannot interpret state of shape {psi.shape}")
    return _partial_trace_stack(amplitudes[None])[0]


def _partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second atom of any stack ``(..., 4, 4)``."""
    shape = rho.shape
    return rho.reshape(*shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(shape)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second atom's indices of a two-atom density matrix.

    Basis order is (|ee>, |eg>, |ge>, |gg>), i.e. index ``2*i1 + i2`` with
    0 = excited and 1 = ground per atom.  The element at
    ``((i1 i2), (j1 j2))`` moves to ``((i1 j2), (j1 i2))``.  Applying the
    operation twice returns the original matrix bit-for-bit.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return _partial_transpose(rho)
