"""Dense complex linear algebra for small Hermitian problems.

The production path only ever decomposes matrices of dimension at most 4
(an excitation block or a two-atom reduced state).  ``MAX_DIM`` bounds the
input of :func:`eig_hermitian`; it admits the truncated
atoms-plus-field matrix of :func:`twoatomcavity.model.full_hamiltonian` up to
64x64 (``n_photon = 9``), which the baseline benchmark decomposes.  All
functions are pure and deterministic: identical inputs produce identical
outputs.

The eigensolver, the partial trace and the partial transpose take any stack
of matrices or states (a leading batch shape), so
:func:`twoatomcavity.dynamics.time_series` diagonalizes the excitation blocks
of one size of every point in one :func:`eig_hermitian` call and evaluates a
whole chunk of up to 1024 rows, which may span the points of a sweep, in one
call of each.  :func:`eig_hermitian` is :func:`checked_hermitian` then
:func:`_decompose`, the package's one ``eigh`` call.  The negativity checks
each partial-transpose stack once and decomposes only what it cannot certify
PSD; the classifier's fit decomposes states whose partial transposes passed
that check.  :meth:`HermitianEigensystem.unitary` takes an array of times, so
the audit builds the reference propagators of its whole time grid in one call.
Stacking changes no bits: NumPy's ``eigh`` and ``matmul`` apply the same
LAPACK/BLAS routine to each matrix of a stack as to a single matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, NotNormalized

#: Largest matrix dimension accepted by :func:`eig_hermitian`.
MAX_DIM = 64

#: Tolerance on ``max|m - m^dagger|`` below which a matrix counts as Hermitian.
HERMITICITY_TOL = 1e-10

#: Tolerance on ``| ||psi||^2 - 1 |`` for joint-state inputs.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class HermitianEigensystem:
    """Spectral decomposition of a Hermitian matrix or a stack of them.

    Attributes:
        eigenvalues: real eigenvalues sorted ascending, shape ``(..., d)``.
        eigenvectors: orthonormal eigenvectors as columns, shape
            ``(..., d, d)``; column ``k`` belongs to ``eigenvalues[..., k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def unitary(self, t: float | np.ndarray) -> np.ndarray:
        """``exp(-i * m * t)`` of each decomposed matrix ``m`` at each time ``t``.

        ``t`` is a time or an array of times; the result has shape
        ``t.shape + (..., d, d)``, and entry ``k`` of an array equals the
        call at ``t[k]`` bit for bit.  Where ``t == 0`` exact identity
        matrices are returned, so downstream consumers see bit-exact initial
        conditions.
        """
        v = self.eigenvectors
        t = np.asarray(t, dtype=np.float64)
        times = t.reshape(t.shape + (1,) * (v.ndim - 1))
        phases = np.exp(-1j * self.eigenvalues * times)
        u = (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)
        u[t == 0.0] = np.eye(v.shape[-1])
        return u


def hermiticity_defect(m: np.ndarray) -> float:
    """Return ``max|m - m^dagger|``, the distance from Hermiticity.

    For a stack of matrices (shape ``(..., d, d)``) this is the largest
    defect over the stack.
    """
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def checked_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as complex128 after the checks of :func:`eig_hermitian`.

    Callers that decide from the matrices themselves which of them to
    decompose, such as the negativity's PSD certificate, check the whole
    stack here once, so that every matrix raises as it would in
    :func:`eig_hermitian`, and pass the ones they keep to :func:`_decompose`.

    Raises:
        NotHermitian: if the Hermiticity check fails for any matrix.
        ValueError: for non-square, oversized, or non-finite input.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected square matrices (..., d, d), got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise ValueError(
            f"matrix dimension {m.shape[-1]} exceeds the supported maximum {MAX_DIM}"
        )
    m = m.astype(np.complex128, copy=False)
    # A non-finite entry makes the defect NaN or infinite, so finite input
    # is scanned once.
    with np.errstate(invalid="ignore"):
        defect = hermiticity_defect(m)
    if not defect < HERMITICITY_TOL:
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix contains non-finite entries")
        raise NotHermitian(
            f"max|m - m^dagger| = {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    return m


def _decompose(m: np.ndarray) -> HermitianEigensystem:
    """:func:`eig_hermitian` of matrices that passed :func:`checked_hermitian`.

    The package's one ``eigh`` call: a stack is decomposed by one call,
    which gives each matrix the bits of its own call.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return HermitianEigensystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def eig_hermitian(m: np.ndarray) -> HermitianEigensystem:
    """Eigendecompose a Hermitian matrix or a stack of them.

    :func:`checked_hermitian`, then :func:`_decompose`.

    Args:
        m: square matrices ``(..., d, d)`` with ``d`` at most ``MAX_DIM``,
            each Hermitian within ``HERMITICITY_TOL``.

    Returns:
        A :class:`HermitianEigensystem` of shapes ``(..., d)`` and
        ``(..., d, d)`` with ascending eigenvalues.

    Raises:
        NotHermitian: if the Hermiticity check fails for any matrix.
        ConvergenceFailure: if the underlying iteration does not converge.
        ValueError: for non-square, oversized, or non-finite input.
    """
    return _decompose(checked_hermitian(m))


def expm_i_hermitian(m: np.ndarray, t: float) -> np.ndarray:
    """Evaluate the unitary ``exp(-i * m * t)`` for Hermitian ``m``.

    Equal to ``eig_hermitian(m).unitary(t)``: the exact identity at
    ``t == 0``, and every check of :func:`eig_hermitian` at every ``t``.

    Raises:
        NotHermitian, ConvergenceFailure, ValueError: as in
            :func:`eig_hermitian`.
    """
    return eig_hermitian(m).unitary(t)


def partial_trace_field(amplitudes: np.ndarray) -> np.ndarray:
    """Trace the field out of pure atoms-plus-field states.

    Args:
        amplitudes: joint amplitudes of shape ``(..., n_atomic, n_field)``
            (atomic index, then photon number); a flat state vector is
            reshaped by the caller.

    Returns:
        The reduced atomic density matrices ``(..., n_atomic, n_atomic)``,
        ``rho[j, k] = sum_m psi(j, m) * conj(psi(k, m))`` rescaled by the
        squared norm, Hermitian with unit trace.

    Raises:
        NotNormalized: naming the first state whose squared norm is off by
            ``NORMALIZATION_TOL`` or more, or is not finite.
        ValueError: for input of fewer than two dimensions.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.ndim < 2:
        raise ValueError(
            f"expected amplitudes of shape (..., n_atomic, n_field), got {amplitudes.shape}"
        )
    norm_sq = np.asarray(
        np.sum((np.abs(amplitudes) ** 2).reshape(*amplitudes.shape[:-2], -1), axis=-1)
    )
    off = ~(np.abs(norm_sq - 1.0) < NORMALIZATION_TOL)
    if np.any(off):
        raise NotNormalized(
            f"squared norm {float(norm_sq[off][0])!r} deviates from 1 beyond "
            f"{NORMALIZATION_TOL:.0e}"
        )
    rho = amplitudes @ np.swapaxes(amplitudes.conj(), -1, -2)
    rescale = norm_sq != 1.0
    rho[rescale] /= norm_sq[rescale][..., None, None]
    return rho


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second atom's indices of two-atom matrices ``(..., 4, 4)``.

    Basis order is (|ee>, |eg>, |ge>, |gg>), i.e. index ``2*i1 + i2`` with
    0 = excited and 1 = ground per atom.  The element at
    ``((i1 i2), (j1 j2))`` moves to ``((i1 j2), (j1 i2))``.  Applying the
    operation twice returns the original matrix bit-for-bit.
    """
    rho = np.asarray(rho)
    shape = rho.shape
    if shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {shape}")
    return rho.reshape(*shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(shape)
