"""Physical model: parameters, initial states, and Hamiltonians.

Two identical two-level atoms couple to a single cavity mode prepared with a
definite photon number.  Working in the interaction picture and measuring
time in units of the atom-field coupling, a single dimensionless detuning
``delta`` and the initial photon number ``n_photon`` fix the dynamics.

Atomic basis order is (|ee>, |eg>, |ge>, |gg>) throughout; the field basis is
ascending photon number.

The interaction conserves the excitation number, so the joint space splits
into blocks of at most four states.  Starting from |ee, n>, the dynamics only
reaches |ee, n>, |eg, n+1>, |ge, n+1>, |gg, n+2>.  On that invariant subspace
the Hamiltonian is a real symmetric 4x4 matrix whose nonzero structure is
captured by the couplings ``gamma = sqrt(n+1)`` (first emission) and
``beta = sqrt(n+2)`` (second emission); :func:`excitation_blocks` builds a
stack of such blocks in one array expression.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNormalized

#: Tolerance on ``| |a|^2 + |b|^2 - 1 |`` for each atom's amplitudes.
AMPLITUDE_TOL = 1e-9

#: Photon levels above ``n_photon`` that :func:`full_hamiltonian` retains.
DEFAULT_CUTOFF_MARGIN = 6


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of the atoms-plus-cavity system.

    Time and detuning are measured in units of the atom-field coupling
    (``tau = coupling * t``), so the coupling itself is 1 and no parameter.

    Attributes:
        delta: detuning in units of the coupling, a ``float``.
        n_photon: initial photon number of the cavity mode, an ``int``.
    """

    delta: float
    n_photon: int

    def __post_init__(self) -> None:
        for name, value in (("delta", self.delta), ("n_photon", self.n_photon)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        # Compare Python numbers: a float32 scalar would cast the bound to float32 and overflow.
        delta, n_photon = (
            v.item() if isinstance(v, np.generic) else v for v in (self.delta, self.n_photon)
        )
        if not -sys.float_info.max <= delta <= sys.float_info.max:
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        # Every layer computes with float(n_photon), so it must fit a double.
        if not 0 <= n_photon <= sys.float_info.max or int(n_photon) != n_photon:
            raise ValueError(
                f"n_photon must be a non-negative integer within float range, "
                f"got {self.n_photon!r}"
            )
        object.__setattr__(self, "delta", float(delta))
        object.__setattr__(self, "n_photon", int(n_photon))


@dataclass(frozen=True)
class TwoAtomAmplitudes:
    """Product initial state of the two atoms.

    Atom ``i`` starts in ``a_i |ground> + b_i |excited>`` with
    ``|a_i|^2 + |b_i|^2 = 1`` within ``AMPLITUDE_TOL``; :meth:`atomic_vector`
    divides each pair by its norm.

    Raises:
        NotNormalized: if an atom's squared norm is off by ``AMPLITUDE_TOL``
            or more, or is not finite.
    """

    a1: complex
    b1: complex
    a2: complex
    b2: complex

    def __post_init__(self) -> None:
        for label, a, b in (("atom 1", self.a1, self.b1), ("atom 2", self.a2, self.b2)):
            try:
                norm_sq = abs(a) ** 2 + abs(b) ** 2
            except OverflowError:  # a magnitude beyond the square root of float range
                norm_sq = np.inf
            if not abs(norm_sq - 1.0) < AMPLITUDE_TOL:
                raise NotNormalized(
                    f"{label} amplitudes have squared norm {norm_sq!r}, "
                    f"expected 1 within {AMPLITUDE_TOL:.0e}"
                )

    def atomic_vector(self) -> np.ndarray:
        """Amplitudes on (|ee>, |eg>, |ge>, |gg>) of the renormalized product state.

        Each atom's pair is divided by ``sqrt(|a|^2 + |b|^2)``.
        """
        pairs = []
        for a, b in ((self.a1, self.b1), (self.a2, self.b2)):
            scale = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            pairs.append((a / scale, b / scale))
        (a1, b1), (a2, b2) = pairs
        return np.array([b1 * b2, b1 * a2, a1 * b2, a1 * a2], dtype=np.complex128)


#: Named atomic states accepted across the library and the CLI.
ATOMIC_STATE_NAMES = ("ee", "eg", "ge", "gg", "singlet")


def named_atomic_state(name: str) -> np.ndarray:
    """Return the 4-vector for a named atomic state.

    ``ee``, ``eg``, ``ge``, ``gg`` are the basis states; ``singlet`` is the
    antisymmetric combination ``(|eg> - |ge>)/sqrt(2)``, which decouples from
    the field because the two (identical) couplings cancel.
    """
    vectors = {
        "ee": (1.0, 0.0, 0.0, 0.0),
        "eg": (0.0, 1.0, 0.0, 0.0),
        "ge": (0.0, 0.0, 1.0, 0.0),
        "gg": (0.0, 0.0, 0.0, 1.0),
        "singlet": (0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0),
    }
    if name not in vectors:
        raise ValueError(f"unknown atomic state {name!r}; choose from {ATOMIC_STATE_NAMES}")
    return np.array(vectors[name], dtype=np.complex128)


@dataclass(frozen=True)
class SpectralQuantities:
    """Ingredients of the closed-form propagator on the invariant subspace.

    Attributes:
        gamma: first-emission coupling ``sqrt(n + 1)``.
        beta: second-emission coupling ``sqrt(n + 2)``.
        mu: the three nonzero subspace eigenvalues,
            ``(2/3) * kappa * cos(theta_i)`` with the root scale
            ``kappa = sqrt(3 * (delta^2 + 2 * (beta^2 + gamma^2)))`` and
            angles ``theta_i`` spaced by ``2*pi/3``.
        alpha: partial-fraction weights ``1 / (mu_diff * mu_diff)`` products.
    """

    gamma: float
    beta: float
    mu: np.ndarray
    alpha: np.ndarray


def spectral_quantities(params: SystemParams) -> SpectralQuantities:
    """Compute couplings, roots, and closed-form weights for ``params``.

    The three nonzero subspace eigenvalues are the roots of the depressed
    cubic ``mu^3 - (delta^2 + 2*gamma^2 + 2*beta^2) * mu + 2*delta = 0``,
    obtained here in trigonometric form.  The inverse-cosine argument
    ``-27 * delta / kappa^3`` never exceeds 1/3 in magnitude (the bound is
    reached at ``delta^2 = 3``, ``n = 0``), and the roots lie at least
    ``0.46 * kappa`` apart with ``kappa >= sqrt(18)``, so the weights are
    finite for every real parameter.

    Raises:
        DomainError: if ``kappa^3`` overflows: a detuning of magnitude above
            about 3.3e102 or a photon number above about 2.6e204.
    """
    gamma = float(np.sqrt(params.n_photon + 1.0))
    beta = float(np.sqrt(params.n_photon + 2.0))
    delta = params.delta
    try:
        kappa = float(np.sqrt(3.0 * (delta**2 + 2.0 * (beta**2 + gamma**2))))
        kappa_cubed = kappa**3
    except OverflowError:
        kappa_cubed = np.inf
    if not np.isfinite(kappa_cubed):
        raise DomainError(
            f"the cube of the root scale overflows at detuning {delta!r} "
            f"and n_photon {params.n_photon:.6g}"
        )
    theta1 = np.arccos(-27.0 * delta / kappa_cubed) / 3.0
    theta = np.array([theta1, theta1 + 2.0 * np.pi / 3.0, theta1 + 4.0 * np.pi / 3.0])
    mu = (2.0 / 3.0) * kappa * np.cos(theta)
    diffs = mu[:, None] - mu[None, :]
    alpha = np.array(
        [
            1.0 / (diffs[0, 1] * diffs[0, 2]),
            1.0 / (diffs[0, 1] * diffs[1, 2]),
            1.0 / (diffs[0, 2] * diffs[1, 2]),
        ]
    )
    return SpectralQuantities(gamma=gamma, beta=beta, mu=mu, alpha=alpha)


#: Photon number of each atomic basis state (|ee>, |eg>, |ge>, |gg>) above the
#: lowest photon number of its excitation block.
BLOCK_PHOTON_OFFSETS = (0, 1, 1, 2)


def excitation_blocks(delta: np.ndarray, lowest_photon: np.ndarray) -> np.ndarray:
    """Hamiltonians ``(..., 4, 4)`` of excitation blocks, broadcast over both arrays.

    The block with ``lowest_photon = m`` spans (|ee,m>, |eg,m+1>, |ge,m+1>,
    |gg,m+2>), all with ``m + 2`` excitations, in units of the coupling.  The
    detuning splits symmetrically as ``diag(+delta, 0, 0, -delta)``; the
    off-diagonals are the emission couplings ``gamma = sqrt(m+1)`` and
    ``beta = sqrt(m+2)``.  A state of negative photon number does not exist;
    its couplings are exactly 0.  Because ``BLOCK_PHOTON_OFFSETS`` ascends,
    such states are the first ``np.searchsorted(BLOCK_PHOTON_OFFSETS, -m)``
    of the block (one for ``m = -1``, three for ``m = -2``), and the block of
    the states that exist is the trailing square that remains.
    """
    delta = np.asarray(delta, dtype=np.float64)
    lowest = np.asarray(lowest_photon, dtype=np.float64)
    gamma = np.sqrt(np.maximum(lowest + 1.0, 0.0))[..., None]
    beta = np.sqrt(np.maximum(lowest + 2.0, 0.0))[..., None]
    shape = np.broadcast_shapes(delta.shape, lowest.shape)
    hamiltonians = np.zeros(shape + (4, 4), dtype=np.complex128)
    hamiltonians[..., 0, 0], hamiltonians[..., 3, 3] = delta, -delta
    hamiltonians[..., 0, 1:3] = hamiltonians[..., 1:3, 0] = gamma
    hamiltonians[..., 3, 1:3] = hamiltonians[..., 1:3, 3] = beta
    return hamiltonians


def subspace_hamiltonian(params: SystemParams) -> np.ndarray:
    """Interaction-picture Hamiltonian on the invariant subspace of |ee, n>.

    Basis order (|ee,n>, |eg,n+1>, |ge,n+1>, |gg,n+2>): the excitation block
    of :func:`excitation_blocks` with ``lowest_photon = n_photon``.
    """
    return excitation_blocks(params.delta, params.n_photon)


def full_hamiltonian(params: SystemParams) -> np.ndarray:
    """Interaction-picture Hamiltonian on the truncated atoms-plus-field space.

    The field keeps photon numbers 0..``n_photon + DEFAULT_CUTOFF_MARGIN``;
    basis states are ordered atomic index major, photon number minor.  The
    detuning term is ``delta * (P_e1 + P_e2 - 1)`` tensored with the field
    identity; each atom contributes excitation-conserving exchange terms
    ``sqrt(m+1) * (|g, m+1><e, m| + h.c.)``.  Restricted to the invariant
    subspace of |ee, n> this reproduces :func:`subspace_hamiltonian` exactly.
    """
    m_dim = params.n_photon + DEFAULT_CUTOFF_MARGIN + 1
    identity_field = np.eye(m_dim)
    # Atomic operators in basis (ee, eg, ge, gg): lowering operator per atom.
    lower_1 = np.zeros((4, 4))
    lower_1[2, 0] = 1.0  # |ge><ee|
    lower_1[3, 1] = 1.0  # |gg><eg|
    lower_2 = np.zeros((4, 4))
    lower_2[1, 0] = 1.0  # |eg><ee|
    lower_2[3, 2] = 1.0  # |gg><ge|
    excited_split = np.diag([1.0, 0.0, 0.0, -1.0])
    creation = np.diag(np.sqrt(np.arange(1.0, m_dim)), -1)
    annihilation = creation.T
    hamiltonian = params.delta * np.kron(excited_split, identity_field)
    for lower in (lower_1, lower_2):
        hamiltonian += np.kron(lower, creation) + np.kron(lower.T, annihilation)
    return hamiltonian.astype(np.complex128)
