"""Model-layer tests: parameters, states, roots, Hamiltonians."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import twoatomcavity
from twoatomcavity import dynamics, errors, model, propagator
from twoatomcavity.errors import DegenerateRoots, DomainError, NotNormalized
from twoatomcavity.linalg import eig_hermitian, hermiticity_defect
from twoatomcavity.model import (
    ATOMIC_STATE_NAMES,
    DEFAULT_CUTOFF_MARGIN,
    SystemParams,
    TwoAtomAmplitudes,
    _check_root_gaps,
    _clamped_arccos_argument,
    full_hamiltonian,
    named_atomic_state,
    spectral_quantities,
    subspace_hamiltonian,
)

from oracles import det3, full_space_block_indices, full_space_hamiltonian, jacobi_eigh

DELTA_GRID = (0.0, 0.1, 0.5, 1.0, 2.0)
N_GRID = (0, 1, 3, 10)


def symmetric_block(delta: float, n: int) -> np.ndarray:
    """Symmetric-sector 3x3 block of the subspace Hamiltonian.

    The antisymmetric atomic combination decouples with eigenvalue zero;
    the remaining block has the three nontrivial eigenvalues.
    """
    gamma = np.sqrt(n + 1.0)
    beta = np.sqrt(n + 2.0)
    sq2 = np.sqrt(2.0)
    return np.array(
        [
            [delta, sq2 * gamma, 0.0],
            [sq2 * gamma, 0.0, sq2 * beta],
            [0.0, sq2 * beta, -delta],
        ]
    )


class TestSystemParams:
    def test_fields_are_delta_and_photon_number(self):
        assert [f.name for f in dataclasses.fields(SystemParams)] == ["delta", "n_photon"]

    @pytest.mark.parametrize("field, value", [("coupling", 2.0), ("fock_cutoff", 9)])
    def test_rejects_removed_fields(self, field, value):
        # Time and detuning are in units of the coupling; production never truncates.
        with pytest.raises(TypeError):
            SystemParams(delta=0.5, n_photon=3, **{field: value})

    def test_package_drops_the_full_space_names(self):
        removed = (
            "propagate_full", "propagate_full_restricted", "evolve_reduced",
            "subspace_joint_indices", "joint_state_from_atomic", "initial_state",
            "CutoffTooSmall", "TruncationLeak", "MIN_CUTOFF_MARGIN",
        )
        modules = (twoatomcavity, dynamics, errors, model, propagator)
        assert [name for name in removed for module in modules if hasattr(module, name)] == []

    def test_frozen(self):
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.delta = 1.0  # type: ignore[misc]

    def test_rejects_negative_photon_number(self):
        with pytest.raises(ValueError):
            SystemParams(delta=0.0, n_photon=-1)

    def test_rejects_fractional_photon_number(self):
        with pytest.raises(ValueError):
            SystemParams(delta=0.0, n_photon=1.5)  # type: ignore[arg-type]

    @pytest.mark.parametrize("n_photon", [10**400, float("inf"), float("nan")])
    def test_rejects_photon_number_beyond_float_range(self, n_photon):
        # Every layer computes with float(n_photon); 10**400 has no double.
        with pytest.raises(ValueError, match="float range"):
            SystemParams(delta=0.0, n_photon=n_photon)
        assert SystemParams(delta=0.0, n_photon=10**308).n_photon == 10**308

    def test_rejects_non_finite_delta(self):
        with pytest.raises(ValueError):
            SystemParams(delta=np.inf, n_photon=0)


class TestTwoAtomAmplitudes:
    def test_valid_product_state(self):
        amps = TwoAtomAmplitudes(a1=0.6, b1=0.8, a2=0.6, b2=0.8)
        vector = amps.atomic_vector()
        assert np.allclose(vector, [0.64, 0.48, 0.48, 0.36], atol=1e-15)
        assert abs(np.sum(np.abs(vector) ** 2) - 1.0) < 1e-14

    def test_complex_amplitudes(self):
        amps = TwoAtomAmplitudes(a1=0.6j, b1=0.8, a2=1.0, b2=0.0)
        vector = amps.atomic_vector()
        # atom 2 in the ground state: only |eg> and |gg> populated
        assert vector[0] == 0.0 and vector[2] == 0.0
        assert vector[1] == 0.8 and vector[3] == 0.6j

    @pytest.mark.parametrize(
        "amplitudes",
        [
            (0.6, 0.9, 1.0, 0.0),
            (float("nan"), 1.0, 1.0, 0.0),
            (1.0, 0.0, complex(0.0, float("nan")), 1.0),
            (float("inf"), 0.0, 1.0, 0.0),
            (1.0, 0.0, 1.0, complex(float("inf"), float("nan"))),
            (1e200, 0.0, 1.0, 0.0),
            (1.0, 0.0, complex(1e308, 1e308), 0.0),
            (1.0 + 2e-9, 0.0, 1.0, 0.0),
        ],
        ids=["off", "nan", "nan_imag", "inf", "inf_nan", "square_overflows", "abs_overflows",
             "off_by_2e-9"],
    )
    def test_rejects_unnormalized_atom(self, amplitudes):
        with pytest.raises(NotNormalized, match="squared norm"):
            TwoAtomAmplitudes(*amplitudes)

    def test_renormalizes_each_atom_once(self):
        # Within AMPLITUDE_TOL (1e-9) of unit norm: accepted, then divided by the norm.
        scale = np.sqrt(1.0 + 5e-10)
        amps = TwoAtomAmplitudes(a1=0.6 * scale, b1=0.8 * scale, a2=1.0, b2=0.0)
        norm = np.sqrt(abs(0.6 * scale) ** 2 + abs(0.8 * scale) ** 2)
        expected = [0.0, 0.8 * scale / norm, 0.0, 0.6 * scale / norm]
        assert amps.atomic_vector().tolist() == expected


class TestNamedStates:
    def test_basis_states(self):
        assert np.array_equal(named_atomic_state("ee"), [1, 0, 0, 0])
        assert np.array_equal(named_atomic_state("eg"), [0, 1, 0, 0])
        assert np.array_equal(named_atomic_state("ge"), [0, 0, 1, 0])
        assert np.array_equal(named_atomic_state("gg"), [0, 0, 0, 1])

    def test_singlet(self):
        singlet = named_atomic_state("singlet")
        assert np.allclose(singlet, [0.0, 1.0, -1.0, 0.0] / np.sqrt(2.0), atol=1e-16)

    def test_names_tuple_matches(self):
        for name in ATOMIC_STATE_NAMES:
            assert named_atomic_state(name).shape == (4,)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_atomic_state("bell")


class TestSpectralQuantities:
    @pytest.mark.parametrize("delta", DELTA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_roots_satisfy_cubic(self, delta, n):
        sq = spectral_quantities(SystemParams(delta=delta, n_photon=n))
        linear = delta**2 + 2.0 * sq.gamma**2 + 2.0 * sq.beta**2
        for mu in sq.mu:
            residual = mu**3 - linear * mu + 2.0 * delta
            assert abs(residual) < 1e-9 * max(1.0, abs(mu) ** 3)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_vieta_relations(self, delta, n):
        sq = spectral_quantities(SystemParams(delta=delta, n_photon=n))
        linear = delta**2 + 2.0 * sq.gamma**2 + 2.0 * sq.beta**2
        assert abs(np.sum(sq.mu)) < 1e-9
        pair_sum = sq.mu[0] * sq.mu[1] + sq.mu[0] * sq.mu[2] + sq.mu[1] * sq.mu[2]
        assert abs(pair_sum + linear) < 1e-9 * max(1.0, linear)
        assert abs(np.prod(sq.mu) + 2.0 * delta) < 1e-9

    @pytest.mark.parametrize("delta", DELTA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_roots_match_block_spectrum(self, delta, n):
        sq = spectral_quantities(SystemParams(delta=delta, n_photon=n))
        block_eigenvalues, _ = jacobi_eigh(symmetric_block(delta, n))
        assert np.max(np.abs(np.sort(sq.mu) - block_eigenvalues)) < 1e-9

    @pytest.mark.parametrize("delta", DELTA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_roots_annihilate_block_determinant(self, delta, n):
        sq = spectral_quantities(SystemParams(delta=delta, n_photon=n))
        block = symmetric_block(delta, n)
        for mu in sq.mu:
            shifted = block - mu * np.eye(3)
            assert abs(det3(shifted)) < 1e-8 * max(1.0, sq.kappa**3)

    def test_couplings(self):
        sq = spectral_quantities(SystemParams(delta=0.3, n_photon=5))
        assert sq.gamma == pytest.approx(np.sqrt(6.0), abs=1e-15)
        assert sq.beta == pytest.approx(np.sqrt(7.0), abs=1e-15)

    def test_kappa_theta_generate_roots(self):
        sq = spectral_quantities(SystemParams(delta=0.7, n_photon=2))
        regenerated = (2.0 / 3.0) * sq.kappa * np.cos(sq.theta)
        assert np.array_equal(regenerated, sq.mu)
        assert np.allclose(np.diff(sq.theta), 2.0 * np.pi / 3.0, atol=1e-15)

    @pytest.mark.parametrize("delta", DELTA_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_alpha_partial_fraction_identities(self, delta, n):
        sq = spectral_quantities(SystemParams(delta=delta, n_photon=n))
        signs = np.array([1.0, -1.0, 1.0])
        weights = signs * sq.alpha
        assert abs(np.sum(weights)) < 1e-10
        assert abs(np.sum(weights * sq.mu)) < 1e-10
        assert abs(np.sum(weights * sq.mu**2) - 1.0) < 1e-10

    def test_root_ordering_convention(self):
        # First root from the smallest angle is the largest positive one.
        sq = spectral_quantities(SystemParams(delta=0.5, n_photon=0))
        assert sq.mu[0] > 0.0
        assert sq.mu[0] == max(sq.mu)
        assert sq.mu[1] == min(sq.mu)


class TestGuards:
    def test_arccos_clamp_accepts_roundoff_overshoot(self):
        assert _clamped_arccos_argument(1.0 + 5e-13) == 1.0
        assert _clamped_arccos_argument(-1.0 - 5e-13) == -1.0
        assert _clamped_arccos_argument(0.25) == 0.25

    def test_arccos_rejects_genuine_overshoot(self):
        with pytest.raises(DomainError):
            _clamped_arccos_argument(1.0 + 1e-11)

    @pytest.mark.parametrize("delta", [4e102, -4e102, 2e154, 1e300])
    def test_overflowing_detuning_is_a_domain_error(self, delta):
        with pytest.raises(DomainError, match="overflows"):
            spectral_quantities(SystemParams(delta=delta, n_photon=0))

    def test_largest_detunings_below_the_overflow_have_roots(self):
        sq = spectral_quantities(SystemParams(delta=3e102, n_photon=0))
        assert np.all(np.isfinite(sq.mu))

    def test_degenerate_roots_rejected(self):
        with pytest.raises(DegenerateRoots):
            _check_root_gaps(np.array([0.5, 0.5 + 1e-10, 1.0]))

    def test_separated_roots_accepted(self):
        _check_root_gaps(np.array([-1.0, 0.0, 1.0]))


class TestSubspaceHamiltonian:
    def test_structure(self):
        h = subspace_hamiltonian(SystemParams(delta=0.5, n_photon=1))
        gamma, beta = np.sqrt(2.0), np.sqrt(3.0)
        expected = np.array(
            [
                [0.5, gamma, gamma, 0.0],
                [gamma, 0.0, 0.0, beta],
                [gamma, 0.0, 0.0, beta],
                [0.0, beta, beta, -0.5],
            ]
        )
        assert np.max(np.abs(h - expected)) < 1e-15
        assert h.dtype == np.complex128

    def test_spectrum_is_zero_plus_cubic_roots(self):
        params = SystemParams(delta=0.8, n_photon=2)
        eigenvalues = eig_hermitian(subspace_hamiltonian(params)).eigenvalues
        sq = spectral_quantities(params)
        expected = np.sort(np.concatenate([[0.0], sq.mu]))
        assert np.max(np.abs(eigenvalues - expected)) < 1e-9

    def test_antisymmetric_state_decouples(self):
        h = subspace_hamiltonian(SystemParams(delta=1.3, n_photon=4))
        antisymmetric = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.max(np.abs(h @ antisymmetric)) < 1e-15


class TestFullHamiltonian:
    def test_hermitian(self):
        h = full_hamiltonian(SystemParams(delta=0.5, n_photon=1))
        assert hermiticity_defect(h) == 0.0

    @pytest.mark.parametrize("delta, n", [(0.0, 0), (0.5, 1), (-1.3, 9)])
    def test_equals_the_loop_built_oracle(self, delta, n):
        h = full_hamiltonian(SystemParams(delta=delta, n_photon=n))
        assert h.shape == (4 * (n + DEFAULT_CUTOFF_MARGIN + 1),) * 2
        assert np.array_equal(h, full_space_hamiltonian(delta, n))

    def test_action_on_doubly_excited_state(self):
        params = SystemParams(delta=0.5, n_photon=1)
        m_dim = params.n_photon + DEFAULT_CUTOFF_MARGIN + 1
        h = full_hamiltonian(params)
        source = np.zeros(4 * m_dim)
        source[0 * m_dim + 1] = 1.0  # both atoms excited, one photon
        image = h @ source
        expected = np.zeros(4 * m_dim)
        expected[0 * m_dim + 1] = 0.5  # detuning
        expected[1 * m_dim + 2] = np.sqrt(2.0)  # atom 2 emits
        expected[2 * m_dim + 2] = np.sqrt(2.0)  # atom 1 emits
        assert np.max(np.abs(image - expected)) < 1e-15

    def test_conserves_total_excitation(self):
        params = SystemParams(delta=0.7, n_photon=2)
        m_dim = params.n_photon + DEFAULT_CUTOFF_MARGIN + 1
        h = full_hamiltonian(params)
        excited_count = np.diag([2.0, 1.0, 1.0, 0.0])
        photon_count = np.diag(np.arange(m_dim, dtype=float))
        total = np.kron(excited_count, np.eye(m_dim)) + np.kron(np.eye(4), photon_count)
        assert np.max(np.abs(h @ total - total @ h)) < 1e-12

    @pytest.mark.parametrize("delta", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("n", (0, 1, 3))
    def test_restriction_reproduces_subspace_hamiltonian(self, delta, n):
        params = SystemParams(delta=delta, n_photon=n)
        h_full = full_hamiltonian(params)
        idx = full_space_block_indices(params.n_photon)
        restricted = h_full[np.ix_(idx, idx)]
        assert np.max(np.abs(restricted - subspace_hamiltonian(params))) < 1e-14

    def test_invariant_subspace_is_closed(self):
        # Columns of H at subspace states have support only inside the subspace.
        params = SystemParams(delta=0.5, n_photon=1)
        h = full_hamiltonian(params)
        idx = full_space_block_indices(params.n_photon)
        outside = [k for k in range(h.shape[0]) if k not in idx]
        for index in idx:
            column = h[:, index]
            assert np.max(np.abs(column[outside])) < 1e-15

