"""Linear-algebra kernel tests against independent oracles."""
from __future__ import annotations

import numpy as np
import pytest

from twoatomcavity import linalg
from twoatomcavity.errors import NotHermitian, NotNormalized
from twoatomcavity.linalg import (
    MAX_DIM,
    HermitianEigensystem,
    eig_hermitian,
    expm_i_hermitian,
    hermiticity_defect,
    partial_trace_field,
    partial_transpose,
)

from oracles import (
    brute_partial_trace_field,
    brute_partial_transpose_second,
    jacobi_eigh,
    random_hermitian,
    random_state,
    rk4_evolve,
)


class TestJacobiOracle:
    """The oracle itself must be trustworthy before it can vouch for anything."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 9])
    def test_reconstructs_matrix(self, rng, dim):
        matrix = random_hermitian(rng, dim)
        eigenvalues, eigenvectors = jacobi_eigh(matrix)
        rebuilt = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - matrix)) < 1e-11

    @pytest.mark.parametrize("dim", [2, 3, 5, 9])
    def test_columns_orthonormal(self, rng, dim):
        _, eigenvectors = jacobi_eigh(random_hermitian(rng, dim))
        gram = eigenvectors.conj().T @ eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12

    def test_known_2x2(self):
        # [[0, 1], [1, 0]] has eigenvalues -1, +1
        eigenvalues, _ = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eigenvalues, [-1.0, 1.0], atol=1e-14)


class TestEigHermitian:
    @pytest.mark.parametrize("dim", [2, 4, 7, 16])
    def test_matches_jacobi_oracle(self, rng, dim):
        matrix = random_hermitian(rng, dim)
        system = eig_hermitian(matrix)
        oracle_values, _ = jacobi_eigh(matrix)
        assert np.max(np.abs(system.eigenvalues - oracle_values)) < 1e-10

    def test_ascending_and_orthonormal(self, rng):
        system = eig_hermitian(random_hermitian(rng, 8))
        assert np.all(np.diff(system.eigenvalues) >= 0.0)
        gram = system.eigenvectors.conj().T @ system.eigenvectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_reconstruction(self, rng):
        matrix = random_hermitian(rng, 6)
        system = eig_hermitian(matrix)
        rebuilt = (
            system.eigenvectors
            @ np.diag(system.eigenvalues)
            @ system.eigenvectors.conj().T
        )
        assert np.max(np.abs(rebuilt - matrix)) < 1e-12

    def test_deterministic(self, rng):
        matrix = random_hermitian(rng, 12)
        first = eig_hermitian(matrix)
        second = eig_hermitian(matrix.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_returns_named_result(self, rng):
        assert isinstance(eig_hermitian(random_hermitian(rng, 3)), HermitianEigensystem)

    def test_rejects_non_hermitian(self, rng):
        matrix = random_hermitian(rng, 4)
        matrix[0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            eig_hermitian(matrix)

    def test_accepts_defect_below_tolerance(self, rng):
        matrix = random_hermitian(rng, 4)
        matrix[0, 1] += 1e-12
        assert hermiticity_defect(matrix) < 1e-10
        eig_hermitian(matrix)  # must not raise

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((3, 4)))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.eye(MAX_DIM + 1))

    def test_accepts_max_dimension(self):
        system = eig_hermitian(np.eye(MAX_DIM))
        assert system.eigenvalues.shape == (MAX_DIM,)

    def test_rejects_non_finite(self):
        matrix = np.eye(3)
        matrix[1, 1] = np.nan
        with pytest.raises(ValueError):
            eig_hermitian(matrix)

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_stack_equals_per_matrix_calls(self, rng, shape, dim):
        matrices = np.array(
            [random_hermitian(rng, dim) for _ in range(int(np.prod(shape)))]
        ).reshape(*shape, dim, dim)
        stacked = eig_hermitian(matrices)
        assert stacked.eigenvalues.shape == (*shape, dim)
        assert stacked.eigenvectors.shape == (*shape, dim, dim)
        for t in (0.0, 1.7):
            unitaries = stacked.unitary(t)
            for index in np.ndindex(shape):
                alone = eig_hermitian(matrices[index])
                assert np.array_equal(stacked.eigenvalues[index], alone.eigenvalues)
                assert np.array_equal(stacked.eigenvectors[index], alone.eigenvectors)
                assert np.array_equal(unitaries[index], alone.unitary(t))

    def test_one_non_hermitian_member_fails_the_stack(self, rng):
        matrices = np.array([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        matrices[1, 2, 0, 3] += 1e-6
        with pytest.raises(NotHermitian):
            eig_hermitian(matrices)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_one_non_finite_member_fails_the_stack(self, rng, bad):
        matrices = np.array([random_hermitian(rng, 4) for _ in range(5)])
        matrices[3, 2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(matrices)

    def test_rejects_oversized_stack(self):
        with pytest.raises(ValueError, match="exceeds"):
            eig_hermitian(np.broadcast_to(np.eye(MAX_DIM + 1), (2, MAX_DIM + 1, MAX_DIM + 1)))

    @pytest.mark.parametrize("shape", [(4,), (3, 4, 5), (2, 0, 3)])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros(shape))


class TestUnitaryOverTimes:
    """``unitary`` of an array of times stacks its single-time calls."""

    TIMES = np.array([1.7, 0.0, -0.4, 1e6, 0.0, 3.3e-9, 5.0, -0.0])

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_each_time_equals_its_own_call_bit_for_bit(self, rng, shape, dim):
        matrices = np.array(
            [random_hermitian(rng, dim) for _ in range(int(np.prod(shape)))]
        ).reshape(*shape, dim, dim)
        system = eig_hermitian(matrices)
        unitaries = system.unitary(self.TIMES)
        assert unitaries.shape == (len(self.TIMES), *shape, dim, dim)
        assert unitaries.dtype == np.complex128
        for k, t in enumerate(self.TIMES.tolist()):
            assert unitaries[k].tobytes() == system.unitary(t).tobytes(), t

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_exact_identities_where_time_is_zero(self, rng, shape):
        matrices = np.array(
            [random_hermitian(rng, 4) for _ in range(int(np.prod(shape)))]
        ).reshape(*shape, 4, 4)
        unitaries = eig_hermitian(matrices).unitary(self.TIMES)
        identities = np.broadcast_to(np.eye(4, dtype=np.complex128), (*shape, 4, 4))
        for k in np.flatnonzero(self.TIMES == 0.0):
            assert unitaries[k].tobytes() == identities.tobytes()
        assert not np.array_equal(unitaries[0], identities)

    def test_array_of_times_keeps_its_shape(self, rng):
        system = eig_hermitian(random_hermitian(rng, 3))
        times = self.TIMES.reshape(2, 4)
        unitaries = system.unitary(times)
        assert unitaries.shape == (2, 4, 3, 3)
        assert unitaries[1, 3].tobytes() == system.unitary(times[1, 3]).tobytes()


def test_one_eigensolver():
    # Every eigendecomposition goes through eig_hermitian, which takes stacks.
    assert not hasattr(linalg, "_eigh_stack")
    assert not hasattr(linalg, "_validate_square")


class TestExpm:
    def test_identity_at_zero_is_exact(self, rng):
        matrix = random_hermitian(rng, 5)
        result = expm_i_hermitian(matrix, 0.0)
        assert np.array_equal(result, np.eye(5, dtype=np.complex128))

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_rejects_non_hermitian_at_every_time(self, rng, t):
        matrix = random_hermitian(rng, 4)
        matrix[0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            expm_i_hermitian(matrix, t)

    def test_unitary(self, rng):
        u = expm_i_hermitian(random_hermitian(rng, 6), 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12

    def test_matches_rk4_oracle(self, rng):
        matrix = random_hermitian(rng, 6)
        psi0 = random_state(rng, 6)
        spectral = expm_i_hermitian(matrix, 0.7) @ psi0
        integrated = rk4_evolve(matrix, psi0, 0.7)
        assert np.max(np.abs(spectral - integrated)) < 1e-8

    def test_diagonal_case(self):
        diag = np.diag([1.0, -2.0, 0.5])
        u = expm_i_hermitian(diag, 2.0)
        expected = np.diag(np.exp(-1j * np.array([1.0, -2.0, 0.5]) * 2.0))
        assert np.max(np.abs(u - expected)) < 1e-14

    def test_group_property(self, rng):
        matrix = random_hermitian(rng, 4)
        both = expm_i_hermitian(matrix, 0.9) @ expm_i_hermitian(matrix, 0.4)
        direct = expm_i_hermitian(matrix, 1.3)
        assert np.max(np.abs(both - direct)) < 1e-12


class TestPartialTraceField:
    def test_product_state(self, rng):
        atoms = random_state(rng, 4)
        field = random_state(rng, 5)
        rho = partial_trace_field(np.kron(atoms, field).reshape(4, 5))
        assert np.max(np.abs(rho - np.outer(atoms, atoms.conj()))) < 1e-12

    def test_matches_brute_oracle(self, rng):
        for _ in range(5):
            psi = random_state(rng, 4 * 6)
            rho = partial_trace_field(psi.reshape(4, 6))
            assert np.max(np.abs(rho - brute_partial_trace_field(psi, 6))) < 1e-12

    def test_unit_trace_and_hermitian(self, rng):
        rho = partial_trace_field(random_state(rng, 4 * 7).reshape(4, 7))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_rescales_tiny_norm_error(self, rng):
        psi = random_state(rng, 4 * 3).reshape(4, 3) * (1.0 + 2e-11)
        rho = partial_trace_field(psi)
        assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_rejects_unnormalized(self, rng):
        with pytest.raises(NotNormalized):
            partial_trace_field(random_state(rng, 4 * 3).reshape(4, 3) * 1.001)

    def test_rejects_bad_shape(self):
        # A flat state vector is reshaped by the caller.
        with pytest.raises(ValueError):
            partial_trace_field(np.ones(12) / np.sqrt(12.0))

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_stack_equals_per_state_calls(self, rng, shape):
        # Some states are off unit norm by round-off, so the rescale runs too.
        scale = 1.0 + rng.choice([0.0, 2e-11], size=shape)[..., None, None]
        states = np.array(
            [random_state(rng, 4 * 5).reshape(4, 5) for _ in range(int(np.prod(shape)))]
        ).reshape(*shape, 4, 5) * scale
        stacked = partial_trace_field(states)
        assert stacked.shape == (*shape, 4, 4)
        for index in np.ndindex(shape):
            assert np.array_equal(stacked[index], partial_trace_field(states[index]))

    def test_names_the_first_unnormalized_state_of_a_stack(self, rng):
        states = np.array([random_state(rng, 4 * 3).reshape(4, 3) for _ in range(6)])
        states = states.reshape(2, 3, 4, 3)
        states[0, 2] *= 1.001
        states[1, 0] *= 1.002
        with pytest.raises(NotNormalized) as error:
            partial_trace_field(states)
        reported = float(str(error.value).split()[2])
        assert reported == pytest.approx(1.001**2, rel=1e-12)


class TestPartialTranspose:
    def test_matches_brute_oracle(self, rng):
        psi = random_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        assert np.array_equal(partial_transpose(rho), brute_partial_transpose_second(rho))

    def test_involution(self, rng):
        rho = random_hermitian(rng, 4)
        assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)

    def test_transposes_second_factor_of_product(self, rng):
        rho1 = random_hermitian(rng, 2)
        rho2 = random_hermitian(rng, 2)
        product = np.kron(rho1, rho2)
        expected = np.kron(rho1, rho2.T)
        assert np.max(np.abs(partial_transpose(product) - expected)) < 1e-15

    def test_preserves_trace(self, rng):
        rho = random_hermitian(rng, 4)
        assert abs(np.trace(partial_transpose(rho)) - np.trace(rho)) < 1e-15

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_stack_equals_per_matrix_calls(self, rng, shape):
        matrices = np.array(
            [random_hermitian(rng, 4) for _ in range(int(np.prod(shape)))]
        ).reshape(*shape, 4, 4)
        stacked = partial_transpose(matrices)
        for index in np.ndindex(shape):
            assert np.array_equal(stacked[index], partial_transpose(matrices[index]))

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 3)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError):
            partial_transpose(np.zeros(shape))
