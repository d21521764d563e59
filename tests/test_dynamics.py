"""Reduced-dynamics tests: time series, series statistics, the full-space oracle."""
from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twoatomcavity
from twoatomcavity import dynamics, entanglement
from twoatomcavity.cli import FORMAT_SNAP_TOL
from twoatomcavity.dynamics import (
    NEGATIVITY_ZERO_THRESHOLD,
    average_negativity,
    first_negativity_zero,
    negativity_zero_count,
    populations,
    time_series,
)
from twoatomcavity.entanglement import CLASS_LABELS, SEPARABLE_THRESHOLD, classify, negativity
from twoatomcavity.errors import NotNormalized
from twoatomcavity.model import (
    ATOMIC_STATE_NAMES,
    SystemParams,
    TwoAtomAmplitudes,
    full_hamiltonian,
    named_atomic_state,
)
from twoatomcavity.propagator import propagate_spectral

from oracles import (
    SINGLE_BLOCK_STARTS,
    FullSpaceOracle,
    brute_negativity,
    brute_partial_trace_field,
    exact_single_block_series,
    full_space_block_indices,
    ladder_x_state,
    midline_crossing_count,
    negativity_bounds_from_concurrence,
    record_average_negativity,
    record_first_negativity_zero,
    record_negativity_zero_count,
    rk4_evolve,
    symmetric_ladder_amplitudes,
    symmetric_ladder_negativities,
    wootters_concurrence,
)


class Sample(NamedTuple):
    """One sampled instant, as the record-loop oracles read it."""

    tau: float
    negativity: float


def columns_of(taus, negativities) -> tuple[np.ndarray, np.ndarray]:
    """The ``tau`` and ``negativity`` columns of a hand-written series."""
    return np.array(taus, dtype=float), np.array(negativities, dtype=float)


class TestFullSpaceOracle:
    def test_matches_rk4_oracle(self):
        params = SystemParams(delta=0.5, n_photon=0)
        oracle = FullSpaceOracle(0.5, 0)
        ee = named_atomic_state("ee")
        psi = rk4_evolve(full_hamiltonian(params), oracle.initial_state(ee), 0.5)
        assert np.max(np.abs(oracle.state(ee, 0.5) - psi)) < 1e-8
        expected = brute_partial_trace_field(psi, oracle.field_dim)
        assert np.max(np.abs(oracle.reduced_state(ee, 0.5) - expected)) < 1e-8

    def test_block_amplitudes_match_spectral_column(self):
        oracle = FullSpaceOracle(0.5, 1)
        evolved = oracle.state(named_atomic_state("ee"), 1.3)
        idx = full_space_block_indices(1)
        column = propagate_spectral(SystemParams(delta=0.5, n_photon=1), 1.3)[:, 0]
        assert np.max(np.abs(evolved[idx] - column)) < 1e-10
        assert np.max(np.abs(np.delete(evolved, idx))) < 1e-12

    def test_unit_trace_and_positivity(self):
        oracle = FullSpaceOracle(0.1, 1)
        for tau in (0.0, 0.7, 2.9):
            rho = oracle.reduced_state(named_atomic_state("ee"), tau)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            eigenvalues = np.linalg.eigvalsh(rho)
            assert eigenvalues.min() > -1e-12

    def test_purity_range(self):
        oracle = FullSpaceOracle(0.5, 3)
        for tau in (0.0, 1.1, 4.2, 8.8):
            rho = oracle.reduced_state(named_atomic_state("ee"), tau)
            purity = float(np.real(np.trace(rho @ rho)))
            assert 0.25 - 1e-12 <= purity <= 1.0 + 1e-12

    def test_block_sparsity_from_basis_initial(self):
        # Each atomic component rides a distinct photon number, so after the
        # trace only the pair sharing one survives as a coherence.
        rho = FullSpaceOracle(0.5, 0).reduced_state(named_atomic_state("ee"), 1.3)
        for row, col in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert abs(rho[row, col]) < 1e-12
            assert abs(rho[col, row]) < 1e-12
        assert abs(rho[1, 2]) > 1e-3  # the surviving coherence is genuine

    def test_initial_state_places_atoms_at_the_photon_number(self):
        oracle = FullSpaceOracle(0.0, 2)
        psi = oracle.initial_state([0.48, 0.64, 0.36, 0.48])
        for atomic, amplitude in enumerate((0.48, 0.64, 0.36, 0.48)):
            assert psi[atomic * oracle.field_dim + 2] == amplitude
        assert np.count_nonzero(psi) == 4
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-14

    def test_product_convention_matches_amplitude_object(self, rng):
        # The property test below builds product states with this kron.
        for _ in range(5):
            (a1, b1), (a2, b2) = (_product(*rng.uniform(0.0, np.pi, 3)) for _ in range(2))
            amps = TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2)
            assert np.max(np.abs(np.kron([b1, a1], [b2, a2]) - amps.atomic_vector())) < 1e-15

    def test_state_preserves_norm(self):
        oracle = FullSpaceOracle(0.5, 3)
        for tau in (0.0, 4.0, 37.5):
            psi = oracle.state(named_atomic_state("gg"), tau)
            assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12

    def test_top_fock_level_stays_empty(self):
        # A preparation at n photons never reaches the cutoff at n + 6.
        oracle = FullSpaceOracle(0.3, 1)
        for start in ("ee", "eg", "gg", "singlet"):
            for tau in (0.0, 2.2, 19.0):
                psi = oracle.state(named_atomic_state(start), tau).reshape(4, oracle.field_dim)
                assert np.max(np.abs(psi[:, -1])) < 1e-12

    def test_restricted_propagator_is_identity_at_zero(self):
        u = FullSpaceOracle(0.8, 4).restricted_propagator(0.0)
        assert np.max(np.abs(u - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("delta, n", [(0.0, 0), (0.5, 3), (-1.2, 7)])
    def test_restricted_propagator_is_unitary(self, delta, n):
        oracle = FullSpaceOracle(delta, n)
        for tau in (0.6, 5.0, 41.0):
            u = oracle.restricted_propagator(tau)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_singlet_is_stationary(self):
        oracle = FullSpaceOracle(0.7, 2)
        singlet = named_atomic_state("singlet")
        frozen = np.outer(singlet, singlet.conj())
        for tau in (0.0, 2.5, 7.5):
            rho = oracle.reduced_state(singlet, tau)
            assert np.max(np.abs(rho - frozen)) < 1e-12


class TestSymmetricLadderOracle:
    """The lifetime oracle of the acceptance suite against closed forms."""

    TAUS = np.linspace(0.0, 10.0, 1001)

    def test_resonant_doubly_excited_closed_form(self):
        # Eigenvalues 0, +-sqrt(6) on |ee,0>, |S,1>, |gg,2>.
        cos = np.cos(np.sqrt(6.0) * self.TAUS)
        a = (2.0 + cos) / 3.0
        b = -1j * np.sin(np.sqrt(6.0) * self.TAUS) / np.sqrt(6.0)
        c = np.sqrt(2.0) * (cos - 1.0) / 3.0
        amplitudes = symmetric_ladder_amplitudes(0.0, 0, "ee", self.TAUS)
        assert np.max(np.abs(amplitudes[:, 0] - a)) <= 1e-12
        assert np.max(np.abs(amplitudes[:, 1] / np.sqrt(2.0) - b)) <= 1e-12
        assert np.max(np.abs(amplitudes[:, 2] - c)) <= 1e-12
        # Entangled iff |b|^2 > |a||c|, i.e. cos > 7 + 6 sqrt(2): never.
        assert np.all(np.abs(b) ** 2 <= np.abs(a * c) + 1e-15)
        values = symmetric_ladder_negativities(0.0, 0, "ee", self.TAUS)
        assert np.max(np.abs(values)) <= 1e-12
        for k in range(0, len(self.TAUS), 50):
            rho = ladder_x_state((a[k], np.sqrt(2.0) * b[k], c[k]))
            assert abs(brute_negativity(rho) - values[k]) <= 1e-12

    def test_resonant_ground_pair_closed_form(self):
        # Two-state ladder |S,0>, |gg,1> with coupling sqrt(2).
        cos = np.cos(np.sqrt(2.0) * self.TAUS)
        sin = np.sin(np.sqrt(2.0) * self.TAUS)
        amplitudes = symmetric_ladder_amplitudes(0.0, 1, "gg", self.TAUS)
        assert np.all(amplitudes[:, 0] == 0.0)
        assert np.max(np.abs(amplitudes[:, 1] + 1j * sin)) <= 1e-12
        assert np.max(np.abs(amplitudes[:, 2] - cos)) <= 1e-12
        values = symmetric_ladder_negativities(0.0, 1, "gg", self.TAUS)
        expected = np.sqrt(cos**4 + sin**4) - cos**2
        assert np.max(np.abs(values - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "delta, n, start", [(1.0, 0, "ee"), (0.5, 3, "ee"), (1.0, 1, "gg"), (0.3, 4, "gg")]
    )
    def test_matches_brute_force_negativity(self, delta, n, start):
        amplitudes = symmetric_ladder_amplitudes(delta, n, start, self.TAUS)
        values = symmetric_ladder_negativities(delta, n, start, self.TAUS)
        assert np.max(values) > 0.01
        for k in range(0, len(self.TAUS), 25):
            rho = ladder_x_state(amplitudes[k])
            assert abs(brute_negativity(rho) - values[k]) <= 1e-12
        oracle = FullSpaceOracle(delta, n)
        for k in (100, 437, 1000):
            rho = oracle.reduced_state(named_atomic_state(start), self.TAUS[k])
            assert np.max(np.abs(ladder_x_state(amplitudes[k]) - rho)) <= 1e-10

    def test_ground_pair_without_photons_is_stationary(self):
        amplitudes = symmetric_ladder_amplitudes(0.7, 0, "gg", self.TAUS)
        assert np.all(amplitudes[:, :2] == 0.0)
        assert np.max(np.abs(np.abs(amplitudes[:, 2]) - 1.0)) <= 1e-15
        assert np.all(symmetric_ladder_negativities(0.7, 0, "gg", self.TAUS) == 0.0)


@pytest.mark.parametrize("n_photon", [0, 1, 2, 5, 1000])
@pytest.mark.parametrize("start", sorted(SINGLE_BLOCK_STARTS))
def test_named_series_match_the_40_digit_oracle(start, n_photon):
    """Populations and negativity of every single-block preparation lie within
    1e-12 of its 40-digit evolution, ``gg`` with its dropped states at n < 2."""
    columns = time_series(SystemParams(delta=-0.37, n_photon=n_photon),
                          named_atomic_state(start), 10.0, 41)
    exact = np.array(exact_single_block_series(start, -0.37, n_photon, 10.0, 41), dtype=float)
    assert np.array_equal(columns.tau, exact[:, 0])
    assert np.max(np.abs(columns.populations - exact[:, 1:5])) <= 1e-12
    assert np.max(np.abs(columns.negativity - exact[:, 5])) <= 1e-12


class TestPopulations:
    def test_clamps_tiny_negatives(self):
        rho = np.diag([1.0, -5e-13, 0.0, 0.0]).astype(np.complex128)
        assert populations(rho).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_leaves_genuine_negatives_visible(self):
        rho = np.diag([1.0, -5e-12, 0.0, 0.0]).astype(np.complex128)
        assert populations(rho)[1] == -5e-12

    def test_reads_diagonal(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
        assert populations(rho).tolist() == [0.4, 0.3, 0.2, 0.1]

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_stack_equals_per_matrix_calls(self, rng, shape):
        diagonals = rng.choice([0.5, 0.25, -5e-13, -5e-12, 0.0], size=(*shape, 4))
        matrices = np.zeros((*shape, 4, 4), dtype=np.complex128)
        matrices[..., range(4), range(4)] = diagonals
        matrices[..., 0, 1] = 0.1j
        stacked = populations(matrices)
        assert stacked.shape == (*shape, 4)
        for index in np.ndindex(shape):
            assert np.array_equal(stacked[index], populations(matrices[index]))


class TestTimeSeries:
    def test_grid_and_lengths(self):
        params = SystemParams(delta=0.5, n_photon=0)
        columns = time_series(params, named_atomic_state("ee"), 2.0, 5)
        assert len(columns.tau) == len(columns.negativity) == len(columns.labels) == 5
        assert columns.populations.shape == (5, 4)
        assert columns.tau.tolist() == pytest.approx(list(np.linspace(0.0, 2.0, 5)), abs=0.0)

    def test_initial_point_is_exact(self):
        params = SystemParams(delta=0.5, n_photon=0)
        columns = time_series(params, named_atomic_state("ee"), 2.0, 3)
        assert columns.populations[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert columns.negativity[0] == 0.0
        assert CLASS_LABELS[columns.labels[0]] == "separable"

    def test_populations_sum_to_one(self):
        params = SystemParams(delta=0.1, n_photon=1)
        for row in time_series(params, named_atomic_state("ee"), 5.0, 21).populations.tolist():
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_ground_pair_without_photons_is_stationary(self):
        params = SystemParams(delta=0.0, n_photon=0)
        columns = time_series(params, named_atomic_state("gg"), 10.0, 2)
        assert columns.populations[1, 3] == pytest.approx(columns.populations[0, 3], abs=1e-12)
        assert columns.negativity[1] == pytest.approx(columns.negativity[0], abs=1e-12)
        assert columns.labels[1] == columns.labels[0]

    def test_matches_pointwise_evolution(self):
        params = SystemParams(delta=0.5, n_photon=0)
        columns = time_series(params, named_atomic_state("ee"), 3.0, 7)
        oracle = FullSpaceOracle(0.5, 0)
        for tau, (p_ee, *_), value in zip(
            columns.tau.tolist(), columns.populations.tolist(), columns.negativity.tolist()
        ):
            rho = oracle.reduced_state(named_atomic_state("ee"), tau)
            assert p_ee == pytest.approx(float(np.real(rho[0, 0])), abs=1e-10)
            assert value == pytest.approx(negativity(rho), abs=1e-10)

    def test_rejects_bad_steps(self):
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(ValueError):
            time_series(params, named_atomic_state("ee"), 1.0, 1)
        with pytest.raises(ValueError):
            time_series(params, named_atomic_state("ee"), 1.0, 2.5)  # type: ignore[arg-type]

    def test_rejects_bad_window(self):
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(ValueError):
            time_series(params, named_atomic_state("ee"), 0.0, 5)

    @pytest.mark.parametrize("tau_max", [np.inf, np.nan])
    def test_rejects_non_finite_window(self, tau_max):
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(ValueError):
            time_series(params, named_atomic_state("ee"), tau_max, 5)

    @pytest.mark.parametrize("tau_max", [True, np.True_])
    def test_rejects_a_bool_window(self, tau_max):
        # SystemParams and the CLI reject a bool; True is not the window 1.0.
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(ValueError, match="tau_max"):
            time_series(params, named_atomic_state("eg"), tau_max, 3)

    def test_overflowing_phase_is_a_computation_error(self):
        # tau * eigenvalue overflows to inf, so the phases and the state are
        # NaN: one error, and no NumPy warning ahead of it.
        params = SystemParams(delta=0.0, n_photon=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized, match="nan"):
                time_series(params, named_atomic_state("ee"), 1e308, 3)
        src = str(Path(twoatomcavity.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "twoatomcavity.cli", "--tau-max", "1e308", "--steps", "3",
             "--output", os.devnull],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("computation error: ") and done.stderr.count("\n") == 1

    def test_rejects_bad_initial_vector(self):
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(ValueError):
            time_series(params, np.ones(3), 1.0, 5)


def _product(theta: float, chi: float, phi: float) -> tuple[complex, complex]:
    return np.cos(theta / 2) * np.exp(1j * chi), np.sin(theta / 2) * np.exp(1j * phi)


_angles = st.floats(0.0, np.pi)
_phases = st.floats(0.0, 2 * np.pi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    delta=st.floats(-1.0, 1.0),
    n_photon=st.integers(0, 9),
    atom1=st.tuples(_angles, _phases, _phases),
    atom2=st.tuples(_angles, _phases, _phases),
    tau_max=st.floats(0.1, 12.0),
    steps=st.integers(2, 200),
)
def test_batched_series_matches_scalar_route(delta, n_photon, atom1, atom2, tau_max, steps):
    """Every chunked sample equals the full-space oracle -> populations/negativity/classify."""
    (a1, b1), (a2, b2) = _product(*atom1), _product(*atom2)
    initial = TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2)
    columns = time_series(SystemParams(delta=delta, n_photon=n_photon), initial, tau_max, steps)
    assert len(columns.tau) == steps
    oracle = FullSpaceOracle(delta, n_photon)
    atomic = np.kron([b1, a1], [b2, a2])  # (ee, eg, ge, gg), excited first per atom
    for k, tau in enumerate(columns.tau.tolist()):
        rho = oracle.reduced_state(atomic, tau)
        assert np.allclose(columns.populations[k], populations(rho), rtol=0.0, atol=1e-10)
        degree = negativity(rho)
        assert abs(columns.negativity[k] - degree) < 1e-10
        if abs(degree - SEPARABLE_THRESHOLD) > 1e-9:
            assert CLASS_LABELS[columns.labels[k]] == classify(rho).label, (k, tau)


@st.composite
def _product_amplitudes(draw) -> tuple[complex, complex, complex, complex]:
    """Amplitudes ``(a1, b1, a2, b2)`` of a random complex product state."""
    (a1, b1), (a2, b2) = (
        _product(*draw(st.tuples(_angles, _phases, _phases))) for _ in range(2)
    )
    return a1, b1, a2, b2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.floats(-3.0, 3.0),
    n_photon=st.integers(0, 10**6),
    amplitudes=_product_amplitudes(),
    tau_max=st.floats(0.1, 20.0),
    steps=st.integers(2, 64),
)
@example(
    delta=0.3, n_photon=10**6, amplitudes=(0.6, 0.8, 0.8j, 0.6), tau_max=10.0, steps=101
)
def test_series_invariants_hold_at_any_photon_number(delta, n_photon, amplitudes, tau_max, steps):
    """Unit population sum, negativity in [0, 1], atom-swap symmetry, dark singlet."""
    params = SystemParams(delta=delta, n_photon=n_photon)
    a1, b1, a2, b2 = amplitudes
    columns = time_series(params, TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2), tau_max, steps)
    assert np.max(np.abs(columns.populations.sum(axis=1) - 1.0)) < 1e-10
    # Separable samples carry unsnapped round-off, which the CLI writes as 0.
    degree = columns.negativity
    assert np.all((degree > -FORMAT_SNAP_TOL) & (degree < 1.0 + FORMAT_SNAP_TOL))
    # Swapping the atoms swaps p_eg and p_ge and leaves the rest alone.
    swapped = time_series(params, TwoAtomAmplitudes(a1=a2, b1=b2, a2=a1, b2=b1), tau_max, steps)
    assert np.max(np.abs(columns.populations - swapped.populations[:, [0, 2, 1, 3]])) < 1e-9
    assert np.max(np.abs(columns.negativity - swapped.negativity)) < 1e-9
    singlet = time_series(params, named_atomic_state("singlet"), tau_max, steps)
    assert np.max(np.abs(singlet.negativity - 1.0)) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.floats(-3.0, 3.0),
    n_photon=st.integers(0, 10**6),
    amplitudes=_product_amplitudes(),
    tau_max=st.floats(0.1, 1e6),
    steps=st.integers(2, 300),
)
def test_classified_states_are_density_matrices(delta, n_photon, amplitudes, tau_max, steps):
    """Every state handed to the classifier is Hermitian, PSD and of unit trace.

    The classifier's span certificate holds only for such states.
    """
    captured = []
    classify_stack = entanglement._classify_stack

    def capture(rho, degree, **kwargs):
        captured.append(rho.copy())
        return classify_stack(rho, degree, **kwargs)

    a1, b1, a2, b2 = amplitudes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "_classify_stack", capture)
        time_series(SystemParams(delta=delta, n_photon=n_photon),
                       TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2), tau_max, steps)
    rho = np.concatenate(captured)
    assert len(rho) == steps
    assert np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
    assert np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)) <= 1e-10


class TestSeriesColumns:
    def test_a_sequence_call_never_classifies_and_has_no_populations(self, monkeypatch):
        params = SystemParams(delta=0.37, n_photon=3)
        series = time_series(params, named_atomic_state("eg"), 3.7, 300)

        def refuse(*args, **kwargs):
            raise AssertionError("computed a column a sweep does not read")

        monkeypatch.setattr(entanglement, "_classify_stack", refuse)
        monkeypatch.setattr(dynamics, "populations", refuse)
        sweep = time_series([params], named_atomic_state("eg"), 3.7, 300)
        assert sweep.populations is None and sweep.labels is None
        assert np.array_equal(sweep.tau, series.tau)
        assert np.array_equal(sweep.negativity, series.negativity[None])
        with pytest.raises(AssertionError, match="does not read"):
            time_series(params, named_atomic_state("eg"), 3.7, 300)


@st.composite
def _sweep_points(draw) -> list[SystemParams]:
    """The points of a delta sweep, or of a photon-number sweep through n = 0..5.

    Below n = 2 the blocks of the prepared |eg>, |ge> and |gg> states hold 3
    or 1 states, so a photon-number sweep stacks blocks of several sizes.
    """
    if draw(st.booleans()):
        n_photon = draw(st.integers(0, 4))
        deltas = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
        return [SystemParams(delta=delta, n_photon=n_photon) for delta in deltas]
    delta = draw(st.floats(-2.0, 2.0))
    photons = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    return [SystemParams(delta=delta, n_photon=n_photon) for n_photon in photons]


_PREPARATIONS = st.one_of(
    st.sampled_from(ATOMIC_STATE_NAMES).map(named_atomic_state),
    _product_amplitudes().map(lambda amplitudes: TwoAtomAmplitudes(*amplitudes)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    points=_sweep_points(),
    initial=_PREPARATIONS,
    tau_max=st.floats(0.1, 20.0),
    steps=st.integers(2, 40),
    chunk=st.sampled_from([1, 2, 7, 13, 64]),
)
@example(
    points=[SystemParams(delta=0.4, n_photon=n_photon) for n_photon in range(4)],
    initial=TwoAtomAmplitudes(0.6, 0.8, 0.8, 0.6j), tau_max=10.0, steps=11, chunk=7,
)
def test_stacked_points_equal_one_point_runs(points, initial, tau_max, steps, chunk):
    """Each point of a stacked call equals its own one-point call, bit for bit.

    The stacked call runs in chunks of ``chunk`` rows, which straddle points;
    the one-point calls run in the default chunks.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_CHUNK_SAMPLES", chunk)
        stacked = time_series(points, initial, tau_max, steps)
    assert stacked.negativity.shape == (len(points), steps)
    for point, params in enumerate(points):
        alone = time_series(params, initial, tau_max, steps)
        assert stacked.tau.tobytes() == alone.tau.tobytes()
        assert stacked.negativity[point].tobytes() == alone.negativity.tobytes()


#: Slack on the concurrence bounds: the square roots in the concurrence can
#: turn round-off of order 1e-16 on a rank-deficient state into about 1e-8.
#: The largest violation measured on 36,120 states of 120 series is 1.6e-15.
CONCURRENCE_SLACK = 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    delta=st.floats(-3.0, 3.0),
    n_photon=st.integers(0, 10**6),
    initial=_PREPARATIONS,
    tau_max=st.floats(0.1, 50.0),
    steps=st.integers(2, 64),
)
@example(delta=0.37, n_photon=3, initial=named_atomic_state("eg"), tau_max=10.0, steps=64)
def test_negativity_lies_within_the_concurrence_bounds(delta, n_photon, initial, tau_max, steps):
    """``sqrt((1-C)^2 + C^2) - (1-C) <= N <= C`` for every state of a series.

    ``C`` is Wootters' concurrence of the reduced state handed to the
    classifier and ``N`` the negativity the series reports for it.
    """
    captured = []
    classify_stack = entanglement._classify_stack

    def capture(rho, degree, **kwargs):
        captured.append((rho.copy(), np.array(degree)))
        return classify_stack(rho, degree, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "_classify_stack", capture)
        columns = time_series(SystemParams(delta=delta, n_photon=n_photon), initial, tau_max, steps)
    states = np.concatenate([rho for rho, _ in captured])
    degrees = np.concatenate([degree for _, degree in captured])
    assert np.array_equal(degrees, columns.negativity)
    for rho, degree in zip(states, degrees.tolist()):
        lower, upper = negativity_bounds_from_concurrence(wootters_concurrence(rho))
        assert lower - CONCURRENCE_SLACK <= degree, (lower, degree)
        assert degree <= upper + CONCURRENCE_SLACK, (degree, upper)


_THRESHOLD = NEGATIVITY_ZERO_THRESHOLD

#: Values at and next to the zero threshold, and the ends of [0, 1].
_EDGE_VALUES = (
    0.0, 1.0, _THRESHOLD, float(np.nextafter(_THRESHOLD, 0.0)),
    float(np.nextafter(_THRESHOLD, 1.0)),
)


@st.composite
def _negativity_series(draw) -> list[float]:
    """Negativity samples: all zero, all one, random with edge values, or with a plateau."""
    size = draw(st.one_of(st.just(2), st.integers(2, 64)))
    kind = draw(st.sampled_from(("zeros", "ones", "mixed", "plateau")))
    if kind == "zeros":
        return [0.0] * size
    if kind == "ones":
        return [1.0] * size
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(0.0, 1.0))
    values = draw(st.lists(value, min_size=size, max_size=size))
    if kind == "plateau":
        start = draw(st.integers(0, size - 1))
        stop = draw(st.integers(start + 1, size))
        values[start:stop] = [_THRESHOLD] * (stop - start)
    return values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_negativity_series(), tau_max=st.floats(1e-3, 1e6))
@example(values=[0.0, 0.0], tau_max=10.0)
@example(values=[1.0, 1.0], tau_max=10.0)
@example(values=[0.3, _THRESHOLD], tau_max=10.0)
@example(values=[0.3, _THRESHOLD, _THRESHOLD, 0.2, 0.0], tau_max=3.7)
def test_array_statistics_equal_the_record_loops_bit_for_bit(values, tau_max):
    tau = np.linspace(0.0, tau_max, len(values))
    negativity = np.array(values)
    records = [Sample(t, value) for t, value in zip(tau.tolist(), values)]
    assert first_negativity_zero(tau, negativity) == record_first_negativity_zero(
        records, _THRESHOLD
    )
    assert negativity_zero_count(negativity) == record_negativity_zero_count(records, _THRESHOLD)
    assert average_negativity(tau, negativity) == record_average_negativity(records)


class TestSeriesStatistics:
    def test_first_zero_interpolates(self):
        columns = columns_of([0.0, 1.0, 2.0, 3.0], [0.5, 2e-6, 0.0, 0.0])
        assert first_negativity_zero(*columns) == 1.5

    def test_first_zero_requires_downward_crossing(self):
        rising = columns_of([0.0, 1.0, 2.0], [0.0, 0.1, 0.2])
        assert first_negativity_zero(*rising) is None

    def test_first_zero_ignores_subthreshold_noise(self):
        noisy = columns_of([0.0, 1.0, 2.0], [1e-9, 1e-17, 1e-9])
        assert first_negativity_zero(*noisy) is None

    def test_first_zero_skips_leading_flat_zero(self):
        columns = columns_of([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.3, 0.0])
        crossing = first_negativity_zero(*columns)
        assert crossing is not None and 2.0 < crossing <= 3.0

    def test_first_zero_interpolates_across_the_threshold(self):
        # Equal gaps above and below the zero threshold put the crossing halfway.
        above, below = 1.5 * _THRESHOLD, 0.5 * _THRESHOLD
        columns = columns_of([0.0, 1.0, 2.0], [above, below, below])
        assert first_negativity_zero(*columns) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "taus, values",
        [
            ([0.0, 1.0], [0.5, 0.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.5, 2e-6, 0.0, 0.3]),
            ([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.25, 0.0, 0.25, 0.0]),
        ],
    )
    def test_lists_give_the_values_of_arrays(self, taus, values):
        tau, negativity = columns_of(taus, values)
        assert first_negativity_zero(taus, values) == first_negativity_zero(tau, negativity)
        assert negativity_zero_count(values) == negativity_zero_count(negativity)
        assert average_negativity(taus, values) == average_negativity(tau, negativity)

    def test_zero_count(self):
        _, values = columns_of(range(5), [0.5, 0.0, 0.5, 0.0, 0.5])
        assert negativity_zero_count(values) == 2

    def test_zero_count_empty(self):
        _, values = columns_of([0.0, 1.0], [0.2, 0.4])
        assert negativity_zero_count(values) == 0

    def test_average_is_trapezoidal(self):
        columns = columns_of([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert average_negativity(*columns) == pytest.approx(0.5, abs=1e-15)

    def test_average_of_constant(self):
        columns = columns_of([0.0, 2.0, 4.0], [0.3, 0.3, 0.3])
        assert average_negativity(*columns) == pytest.approx(0.3, abs=1e-15)

    def test_average_adds_left_to_right_on_every_python(self):
        # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum is 0.0; the
        # compensated built-in sum of Python 3.12 and later would give 1.0.
        columns = columns_of(range(5), [0.0, 1e16, 1.0, -1e16, 0.0])
        assert average_negativity(*columns) == 0.0

    def test_average_needs_two_records(self):
        with pytest.raises(ValueError):
            average_negativity(*columns_of([0.0], [0.1]))

    def test_average_needs_a_window_of_nonzero_length(self):
        with pytest.raises(ValueError, match="zero length"):
            average_negativity([1.0, 1.0], [0.2, 0.4])

    def test_average_needs_a_uniform_grid(self):
        # The trapezoid weights assume one step; an uneven grid would
        # average [1, 1, 1] over [0, 1, 3] to 2/3.
        with pytest.raises(ValueError, match="not a uniform grid: step 1 is 2.0"):
            average_negativity([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])

    def test_a_sweeps_two_dimensional_columns_are_rejected(self):
        # A sweep's negativity leads with a point axis; each statistic takes
        # one point's column, and reading a (P, T) stack as one series would
        # compare points instead of samples.
        points = [SystemParams(delta=delta, n_photon=0) for delta in (0.1, 0.5)]
        sweep = time_series(points, named_atomic_state("ee"), 10.0, 101)
        assert [negativity_zero_count(column) for column in sweep.negativity] == [0, 2]
        tau = np.broadcast_to(sweep.tau, sweep.negativity.shape)
        with pytest.raises(ValueError, match=r"shape \(2, 101\)"):
            negativity_zero_count(sweep.negativity)
        with pytest.raises(ValueError, match=r"shape \(2, 101\)"):
            first_negativity_zero(tau, sweep.negativity)
        with pytest.raises(ValueError, match=r"shape \(2, 101\)"):
            average_negativity(tau, sweep.negativity)

    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            average_negativity([0.0, 1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="differ in shape"):
            first_negativity_zero([0.0, 1.0], [0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="differ in shape"):
            first_negativity_zero([0.0, 1.0, 2.0], [0.5, 0.5, 0.0, 0.0])


class TestMidlineCrossingCount:
    """The oscillation count that acceptance criterion 07 compares."""

    def test_midline_crossings(self):
        values = [0.6, 0.4, 0.45, 0.55, 0.5, 0.3]
        assert midline_crossing_count(values) == 3

    def test_midline_ignores_exact_hits(self):
        assert midline_crossing_count([0.6, 0.5, 0.6]) == 0
