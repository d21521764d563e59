"""Reduced-dynamics tests: time series, series statistics, subspace routes."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoatomcavity import dynamics
from twoatomcavity.dynamics import (
    TimeSeriesRecord,
    average_negativity,
    evolve_reduced,
    evolve_reduced_subspace,
    first_negativity_zero,
    midline_crossing_count,
    negativity_zero_count,
    populations,
    time_series,
)
from twoatomcavity.entanglement import SEPARABLE_THRESHOLD, classify, negativity
from twoatomcavity.errors import NotNormalized, TruncationLeak
from twoatomcavity.model import (
    SystemParams,
    TwoAtomAmplitudes,
    full_hamiltonian,
    joint_state_from_atomic,
    named_atomic_state,
)

from oracles import (
    brute_negativity,
    brute_partial_trace_field,
    ladder_x_state,
    rk4_evolve,
    symmetric_ladder_amplitudes,
    symmetric_ladder_negativities,
)


def make_records(taus, negativities) -> list[TimeSeriesRecord]:
    return [
        TimeSeriesRecord(
            tau=float(tau),
            p_ee=0.0,
            p_eg=0.0,
            p_ge=0.0,
            p_gg=1.0,
            negativity=float(value),
            class_label="separable",
        )
        for tau, value in zip(taus, negativities)
    ]


class TestEvolveReduced:
    def test_matches_rk4_oracle(self):
        params = SystemParams(delta=0.5, n_photon=0)
        psi0 = joint_state_from_atomic(named_atomic_state("ee"), params)
        psi = rk4_evolve(full_hamiltonian(params), psi0, 0.5)
        expected = brute_partial_trace_field(psi, params.field_dim)
        rho = evolve_reduced(params, named_atomic_state("ee"), 0.5)
        assert np.max(np.abs(rho - expected)) < 1e-8

    def test_unit_trace_and_positivity(self):
        params = SystemParams(delta=0.1, n_photon=1)
        for tau in (0.0, 0.7, 2.9):
            rho = evolve_reduced(params, named_atomic_state("ee"), tau)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            eigenvalues = np.linalg.eigvalsh(rho)
            assert eigenvalues.min() > -1e-12

    def test_purity_range(self):
        params = SystemParams(delta=0.5, n_photon=3)
        for tau in (0.0, 1.1, 4.2, 8.8):
            rho = evolve_reduced(params, named_atomic_state("ee"), tau)
            purity = float(np.real(np.trace(rho @ rho)))
            assert 0.25 - 1e-12 <= purity <= 1.0 + 1e-12

    def test_block_sparsity_from_basis_initial(self):
        # Each atomic component rides a distinct photon number, so after the
        # trace only the pair sharing one survives as a coherence.
        params = SystemParams(delta=0.5, n_photon=0)
        rho = evolve_reduced(params, named_atomic_state("ee"), 1.3)
        for row, col in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert abs(rho[row, col]) < 1e-12
            assert abs(rho[col, row]) < 1e-12
        assert abs(rho[1, 2]) > 1e-3  # the surviving coherence is genuine

    def test_accepts_amplitude_object(self):
        params = SystemParams(delta=0.0, n_photon=0)
        amps = TwoAtomAmplitudes(a1=0.0, b1=1.0, a2=0.0, b2=1.0)
        via_object = evolve_reduced(params, amps, 0.9)
        via_vector = evolve_reduced(params, named_atomic_state("ee"), 0.9)
        assert np.max(np.abs(via_object - via_vector)) < 1e-14

    def test_singlet_is_stationary(self):
        params = SystemParams(delta=0.7, n_photon=2)
        singlet = named_atomic_state("singlet")
        frozen = np.outer(singlet, singlet.conj())
        for tau in (0.0, 2.5, 7.5):
            rho = evolve_reduced(params, singlet, tau)
            assert np.max(np.abs(rho - frozen)) < 1e-12


class TestSubspaceRoute:
    @pytest.mark.parametrize("n", (0, 3))
    def test_doubly_excited_agreement(self, n):
        params = SystemParams(delta=0.5, n_photon=n)
        for tau in (0.4, 1.9, 6.3):
            full_route = evolve_reduced(params, named_atomic_state("ee"), tau)
            subspace_route = evolve_reduced_subspace(params, "ee", tau)
            assert np.max(np.abs(full_route - subspace_route)) < 1e-10

    @pytest.mark.parametrize("n", (2, 5))
    def test_ground_pair_agreement(self, n):
        params = SystemParams(delta=0.5, n_photon=n)
        for tau in (0.4, 1.9):
            full_route = evolve_reduced(params, named_atomic_state("gg"), tau)
            subspace_route = evolve_reduced_subspace(params, "gg", tau)
            assert np.max(np.abs(full_route - subspace_route)) < 1e-10

    @pytest.mark.parametrize("n", (0, 1))
    def test_ground_pair_needs_two_photons(self, n):
        params = SystemParams(delta=0.5, n_photon=n)
        with pytest.raises(ValueError):
            evolve_reduced_subspace(params, "gg", 1.0)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            evolve_reduced_subspace(SystemParams(delta=0.0, n_photon=0), "eg", 1.0)


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
        params = SystemParams(delta=delta, n_photon=n)
        for k in (100, 437, 1000):
            rho = evolve_reduced(params, named_atomic_state(start), self.TAUS[k])
            assert np.max(np.abs(ladder_x_state(amplitudes[k]) - rho)) <= 1e-10

    def test_ground_pair_without_photons_is_stationary(self):
        amplitudes = symmetric_ladder_amplitudes(0.7, 0, "gg", self.TAUS)
        assert np.all(amplitudes[:, :2] == 0.0)
        assert np.max(np.abs(np.abs(amplitudes[:, 2]) - 1.0)) <= 1e-15
        assert np.all(symmetric_ladder_negativities(0.7, 0, "gg", self.TAUS) == 0.0)


class TestPopulations:
    def test_clamps_tiny_negatives(self):
        rho = np.diag([1.0, -5e-13, 0.0, 0.0]).astype(np.complex128)
        assert populations(rho) == (1.0, 0.0, 0.0, 0.0)

    def test_leaves_genuine_negatives_visible(self):
        rho = np.diag([1.0, -5e-12, 0.0, 0.0]).astype(np.complex128)
        assert populations(rho)[1] == -5e-12

    def test_reads_diagonal(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
        assert populations(rho) == (0.4, 0.3, 0.2, 0.1)


class TestTimeSeries:
    def test_grid_and_lengths(self):
        params = SystemParams(delta=0.5, n_photon=0)
        records = time_series(params, named_atomic_state("ee"), 2.0, 5)
        assert len(records) == 5
        assert [record.tau for record in records] == pytest.approx(
            list(np.linspace(0.0, 2.0, 5)), abs=0.0
        )

    def test_initial_point_is_exact(self):
        params = SystemParams(delta=0.5, n_photon=0)
        first = time_series(params, named_atomic_state("ee"), 2.0, 3)[0]
        assert first.p_ee == 1.0
        assert first.p_eg == 0.0 and first.p_ge == 0.0 and first.p_gg == 0.0
        assert first.negativity == 0.0
        assert first.class_label == "separable"

    def test_populations_sum_to_one(self):
        params = SystemParams(delta=0.1, n_photon=1)
        for record in time_series(params, named_atomic_state("ee"), 5.0, 21):
            assert sum(record.populations) == pytest.approx(1.0, abs=1e-12)

    def test_ground_pair_without_photons_is_stationary(self):
        params = SystemParams(delta=0.0, n_photon=0)
        records = time_series(params, named_atomic_state("gg"), 10.0, 2)
        first, last = records
        assert last.p_gg == pytest.approx(first.p_gg, abs=1e-12)
        assert last.negativity == pytest.approx(first.negativity, abs=1e-12)
        assert last.class_label == first.class_label

    def test_matches_pointwise_evolution(self):
        params = SystemParams(delta=0.5, n_photon=0)
        records = time_series(params, named_atomic_state("ee"), 3.0, 7)
        for record in records:
            rho = evolve_reduced(params, named_atomic_state("ee"), record.tau)
            assert record.p_ee == pytest.approx(float(np.real(rho[0, 0])), abs=1e-10)
            assert record.negativity == pytest.approx(negativity(rho).value, abs=1e-10)

    def test_classifier_kwargs_forwarded(self):
        params = SystemParams(delta=0.5, n_photon=0)
        records = time_series(
            params,
            named_atomic_state("ee"),
            2.0,
            4,
            classifier_kwargs={"separable_threshold": 2.0},
        )
        assert {record.class_label for record in records} == {"separable"}

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_phase_is_a_computation_error(self):
        # tau * eigenvalue overflows to inf, so the phases and the state are NaN.
        params = SystemParams(delta=0.0, n_photon=0)
        with pytest.raises(NotNormalized, match="nan"):
            time_series(params, named_atomic_state("ee"), 1e308, 3)

    def test_leak_message_names_first_offending_tau(self, monkeypatch):
        # At tau ~ 1e4 round-off mixes nearly degenerate eigenvectors of the
        # truncated space across excitation blocks and trips the guard. Every
        # chunk size, down to one sample at a time, must name the same first
        # offending tau of the grid, as a plain number.
        params = SystemParams(delta=0.1, n_photon=2)
        messages = []
        for chunk in (dynamics._CHUNK_SAMPLES, 4, 1):
            monkeypatch.setattr(dynamics, "_CHUNK_SAMPLES", chunk)
            with pytest.raises(TruncationLeak) as caught:
                time_series(params, named_atomic_state("eg"), 1e6, 1001)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == messages[2]
        match = re.fullmatch(
            r"amplitude \d\.\d{3}e-\d{2} on the top two Fock levels at "
            r"tau=(\d+\.\d+); raise fock_cutoff",
            messages[0],
        )
        assert match is not None, messages[0]
        assert float(match.group(1)) in np.linspace(0.0, 1e6, 1001)[1:]

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
    """Every chunked record equals evolve_reduced -> populations/negativity/classify."""
    (a1, b1), (a2, b2) = _product(*atom1), _product(*atom2)
    initial = TwoAtomAmplitudes(a1=a1, b1=b1, a2=a2, b2=b2)
    params = SystemParams(delta=delta, n_photon=n_photon)
    records = time_series(params, initial, tau_max, steps)
    assert len(records) == steps
    for record in records:
        rho = evolve_reduced(params, initial, record.tau)
        assert np.allclose(record.populations, populations(rho), rtol=0.0, atol=1e-10)
        degree = negativity(rho).value
        assert abs(record.negativity - degree) < 1e-10
        if abs(degree - SEPARABLE_THRESHOLD) > 1e-9:
            assert record.class_label == classify(rho).label, record


class TestSeriesStatistics:
    def test_first_zero_interpolates(self):
        records = make_records([0.0, 1.0, 2.0, 3.0], [0.5, 2e-6, 0.0, 0.0])
        assert first_negativity_zero(records) == 1.5

    def test_first_zero_requires_downward_crossing(self):
        rising = make_records([0.0, 1.0, 2.0], [0.0, 0.1, 0.2])
        assert first_negativity_zero(rising) is None

    def test_first_zero_ignores_subthreshold_noise(self):
        noisy = make_records([0.0, 1.0, 2.0], [1e-9, 1e-17, 1e-9])
        assert first_negativity_zero(noisy) is None

    def test_first_zero_skips_leading_flat_zero(self):
        records = make_records([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.3, 0.0])
        crossing = first_negativity_zero(records)
        assert crossing is not None and 2.0 < crossing <= 3.0

    def test_zero_count(self):
        records = make_records(range(5), [0.5, 0.0, 0.5, 0.0, 0.5])
        assert negativity_zero_count(records) == 2

    def test_zero_count_empty(self):
        records = make_records([0.0, 1.0], [0.2, 0.4])
        assert negativity_zero_count(records) == 0

    def test_average_is_trapezoidal(self):
        records = make_records([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert average_negativity(records) == pytest.approx(0.5, abs=1e-15)

    def test_average_of_constant(self):
        records = make_records([0.0, 2.0, 4.0], [0.3, 0.3, 0.3])
        assert average_negativity(records) == pytest.approx(0.3, abs=1e-15)

    def test_average_needs_two_records(self):
        with pytest.raises(ValueError):
            average_negativity(make_records([0.0], [0.1]))

    def test_midline_crossings(self):
        values = [0.6, 0.4, 0.45, 0.55, 0.5, 0.3]
        assert midline_crossing_count(values) == 3

    def test_midline_custom_level(self):
        assert midline_crossing_count([0.2, 0.0, 0.2], midline=0.1) == 2

    def test_midline_ignores_exact_hits(self):
        assert midline_crossing_count([0.6, 0.5, 0.6]) == 0
