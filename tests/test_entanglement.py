"""Entanglement measure and classifier tests."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatomcavity import entanglement
from twoatomcavity.entanglement import (
    CLASS_LABELS,
    COEFFICIENT_FLOOR,
    PURITY_THRESHOLD,
    RESIDUAL_THRESHOLD,
    SEPARABLE_THRESHOLD,
    ClassMatch,
    classify,
    negativity,
)
from twoatomcavity.dynamics import time_series
from twoatomcavity.errors import NotNormalized
from twoatomcavity.linalg import eig_hermitian, partial_transpose
from twoatomcavity.model import (
    ATOMIC_STATE_NAMES,
    SystemParams,
    TwoAtomAmplitudes,
    named_atomic_state,
)

from oracles import (
    CLASSIFIER_TEMPLATES,
    CLASSIFIER_THRESHOLDS,
    brute_negativity,
    negativity_bounds_from_concurrence,
    random_local_unitary,
    random_product_atomic_state,
    random_state,
    record_classify,
    werner_pt_eigenvalues,
    werner_state,
    wootters_concurrence,
)


def pure_rho(vector) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.complex128)
    return np.outer(vector, vector.conj())


def normalized(vector) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.complex128)
    return vector / np.linalg.norm(vector)


class TestNegativity:
    def test_product_states_are_ppt(self, rng):
        for _ in range(8):
            rho = pure_rho(random_product_atomic_state(rng))
            assert negativity(rho) <= 1e-12

    def test_singlet_is_maximal(self):
        rho = pure_rho(named_atomic_state("singlet"))
        assert negativity(rho) == pytest.approx(1.0, abs=1e-12)
        pt_eigenvalues = eig_hermitian(partial_transpose(rho)).eigenvalues
        assert min(pt_eigenvalues) == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric_bell_state(self):
        rho = pure_rho(normalized([0.0, 1.0, 1.0, 0.0]))
        assert negativity(rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, p):
        rho = werner_state(p)
        pt_eigenvalues = eig_hermitian(partial_transpose(rho)).eigenvalues
        assert np.max(np.abs(pt_eigenvalues - werner_pt_eigenvalues(p))) < 1e-12
        expected_value = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert negativity(rho) == pytest.approx(expected_value, abs=1e-12)

    def test_werner_half_is_quarter(self):
        assert negativity(werner_state(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_matches_brute_oracle_on_mixtures(self, rng):
        for _ in range(5):
            states = [random_state(rng, 4) for _ in range(3)]
            weights = rng.random(3)
            weights /= weights.sum()
            rho = sum(w * pure_rho(s) for w, s in zip(weights, states))
            assert negativity(rho) == pytest.approx(
                brute_negativity(rho), abs=1e-9
            )

    def test_local_unitary_invariance(self, rng):
        base = pure_rho(named_atomic_state("singlet"))
        reference = negativity(base)
        for _ in range(10):
            u = random_local_unitary(rng)
            rotated = u @ base @ u.conj().T
            assert negativity(rotated) == pytest.approx(reference, abs=1e-10)

    def test_certified_states_are_exactly_zero(self):
        # X-form: the maximally mixed state and |eg><eg|, whose partial
        # transposes are diagonal; not X-form: a local rotation of a full-rank
        # product mixture, certified by its Cholesky factor.
        u = random_local_unitary(np.random.default_rng(3))
        product = pure_rho(named_atomic_state("eg"))
        mixture = u @ (0.5 * product + 0.125 * np.eye(4)) @ u.conj().T
        for rho in (np.eye(4) / 4.0, product, mixture):
            assert negativity(rho) == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            negativity(np.eye(3) / 3.0)

    def test_rejects_unnormalized_trace(self):
        with pytest.raises(NotNormalized):
            negativity(np.eye(4) / 2.0)

    def test_single_matrix_value_is_a_float64(self):
        assert type(negativity(werner_state(0.5))) is np.float64

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_stack_equals_per_matrix_calls(self, rng, shape):
        states = []
        for _ in range(int(np.prod(shape))):
            vectors = [random_state(rng, 4) for _ in range(2)]
            weight = rng.random()
            states.append(weight * pure_rho(vectors[0]) + (1.0 - weight) * pure_rho(vectors[1]))
        states = np.array(states).reshape(*shape, 4, 4)
        stacked = negativity(states)
        assert stacked.shape == shape
        stacked_spectra = eig_hermitian(partial_transpose(states)).eigenvalues
        assert stacked_spectra.shape == (*shape, 4)
        for index in np.ndindex(shape):
            assert stacked[index] == negativity(states[index])
            single_spectrum = eig_hermitian(partial_transpose(states[index])).eigenvalues
            assert np.array_equal(stacked_spectra[index], single_spectrum)

    @pytest.mark.parametrize(
        "certified_count", [0, 1, entanglement._SPLIT_MIN - 1, entanglement._SPLIT_MIN, 50])
    def test_certified_samples_split_off_or_not_equal_per_matrix_calls(self, rng,
                                                                       certified_count):
        # Separable states (mixtures with the identity) and entangled ones,
        # shuffled: every degree is its own call's, and the separable ones are 0.
        separable = [0.2 * pure_rho(random_state(rng, 4)) + 0.2 * np.eye(4)
                     for _ in range(certified_count)]
        entangled = [u @ werner_state(0.9) @ u.conj().T
                     for u in (random_local_unitary(rng) for _ in range(20))]
        states = np.array(separable + entangled)[rng.permutation(certified_count + 20)]
        stacked = negativity(states)
        assert np.array_equal(stacked, [negativity(rho) for rho in states])
        assert np.count_nonzero(stacked == 0.0) == certified_count

    @pytest.mark.parametrize("certified_count", [1, entanglement._SPLIT_MIN + 8])
    @pytest.mark.parametrize("faults", [
        {"certified": ("upper", 1e-3)},
        {"certified": ("upper", np.nan)},
        {"entangled": ("upper", 1e-3)},
        {"entangled": ("lower", np.nan)},
        {"certified": ("upper", np.nan), "entangled": ("upper", 1e-3)},
        {"certified": ("upper", 1e-3), "entangled": ("upper", 2e-3)},
    ])
    def test_bad_stacks_raise_as_one_eigendecomposition_would(self, certified_count, faults):
        # The certificate reads only the lower triangle, so a certified matrix
        # can hide a fault above the diagonal; whatever the split, the error
        # is the one eig_hermitian raises for the whole partial-transpose stack.
        pts = {"certified": partial_transpose(np.eye(4) / 4.0),
               "entangled": partial_transpose(pure_rho(named_atomic_state("singlet")))}
        for kind, (triangle, value) in faults.items():
            pts[kind] = pts[kind].copy()
            pts[kind][(0, 1) if triangle == "upper" else (1, 0)] += value
        stack = partial_transpose(np.array(
            [pts["certified"]] * certified_count + [pts["entangled"]]
            + [partial_transpose(np.eye(4) / 4.0)]
        ))
        with pytest.raises(Exception) as expected:
            eig_hermitian(partial_transpose(stack))
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            negativity(stack)

    def test_names_the_first_unnormalized_matrix_of_a_stack(self):
        states = np.array([np.eye(4) / 4.0] * 6).reshape(2, 3, 4, 4)
        states[0, 2] *= 1.5
        states[1, 0] *= 2.0
        with pytest.raises(NotNormalized, match=r"trace 1\.5 deviates"):
            negativity(states)


class TestConcurrenceOracle:
    """The concurrence must be right before it can bound the negativity."""

    def test_singlet_is_maximal(self):
        singlet = pure_rho(named_atomic_state("singlet"))
        assert wootters_concurrence(singlet) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_have_none(self, rng):
        for _ in range(8):
            rho = pure_rho(random_product_atomic_state(rng))
            assert wootters_concurrence(rho) < 1e-7

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, p):
        # Concurrence and negativity coincide on Werner states: max(0, (3p - 1)/2).
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert wootters_concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-12)

    def test_pure_states_have_concurrence_2_abs_ad_minus_bc(self, rng):
        for _ in range(8):
            a, b, c, d = random_state(rng, 4)
            expected = 2.0 * abs(a * d - b * c)
            assert wootters_concurrence(pure_rho([a, b, c, d])) == pytest.approx(expected, abs=1e-7)

    def test_bounds_meet_at_the_ends(self):
        assert negativity_bounds_from_concurrence(0.0) == (0.0, 0.0)
        assert negativity_bounds_from_concurrence(1.0) == (1.0, 1.0)

    def test_negativity_of_mixtures_lies_within_the_bounds(self, rng):
        for _ in range(20):
            weights = rng.dirichlet(np.ones(3))
            rho = sum(w * pure_rho(random_state(rng, 4)) for w in weights)
            lower, upper = negativity_bounds_from_concurrence(wootters_concurrence(rho))
            assert lower - 1e-12 <= negativity(rho) <= upper + 1e-12


class TestClassifyGates:
    def test_separable_product_state(self, rng):
        match = classify(pure_rho(random_product_atomic_state(rng)))
        assert match.label == "separable"

    def test_maximally_mixed_is_separable(self):
        assert classify(np.eye(4) / 4.0).label == "separable"

    def test_entangled_but_too_mixed(self):
        # Entangled Werner state whose dominant eigenvalue is well below 0.9.
        match = classify(werner_state(0.5))
        assert match.label == "mixed_unclassified"

    def test_nearly_pure_entangled_state_passes_purity_gate(self):
        match = classify(werner_state(0.95))
        # Dominant eigenvector is the singlet, which no template covers.
        assert match.label == "mixed_unclassified"

    def test_labels_stay_in_contract(self, rng):
        for _ in range(10):
            rho = pure_rho(random_state(rng, 4))
            assert classify(rho).label in CLASS_LABELS


class TestClassifyTemplates:
    def test_symmetric_one_excitation_pair(self):
        match = classify(pure_rho(normalized([0.0, 1.0, 1.0, 0.0])))
        assert match.label == "psi1_bell_like"
        assert match.template_params["mu"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
        assert match.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_three_component_superposition(self):
        match = classify(pure_rho(normalized([1.0, 1.0, 1.0, 0.0])))
        assert match.label == "psi2"
        assert match.template_params["mu1"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)

    def test_even_pair_plus_single_excitation(self):
        zeta = np.sqrt(1.0 - 2.0 * 0.36)
        match = classify(pure_rho([0.6, zeta, 0.0, 0.6]))
        assert match.label == "psi3_werner_like"
        assert match.template_params["eta"] == pytest.approx(0.6, abs=1e-9)
        assert match.template_params["zeta"] == pytest.approx(zeta, abs=1e-9)

    def test_even_pair_plus_symmetric_pair(self):
        # Unequal weights keep the state entangled (equal weights factorize).
        mu2 = 0.65
        nu = np.sqrt((1.0 - 2.0 * mu2**2) / 2.0)
        match = classify(pure_rho([mu2, nu, nu, mu2]))
        assert match.label == "psi4"
        assert match.template_params["mu2"] == pytest.approx(mu2, abs=1e-9)
        assert match.template_params["nu"] == pytest.approx(nu, abs=1e-9)

    def test_asymmetric_general_superposition(self):
        chi1, chi2 = 0.7, 0.5
        chi3 = np.sqrt((1.0 - chi1**2 - chi2**2) / 2.0)
        match = classify(pure_rho([chi1, chi3, chi3, chi2]))
        assert match.label == "psi5"
        assert match.template_params["chi1"] == pytest.approx(chi1, abs=1e-9)
        assert match.template_params["chi2"] == pytest.approx(chi2, abs=1e-9)
        assert match.template_params["chi3"] == pytest.approx(chi3, abs=1e-9)

    def test_even_bell_pair_falls_to_general_template(self):
        # (|ee> + |gg>)/sqrt(2): the more specific two-coefficient templates
        # decline it (their second coefficient is unused), the general one
        # claims it.
        match = classify(pure_rho(normalized([1.0, 0.0, 0.0, 1.0])))
        assert match.label == "psi5"
        assert match.template_params["chi1"] == pytest.approx(
            match.template_params["chi2"], abs=1e-9
        )
        assert abs(match.template_params["chi3"]) < 1e-9

    def test_global_phase_ignored(self):
        state = np.exp(0.7j) * normalized([0.0, 1.0, 1.0, 0.0])
        assert classify(pure_rho(state)).label == "psi1_bell_like"

    def test_relative_phase_breaks_real_fit(self):
        # (|ee> + i|gg>)/sqrt(2) admits no real-coefficient template form.
        match = classify(pure_rho(normalized([1.0, 0.0, 0.0, 1.0j])))
        assert match.label == "mixed_unclassified"
        assert match.fidelity == pytest.approx(0.5, abs=1e-9)

    def test_singlet_outside_template_family(self):
        match = classify(pure_rho(named_atomic_state("singlet")))
        assert match.label == "mixed_unclassified"

    def test_near_template_state_still_classified(self):
        # Small admixture keeps the residual below the threshold.
        state = normalized([0.03, 1.0, 1.0, 0.0])
        assert classify(pure_rho(state)).label == "psi1_bell_like"

    def test_returns_named_match(self):
        assert isinstance(classify(np.eye(4) / 4.0), ClassMatch)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 4, 4)])
    def test_rejects_anything_but_one_matrix(self, shape):
        with pytest.raises(ValueError):
            classify(np.ones(shape) / 4.0)


def stack_labels(states) -> list[str]:
    """Labels of ``_classify_stack`` for a list of matrices, as names."""
    stack = np.array(states, dtype=np.complex128)
    return [CLASS_LABELS[index] for index in entanglement._classify_stack(
        stack, negativity(stack)).tolist()]


class TestCertificates:
    """States that ``_classify_stack`` rules out without an eigendecomposition."""

    def test_rules_out_too_mixed_and_template_free_states(self):
        singlet = pure_rho(named_atomic_state("singlet"))
        states = np.array([werner_state(0.5), singlet, 0.95 * singlet + 0.05 * np.eye(4) / 4])
        assert entanglement._may_match(states).tolist() == [False, False, False]
        assert stack_labels(states) == ["mixed_unclassified"] * 3

    def test_keeps_every_template_state(self):
        states = [pure_rho(normalized(basis.T @ np.ones(len(names))))
                  for _, names, basis, _, _ in CLASSIFIER_TEMPLATES]
        assert entanglement._may_match(np.array(states, dtype=np.complex128)).all()

    def test_mixed_template_state_keeps_its_label(self):
        # tr(P rho) = 0.9475 lies below 1 - residual^2 = 0.9975 but above
        # 0.9 * 0.9975: only the dominant-eigenvalue factor of the span bound
        # keeps the state, whose dominant eigenvector is the template itself.
        rho = 0.93 * pure_rho(normalized([0.0, 1.0, 1.0, 0.0])) + 0.07 * np.eye(4) / 4.0
        assert classify(rho).label == "psi1_bell_like"
        assert stack_labels([rho]) == ["psi1_bell_like"]

    def test_nan_state_is_not_ruled_out(self):
        # Left to the eigendecomposition, whose checks reject it.
        states = np.array([werner_state(0.5)], dtype=np.complex128)  # ruled out by its norm
        states[0, 1, 2] = math.nan
        assert entanglement._may_match(states).tolist() == [True]


def test_oracle_thresholds_are_the_package_constants():
    assert CLASSIFIER_THRESHOLDS == {"separable": SEPARABLE_THRESHOLD, "purity": PURITY_THRESHOLD,
                                     "residual": RESIDUAL_THRESHOLD, "floor": COEFFICIENT_FLOOR}


def _span(rho: np.ndarray) -> float:
    """Largest ``tr(P rho)`` over the template projectors."""
    return max(float(np.real(np.trace(basis.T @ basis @ rho)))
               for _, _, basis, _, _ in CLASSIFIER_TEMPLATES)


_SINGLET = pure_rho(named_atomic_state("singlet"))

#: Largest template overlap below which the span bound rules a state out.
_REACH = max(PURITY_THRESHOLD, 0.25) * (1.0 - RESIDUAL_THRESHOLD**2)


@st.composite
def _unit_vector(draw):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    vector = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(vector)
    return normalized([1.0, 0.0, 0.0, 0.0]) if norm < 1e-3 else vector / norm


@st.composite
def _mixture(draw):
    """A mixture of one to four random pure states."""
    vectors = draw(st.lists(_unit_vector(), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(vectors),
                                     max_size=len(vectors))))
    weights /= weights.sum()
    return sum(w * pure_rho(v) for w, v in zip(weights, vectors))


@st.composite
def _template_state(draw):
    """A real combination of one template's basis, slightly perturbed."""
    _, names, basis, _, _ = draw(st.sampled_from(CLASSIFIER_TEMPLATES))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(names), max_size=len(names)))
    vector = basis.T @ np.array(weights) + 1e-3 * draw(_unit_vector())
    norm = np.linalg.norm(vector)
    return normalized(basis[0]) if norm < 1e-3 else vector / norm


@st.composite
def _classifier_case(draw):
    """A matrix of unit trace, at times on the edge of a classifier bound."""
    kind = draw(st.sampled_from(
        ["pure", "mixture", "singlet", "template", "purity_edge", "span_edge"]))
    weight = draw(st.floats(0.8, 1.0))
    offset = draw(st.sampled_from([-1e-8, -1e-12, 0.0, 1e-12, 1e-8]))
    if kind == "pure":
        return pure_rho(draw(_unit_vector()))
    if kind == "mixture":
        return draw(_mixture())
    if kind == "singlet":
        return weight * _SINGLET + (1.0 - weight) * draw(_mixture())
    template = weight * pure_rho(draw(_template_state())) + (1.0 - weight) * draw(_mixture())
    if kind == "template":
        return template
    if kind == "purity_edge":
        # Dominant eigenvalue at the purity threshold plus the offset.
        level = PURITY_THRESHOLD + offset
        vector = draw(st.one_of(_template_state(), _unit_vector()))
        rest = (1.0 - level) / 3.0
        return level * pure_rho(vector) + rest * (np.eye(4) - pure_rho(vector))
    # Mixed with the singlet until the largest template overlap reaches the
    # span bound plus the offset.
    target = _REACH + offset
    if not _span(_SINGLET) < target < _span(template):
        return template
    low, high = 0.0, 1.0
    for _ in range(80):
        middle = 0.5 * (low + high)
        if _span((1.0 - middle) * template + middle * _SINGLET) > target:
            low = middle
        else:
            high = middle
    return (1.0 - low) * template + low * _SINGLET


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases=st.lists(_classifier_case(), min_size=1, max_size=6))
@example(cases=[werner_state(0.95), pure_rho(normalized([0.6, 0.6j, 0.0, 0.5]))])
def test_classifier_matches_the_per_matrix_oracle(cases):
    # The stacked labels (certificates, then a fit of the rest) and every
    # field of classify() equal the decision that diagonalizes each state.
    for rho in cases:
        match = classify(rho)
        assert (match.label, match.fidelity, match.template_params) == record_classify(rho)
    assert stack_labels(cases) == [record_classify(rho)[0] for rho in cases]


def _assert_certificate_sound(rho: np.ndarray) -> None:
    """The PPT certificate of ``negativity`` against the partial-transpose spectrum.

    A certified state has every eigenvalue at or above -1e-15 and an ``eigh``
    degree below 1e-14, the CSV's snap to 0; every state whose smallest
    eigenvalue exceeds 1e-9 is certified, and none with an eigenvalue below
    -1e-12.  ``negativity`` gives the certified states exactly 0 and every
    other state its ``eigh`` degree, bit for bit.
    """
    pt = partial_transpose(rho).reshape(-1, 4, 4)
    certified = entanglement._ppt_certified(pt)
    eigenvalues = eig_hermitian(pt).eigenvalues
    degree = np.sum(np.abs(eigenvalues), axis=-1) - 1.0
    smallest = eigenvalues[:, 0]
    assert np.all(smallest[certified] >= -1e-15), smallest[certified].min()
    assert np.all(degree[certified] < 1e-14), degree[certified].max()
    assert np.all(certified[smallest > 1e-9]), smallest[~certified].max()
    assert not np.any(certified[smallest < -1e-12])
    expected = np.where(certified, 0.0, degree)
    assert np.array_equal(negativity(rho).reshape(-1), expected)


def _product_state(draw) -> TwoAtomAmplitudes:
    angles = st.floats(0.0, np.pi)
    phases = st.floats(0.0, 2.0 * np.pi)
    amplitudes = []
    for _ in range(2):
        theta, chi, phi = draw(angles), draw(phases), draw(phases)
        amplitudes += [np.cos(theta / 2) * np.exp(1j * chi), np.sin(theta / 2) * np.exp(1j * phi)]
    return TwoAtomAmplitudes(*amplitudes)


@st.composite
def _preparation(draw):
    """A named preparation or a random product of the two atoms."""
    if draw(st.booleans()):
        return named_atomic_state(draw(st.sampled_from(ATOMIC_STATE_NAMES)))
    return _product_state(draw)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    delta=st.floats(-3.0, 3.0),
    n_photon=st.one_of(st.integers(0, 3), st.integers(0, 10**6)),
    initial=_preparation(),
    tau_max=st.floats(0.1, 50.0),
    steps=st.integers(2, 200),
)
@example(delta=0.5, n_photon=0, initial=named_atomic_state("ee"), tau_max=10.0, steps=1001)
@example(delta=0.1, n_photon=0, initial=named_atomic_state("gg"), tau_max=10.0, steps=101)
@example(delta=0.5, n_photon=3, initial=named_atomic_state("gg"), tau_max=10.0, steps=1001)
def test_certificate_is_sound_on_series_states(delta, n_photon, initial, tau_max, steps):
    captured = []
    classify_stack = entanglement._classify_stack

    def capture(rho, degree):
        captured.append(rho.copy())
        return classify_stack(rho, degree)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "_classify_stack", capture)
        time_series(SystemParams(delta=delta, n_photon=n_photon), initial, tau_max, steps)
    _assert_certificate_sound(np.concatenate(captured))


@st.composite
def _density_matrix(draw):
    """A mixture, optionally made X-form and mixed with the identity: PSD or
    NPT partial transposes, singular or not, near the margin or far from it."""
    rho = draw(_mixture())
    if draw(st.booleans()):
        # The X part of a state is a state: the average of its conjugations
        # by diag(u, v, v, u) over the phases u and v.
        rho = rho * np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.complex128
        )
    weight = draw(st.sampled_from([0.0, 1e-9, 1e-6, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    return (1.0 - weight) * rho + weight * np.eye(4) / 4.0


#: An X state whose partial transpose has the block [[1e-7, 5e-8], [5e-8, 1e-7]]:
#: eigenvalues 5e-8 and 1.5e-7, but a determinant of only 7.5e-15, which a
#: margin on the determinant alone would not certify.
_SMALL_BLOCK = np.diag([0.5 - 1e-7, 1e-7, 1e-7, 0.5 - 1e-7]).astype(np.complex128)
_SMALL_BLOCK[0, 3] = _SMALL_BLOCK[3, 0] = 5e-8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(states=st.lists(_density_matrix(), min_size=1, max_size=8))
@example(states=[werner_state(1.0 / 3.0), werner_state(0.3), np.eye(4) / 4.0])
@example(states=[_SMALL_BLOCK])
def test_certificate_is_sound_on_density_matrices(states):
    _assert_certificate_sound(np.array(states))
