"""Propagator tests: spectral, closed-form, and the audit."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoatomcavity.errors import DegenerateRoots, DomainError
from twoatomcavity.linalg import eig_hermitian
from twoatomcavity.model import (
    DEFAULT_CUTOFF_MARGIN,
    SystemParams,
    spectral_quantities,
    subspace_hamiltonian,
)
from twoatomcavity.propagator import (
    AUDIT_TOL,
    CLOSED_FORM_MODES,
    CONSTANT_TERM_FINDING,
    ELEMENT_IDS,
    AuditReport,
    audit_closed_form,
    propagate_closed_form,
    propagate_spectral,
)

from oracles import FullSpaceOracle, loop_audit, rk4_evolve

PARAM_GRID = [
    SystemParams(delta=delta, n_photon=n)
    for delta in (0.0, 0.1, 0.5, 1.0)
    for n in (0, 1, 3)
]
TAU_SAMPLES = (0.0, 0.5, 1.3, 2.7, 5.0)

#: Flat positions of the two elements with the known unrepairable defect.
DEFECTIVE_POSITIONS = ((1, 1), (2, 2))


def element_mask(positions) -> np.ndarray:
    mask = np.zeros((4, 4), dtype=bool)
    for row, col in positions:
        mask[row, col] = True
    return mask


class TestSpectralPropagator:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_unitary(self, params):
        for tau in TAU_SAMPLES:
            u = propagate_spectral(params, tau)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_identity_at_zero(self):
        u = propagate_spectral(SystemParams(delta=0.5, n_photon=0), 0.0)
        assert np.array_equal(u, np.eye(4, dtype=np.complex128))

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_matches_full_space_restriction(self, params):
        oracle = FullSpaceOracle(params.delta, params.n_photon)
        for tau in (0.0, 0.9, 3.1):
            subspace = propagate_spectral(params, tau)
            restricted = oracle.restricted_propagator(tau)
            assert np.max(np.abs(subspace - restricted)) < 1e-9

    def test_matches_rk4_oracle(self):
        params = SystemParams(delta=0.5, n_photon=1)
        u = propagate_spectral(params, 0.8)
        from twoatomcavity.model import subspace_hamiltonian

        for column in range(4):
            start = np.eye(4, dtype=np.complex128)[:, column]
            integrated = rk4_evolve(subspace_hamiltonian(params), start, 0.8)
            assert np.max(np.abs(u[:, column] - integrated)) < 1e-8

    @pytest.mark.parametrize("propagate", [propagate_spectral, propagate_closed_form])
    def test_returns_the_bare_matrix(self, propagate):
        u = propagate(SystemParams(delta=0.5, n_photon=1), 0.3)
        assert type(u) is np.ndarray
        assert (u.shape, u.dtype) == ((4, 4), np.complex128)


class TestClosedForm:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_corrected_matches_spectral_outside_defect(self, params):
        bad = element_mask(DEFECTIVE_POSITIONS)
        for tau in TAU_SAMPLES:
            closed = propagate_closed_form(params, tau, mode="corrected")
            reference = propagate_spectral(params, tau)
            deviation = np.abs(closed - reference)
            assert np.max(deviation[~bad]) < 1e-9

    @pytest.mark.parametrize("params", PARAM_GRID[:4])
    def test_defective_elements_disagree(self, params):
        worst = 0.0
        for tau in TAU_SAMPLES:
            closed = propagate_closed_form(params, tau, mode="corrected")
            reference = propagate_spectral(params, tau)
            worst = max(worst, float(np.abs(closed - reference)[1, 1]))
        assert worst > 1e-3

    def test_symmetry_structure(self):
        u = propagate_closed_form(SystemParams(delta=0.5, n_photon=0), 1.2)
        # Atom-exchange symmetry ties rows/columns 2 and 3 together.
        assert u[0, 1] == u[0, 2] == u[1, 0] == u[2, 0]
        assert u[1, 3] == u[2, 3] == u[3, 1] == u[3, 2]
        assert u[1, 1] == u[2, 2] and u[1, 2] == u[2, 1]
        assert u[0, 3] == u[3, 0]

    def test_strict_and_corrected_share_u22(self):
        params = SystemParams(delta=0.5, n_photon=0)
        for tau in TAU_SAMPLES:
            strict = propagate_closed_form(params, tau, mode="strict")
            corrected = propagate_closed_form(params, tau, mode="corrected")
            assert strict[1, 1] == corrected[1, 1]

    @pytest.mark.parametrize("params", [PARAM_GRID[1], PARAM_GRID[-1]])
    def test_strict_first_row_defects(self, params):
        sq = spectral_quantities(params)
        strict_zero = propagate_closed_form(params, 0.0, mode="strict")
        # Missing root weights leave a nonzero off-diagonal at tau = 0.
        expected_u12 = sq.gamma * (params.delta - 2.0 * sq.mu[1])
        assert strict_zero[0, 1] == pytest.approx(expected_u12, abs=1e-9)
        # The frozen first-root phase still evaluates to 1 at tau = 0.
        assert strict_zero[0, 0] == pytest.approx(1.0, abs=1e-9)
        # Away from tau = 0 the frozen phase breaks element (1,1).
        reference = propagate_spectral(params, 1.7)
        strict = propagate_closed_form(params, 1.7, mode="strict")
        assert abs(strict[0, 0] - reference[0, 0]) > 1e-3

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_corrected_rows_exact_at_zero(self, params):
        u = propagate_closed_form(params, 0.0, mode="corrected")
        assert u[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert u[3, 3] == pytest.approx(1.0, abs=1e-10)
        assert abs(u[0, 1]) < 1e-10
        assert abs(u[0, 3]) < 1e-10
        assert abs(u[1, 2]) < 1e-10
        assert abs(u[1, 3]) < 1e-10

    def test_u22_constant_term_at_zero_detuning_is_finite(self):
        u = propagate_closed_form(SystemParams(delta=0.0, n_photon=0), 1.0)
        assert np.all(np.isfinite(u))

    def test_u23_exact_at_zero_detuning(self):
        # The near-zero root's own term supplies the time-independent part.
        params = SystemParams(delta=0.0, n_photon=0)
        for tau in TAU_SAMPLES:
            closed = propagate_closed_form(params, tau, mode="strict")
            reference = propagate_spectral(params, tau)
            assert abs(closed[1, 2] - reference[1, 2]) < 1e-9

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            propagate_closed_form(SystemParams(delta=0.0, n_photon=0), 1.0, mode="loose")


@pytest.fixture(scope="module")
def report() -> AuditReport:
    params = SystemParams(delta=0.5, n_photon=0)
    return audit_closed_form(params, np.linspace(0.0, 10.0, 21))


def mismatched_elements(deviations: np.ndarray) -> set[str]:
    return {ELEMENT_IDS[index] for index in np.flatnonzero(deviations > AUDIT_TOL)}


class TestAudit:
    def test_sixteen_elements(self, report):
        assert tuple(report.deviations) == CLOSED_FORM_MODES
        for deviations in report.deviations.values():
            assert deviations.shape == (4, 4)
        elements = json.loads(report.to_json())["elements"]
        assert tuple(entry["element"] for entry in elements) == ELEMENT_IDS

    def test_strict_verdicts(self, report):
        mismatches = mismatched_elements(report.deviations["strict"])
        assert mismatches == {"u11", "u12", "u13", "u21", "u31", "u22", "u33"}

    def test_corrected_verdicts(self, report):
        mismatches = mismatched_elements(report.deviations["corrected"])
        assert mismatches == {"u22", "u33"}

    def test_corrected_matches_are_tight(self, report):
        deviations = report.deviations["corrected"]
        matches = deviations[deviations <= AUDIT_TOL]
        assert matches.size == 14
        assert np.all(matches < 1e-9)

    def test_written_verdicts_follow_the_deviations(self, report):
        for entry in json.loads(report.to_json())["elements"]:
            row, col = divmod(ELEMENT_IDS.index(entry["element"]), 4)
            for mode in CLOSED_FORM_MODES:
                deviation = float(report.deviations[mode][row, col])
                assert entry[mode]["max_deviation"] == deviation
                assert entry[mode]["verdict"] == ("match" if deviation <= AUDIT_TOL else "mismatch")

    def test_findings_mention_constant_term_and_identity(self, report):
        text = "\n".join(report.findings)
        assert "time-independent term" in text
        assert "identity check at tau=0" in text
        assert "u22" in text

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["delta"] == 0.5
        assert payload["tolerance"] == AUDIT_TOL
        assert len(payload["elements"]) == 16
        by_name = {entry["element"]: entry for entry in payload["elements"]}
        assert by_name["u22"]["corrected"]["verdict"] == "mismatch"
        assert by_name["u14"]["strict"]["verdict"] == "match"

    @pytest.mark.parametrize("n", [0, 3])
    def test_reports_the_fixed_cutoff(self, n):
        report = audit_closed_form(SystemParams(delta=0.5, n_photon=n), [0.0, 1.0])
        assert json.loads(report.to_json())["fock_cutoff"] == n + DEFAULT_CUTOFF_MARGIN
        assert f"fock_cutoff={n + DEFAULT_CUTOFF_MARGIN}" in report.to_text()

    def test_json_deterministic(self):
        params = SystemParams(delta=0.5, n_photon=0)
        grid = np.linspace(0.0, 10.0, 21)
        first = audit_closed_form(params, grid).to_json()
        second = audit_closed_form(params, grid).to_json()
        assert first == second

    def test_text_table(self, report):
        text = report.to_text()
        assert "element" in text and "strict_verdict" in text
        for element_id in ELEMENT_IDS:
            assert element_id in text
        assert "findings:" in text

    def test_identity_defects_need_zero_in_the_grid(self, report):
        assert tuple(report.identity_defects) == CLOSED_FORM_MODES
        for mode in CLOSED_FORM_MODES:
            assert report.identity_defects[mode].shape == (4, 4)
        without_zero = audit_closed_form(SystemParams(delta=0.5, n_photon=0), [0.5, 1.0])
        assert without_zero.identity_defects == {}
        assert without_zero.findings == (CONSTANT_TERM_FINDING,)
        assert without_zero.to_text().endswith(f"findings:\n- {CONSTANT_TERM_FINDING}\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            audit_closed_form(SystemParams(delta=0.5, n_photon=0), [])

    def test_non_finite_deviation_serializes(self):
        deviations = np.zeros((4, 4))
        deviations[0, 0] = np.inf
        report = AuditReport(
            delta=0.0,
            n_photon=0,
            tau_grid=(0.0,),
            deviations={"strict": deviations},
            identity_defects={},
        )
        payload = json.loads(report.to_json())
        assert payload["modes"] == ["strict"]
        assert payload["elements"][0]["strict"]["max_deviation"] == "inf"
        assert payload["elements"][0]["strict"]["verdict"] == "mismatch"
        assert payload["elements"][1]["strict"]["verdict"] == "match"


@st.composite
def _audit_grids(draw) -> list[float]:
    """Grids of times up to 1e6 with no zero, one zero or a repeated zero, sorted or not."""
    grid = draw(st.lists(st.floats(1e-9, 1e6), min_size=0, max_size=24))
    for _ in range(draw(st.integers(0, 2))):
        grid.insert(draw(st.integers(0, len(grid))), 0.0)
    if not grid:
        grid.append(draw(st.floats(1e-9, 1e6)))
    return sorted(grid) if draw(st.booleans()) else grid


def loop_audit_report(params: SystemParams, tau_grid) -> AuditReport:
    """The audit report built from one public closed-form and spectral call per time and mode."""
    tau_values = [float(tau) for tau in tau_grid]
    deviations, identity_defects = loop_audit(
        tau_values,
        CLOSED_FORM_MODES,
        lambda tau, mode: propagate_closed_form(params, tau, mode),
        lambda tau: eig_hermitian(subspace_hamiltonian(params)).unitary(tau),
    )
    return AuditReport(
        delta=float(params.delta),
        n_photon=params.n_photon,
        tau_grid=tuple(tau_values),
        deviations=deviations,
        identity_defects=identity_defects,
    )


def _outcome(build, params, grid):
    try:
        report = build(params, grid)
    except (DegenerateRoots, DomainError) as exc:
        return type(exc), str(exc)
    return report.to_json(), report.to_text()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    delta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    n_photon=st.integers(0, 10**6),
    grid=_audit_grids(),
)
@example(delta=0.37, n_photon=4, grid=list(np.linspace(0.0, 10.0, 21)))
@example(delta=0.0, n_photon=10**6, grid=[5.0, 0.0, 1e6, 0.0])
@example(delta=3e102, n_photon=3, grid=[0.0, 1.0, 7.5])
@example(delta=1e103, n_photon=0, grid=[0.0, 1.0])
def test_audit_equals_the_loop_built_report_byte_for_byte(delta, n_photon, grid):
    """One closed-form pass per time and the stacked reference change no byte of either report."""
    params = SystemParams(delta=delta, n_photon=n_photon)
    assert _outcome(audit_closed_form, params, grid) == _outcome(loop_audit_report, params, grid)
