"""Time-evolution operators, computed two ways and audited.

The *spectral* propagator eigendecomposes the invariant-subspace Hamiltonian
and exponentiates the spectrum; it is the audit's reference.  The
*closed-form* propagator evaluates a set of analytic element formulas for the
same subspace propagator; those formulas carry known transcription defects,
so they are kept under audit.  (The series themselves come from
:func:`twoatomcavity.dynamics.time_series`, which uses neither.)  Both return
the 4x4 matrix.  The closed form comes in two variants:

- ``strict``: the element formulas evaluated verbatim;
- ``corrected``: two repairs applied — the phase factor of element (1,1)
  uses each root's own exponent instead of a single frozen one, and the
  root-dependent weights are reinstated in elements (1,2)/(1,3)/(2,1)/(3,1).

The variants differ only in elements (1,1) and (1,2), so one pass per time
evaluates both, sharing the phases and the other elements.  The audit
compares both variants element-by-element against the spectral oracle over a
time grid and reports a match/mismatch verdict per element.  It computes the
roots and diagonalizes the subspace Hamiltonian once, makes one closed-form
pass per grid time, and takes the reference propagators of the whole grid
from one stacked :meth:`twoatomcavity.linalg.HermitianEigensystem.unitary`
call.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .model import (
    DEFAULT_CUTOFF_MARGIN,
    SpectralQuantities,
    SystemParams,
    spectral_quantities,
    subspace_hamiltonian,
)

#: Deviation above which an audited element is declared a mismatch.
AUDIT_TOL = 1e-6

#: Closed-form variants understood by the audit.
CLOSED_FORM_MODES = ("strict", "corrected")

#: Element identifiers in row-major order.
ELEMENT_IDS = tuple(f"u{row}{col}" for row in range(1, 5) for col in range(1, 5))


def propagate_spectral(params: SystemParams, tau: float) -> np.ndarray:
    """4x4 subspace propagator at ``tau`` via eigendecomposition, unitary within 1e-10."""
    return linalg.expm_i_hermitian(subspace_hamiltonian(params), tau)


def propagate_closed_form(
    params: SystemParams, tau: float, mode: str = "corrected"
) -> np.ndarray:
    """4x4 subspace propagator at ``tau`` from the analytic element formulas.

    The closed form is under audit and may not be unitary.

    Args:
        params: system parameters.
        tau: scaled time.
        mode: ``"corrected"`` (default) applies the two documented repairs;
            ``"strict"`` evaluates the formulas verbatim.

    The time-independent term that appears in elements (2,2)/(2,3) is the
    ratio of ``delta * (beta^2 - gamma^2)`` to the product of the three
    roots; when its numerator vanishes (zero detuning) the ratio is
    indeterminate and is taken as 0.

    Raises:
        DomainError: propagated from the root computation.
        ValueError: on an unknown mode.
    """
    if mode not in CLOSED_FORM_MODES:
        raise ValueError(f"unknown closed-form mode {mode!r}; choose from {CLOSED_FORM_MODES}")
    matrices = _closed_form_matrices(spectral_quantities(params), params.delta, tau)
    return matrices[CLOSED_FORM_MODES.index(mode)]


def _closed_form_matrices(sq: SpectralQuantities, delta: float, tau: float) -> np.ndarray:
    """The analytic element formulas at ``tau`` under every closed-form mode.

    Returns the 4x4 matrices stacked in the order of ``CLOSED_FORM_MODES``,
    shape ``(2, 4, 4)``.  Only ``u11`` and ``u12`` depend on the mode; the
    phases and every other element are evaluated once and shared.
    """
    mu, alpha = sq.mu, sq.alpha
    gamma, beta = sq.gamma, sq.beta
    signs = np.array([1.0, -1.0, 1.0])
    weights = signs * alpha
    phases = np.exp(-1j * mu * tau)
    # strict: every root takes the first root's phase, and u12 drops the
    # root-dependent weights; corrected: each root's own phase and weight.
    u11_strict = np.sum(
        weights * np.full(3, np.exp(-1j * mu[0] * tau)) * (mu * (delta + mu) - 2.0 * beta**2)
    )
    u11_corrected = np.sum(weights * phases * (mu * (delta + mu) - 2.0 * beta**2))
    u12_strict = gamma * np.sum(signs.astype(np.complex128) * phases * (delta + mu))
    u12_corrected = gamma * np.sum(weights.astype(np.complex128) * phases * (delta + mu))
    u14 = 2.0 * beta * gamma * np.sum(weights * phases)
    numerator = delta * (beta**2 - gamma**2)
    constant = 0.0 if numerator == 0.0 else numerator / float(np.prod(mu))
    # A zero root divides by zero, and at detunings near 1e102 the products
    # overflow; either leaves the element non-finite, which the audit reports.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u22 = (
            np.sum(
                (weights / mu)
                * phases
                * ((beta**2 * (delta - mu) - (delta + mu)) * (gamma**2 + mu * (delta - mu)))
            )
            - constant
        )
        u23 = (
            -np.sum((weights / mu) * phases * (beta**2 * (delta - mu) - gamma**2 * (delta + mu)))
            + constant
        )
    u24 = -beta * np.sum(weights * phases * (delta - mu))
    u44 = -np.sum(weights * phases * (2.0 * gamma**2 + mu * (delta - mu)))
    return np.array(
        [
            [
                [u11, u12, u12, u14],
                [u12, u22, u23, u24],
                [u12, u23, u22, u24],
                [u14, u24, u24, u44],
            ]
            for u11, u12 in ((u11_strict, u12_strict), (u11_corrected, u12_corrected))
        ],
        dtype=np.complex128,
    )


#: The audit's standing finding on elements u22/u23.
CONSTANT_TERM_FINDING = (
    "elements u22/u23 (and their symmetric copies u33/u32) carry a "
    "time-independent term: delta*(beta^2-gamma^2) divided by the product "
    "of the three roots. For nonzero detuning that ratio equals -1/2 "
    "because the root product is minus twice the detuning; at zero "
    "detuning its numerator vanishes and it is evaluated as 0, with the "
    "near-zero root's own term supplying the constant instead."
)


def _written_result(deviation: float) -> dict:
    """One element's maximum deviation under one mode, as the report writes it."""
    return {
        "max_deviation": deviation if np.isfinite(deviation) else "inf",
        "verdict": "match" if deviation <= AUDIT_TOL else "mismatch",
    }


# Array fields have no single truth value, so reports compare by identity.
@dataclass(frozen=True, eq=False)
class AuditReport:
    """Element-wise comparison of the closed form against the spectral oracle.

    ``deviations`` maps each audited closed-form mode to the 4x4 array of
    maximum absolute deviations over ``tau_grid``, non-finite ones stored as
    infinity.  ``identity_defects`` maps each mode to ``|U(0) - I|`` of its
    closed form, and is empty when the grid lacks ``tau = 0``.  The outputs
    derive the rest as they write: the verdict of each element (``match``
    at or below ``AUDIT_TOL``), the ``findings`` and the reported
    ``fock_cutoff``, ``n_photon + DEFAULT_CUTOFF_MARGIN``, the truncation of
    :func:`twoatomcavity.model.full_hamiltonian` (the audit truncates
    nothing).
    """

    delta: float
    n_photon: int
    tau_grid: tuple[float, ...]
    deviations: Mapping[str, np.ndarray]
    identity_defects: Mapping[str, np.ndarray]

    @property
    def findings(self) -> tuple[str, ...]:
        """The constant-term finding, then one identity check per mode at tau = 0."""
        findings = [CONSTANT_TERM_FINDING]
        for mode, defect in self.identity_defects.items():
            offenders = [ELEMENT_IDS[index] for index in np.flatnonzero(defect > AUDIT_TOL)]
            outcome = (
                f"deviates from the identity by up to {float(np.max(defect)):.3e}; "
                f"offending elements: {', '.join(offenders)}. The u22/u33 defect persists "
                "in both modes: the bracket structure of the u22 formula cannot be "
                "repaired by its constant term alone."
                if offenders
                else "reproduces the identity within tolerance."
            )
            findings.append(f"identity check at tau=0 ({mode} mode): closed form {outcome}")
        return tuple(findings)

    def to_json_dict(self) -> dict:
        """Machine-readable representation (JSON-safe values only)."""
        flat = {mode: values.ravel().tolist() for mode, values in self.deviations.items()}
        return {
            "delta": self.delta,
            "n_photon": self.n_photon,
            "fock_cutoff": self.n_photon + DEFAULT_CUTOFF_MARGIN,
            "tau_grid": list(self.tau_grid),
            "modes": list(self.deviations),
            "tolerance": AUDIT_TOL,
            "elements": [
                {
                    "element": element_id,
                    **{mode: _written_result(values[index]) for mode, values in flat.items()},
                }
                for index, element_id in enumerate(ELEMENT_IDS)
            ],
            "findings": list(self.findings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Plain-text table of the audit results, read from :meth:`to_json_dict`."""
        payload = self.to_json_dict()
        lines = [
            f"closed-form audit: delta={self.delta!r}, n_photon={self.n_photon}, "
            f"fock_cutoff={payload['fock_cutoff']}",
            f"tau grid: {len(self.tau_grid)} points in "
            f"[{min(self.tau_grid)!r}, {max(self.tau_grid)!r}]; "
            f"mismatch above {payload['tolerance']:.0e}",
            "",
        ]
        header = ["element"]
        for mode in payload["modes"]:
            header += [f"{mode}_max_dev", f"{mode}_verdict"]
        rows = [header]
        for entry in payload["elements"]:
            row = [entry["element"]]
            for mode in payload["modes"]:
                result = entry[mode]
                row += [f"{float(result['max_deviation']):.3e}", result["verdict"]]
            rows.append(row)
        widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
        for row in rows:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        lines += ["", "findings:", *(f"- {finding}" for finding in payload["findings"])]
        return "\n".join(lines) + "\n"


def audit_closed_form(params: SystemParams, tau_grid: Sequence[float]) -> AuditReport:
    """Audit the closed-form propagator against the spectral oracle.

    The roots and the subspace eigensystem are computed once.  Each grid
    time gets one closed-form pass that covers every mode of
    ``CLOSED_FORM_MODES``, and the spectral propagators of the whole grid
    come from one stacked ``unitary`` call.  The element-wise absolute
    deviations form one ``(time, mode, 4, 4)`` stack, non-finite ones set to
    infinity (a mismatch in every output), and the report keeps each
    element's maximum over the grid.  The identity defects come from a
    ``tau == 0`` time of the grid.

    Raises:
        DomainError: propagated from the root computation.
        ValueError: on an empty grid.
    """
    tau_values = [float(tau) for tau in tau_grid]
    if not tau_values:
        raise ValueError("tau_grid must contain at least one time")
    # The roots, weights and subspace eigensystem do not depend on tau.
    sq = spectral_quantities(params)
    system = linalg.eig_hermitian(subspace_hamiltonian(params))
    taus = np.array(tau_values)
    # (tau, mode, 4, 4) closed forms against (tau, 1, 4, 4) references.
    closed = np.stack([_closed_form_matrices(sq, params.delta, tau) for tau in tau_values])
    deviation = np.abs(closed - system.unitary(taus)[:, None])
    deviation[~np.isfinite(deviation)] = np.inf
    zeros = np.flatnonzero(taus == 0.0)
    identity_defects = (
        dict(zip(CLOSED_FORM_MODES, np.abs(closed[zeros[0]] - np.eye(4)))) if zeros.size else {}
    )
    return AuditReport(
        delta=params.delta,
        n_photon=params.n_photon,
        tau_grid=tuple(tau_values),
        deviations=dict(zip(CLOSED_FORM_MODES, deviation.max(axis=0))),
        identity_defects=identity_defects,
    )
