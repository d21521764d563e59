"""Entanglement degree and instantaneous state classification.

The entanglement degree is the sum of absolute partial-transpose eigenvalues
minus one: zero for separable two-qubit states and one for maximally
entangled ones.  The classifier matches the dominant eigenvector of the
reduced state against a small family of entangled-state templates; it is
deliberately coarse (the templates describe qualitative state shapes), and
all of its thresholds are exposed as keyword arguments.

Both measures are computed over stacks of density matrices by private
kernels (``_negativity_stack``, ``_classify_stack``): the time series
computes each sample's degree once and hands it to the classifier, which
diagonalizes only the states that pass the separability gate and fits every
template to all of them at once.  :func:`negativity` and :func:`classify`
are stack-of-one wrappers over the same kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotNormalized

#: Trace tolerance for density-matrix inputs.
TRACE_TOL = 1e-10

#: Below this entanglement degree a state is reported as separable.
SEPARABLE_THRESHOLD = 0.01

#: Dominant-eigenvalue share required before template fitting is attempted.
PURITY_THRESHOLD = 0.9

#: Largest fit residual accepted as a template match.
RESIDUAL_THRESHOLD = 0.05

#: Smallest post-normalization coefficient that counts as "used".
COEFFICIENT_FLOOR = 0.05

#: Class labels, in the fixed order used for tie-breaking.
CLASS_LABELS = (
    "separable",
    "psi1_bell_like",
    "psi2",
    "psi3_werner_like",
    "psi4",
    "psi5",
    "mixed_unclassified",
)


@dataclass(frozen=True)
class NegativityResult:
    """Entanglement degree plus the partial-transpose spectrum behind it."""

    value: float
    pt_eigenvalues: np.ndarray


@dataclass(frozen=True)
class ClassMatch:
    """Classifier outcome: label, fit quality, and fitted coefficients."""

    label: str
    fidelity: float
    template_params: dict[str, float]


def _as_density_stack(rho: np.ndarray) -> np.ndarray:
    """One 4x4 matrix as a complex stack of one."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    return rho[None]


def _negativity_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entanglement degrees ``(batch,)`` and partial-transpose spectra ``(batch, 4)``.

    Raises :class:`NotNormalized` naming the first matrix of the stack whose
    trace is off by ``TRACE_TOL`` or more, or is not finite.
    """
    trace = np.real(np.trace(rho, axis1=-2, axis2=-1))
    off = ~(np.abs(trace - 1.0) < TRACE_TOL)
    if np.any(off):
        raise NotNormalized(
            f"density matrix trace {float(trace[np.argmax(off)])!r} deviates from 1"
        )
    pt_eigenvalues, _ = linalg._eigh_stack(linalg._partial_transpose(rho))
    return np.sum(np.abs(pt_eigenvalues), axis=-1) - 1.0, pt_eigenvalues


def negativity(rho: np.ndarray) -> NegativityResult:
    """Entanglement degree of a two-atom density matrix.

    Computes the eigenvalues of the partial transpose over the second atom
    and returns ``sum(|eigenvalues|) - 1``.  No rounding or snapping is
    applied; separable states land within round-off of zero.
    """
    values, pt_eigenvalues = _negativity_stack(_as_density_stack(rho))
    return NegativityResult(value=float(values[0]), pt_eigenvalues=pt_eigenvalues[0])


@dataclass(frozen=True)
class _Template:
    """One entangled-state shape: an orthonormal real basis plus metadata.

    ``scale`` converts fitted basis coefficients into the template's named
    coefficients (the basis vectors are normalized, the template's written
    form is not).  ``constraint`` encodes which coefficients must be
    genuinely used for the template to claim a state: ``all`` requires every
    one above the floor, ``any_first_two`` requires at least one of the
    first two.
    """

    label: str
    coefficient_names: tuple[str, ...]
    basis: np.ndarray
    scale: np.ndarray
    constraint: str


def _build_templates() -> tuple[_Template, ...]:
    sq2 = np.sqrt(2.0)
    sq3 = np.sqrt(3.0)
    sym_eg_ge = np.array([0.0, 1.0, 1.0, 0.0]) / sq2
    ee_plus_gg = np.array([1.0, 0.0, 0.0, 1.0]) / sq2
    return (
        _Template(
            label="psi1_bell_like",
            coefficient_names=("mu",),
            basis=np.array([sym_eg_ge]),
            scale=np.array([sq2]),
            constraint="none",
        ),
        _Template(
            label="psi2",
            coefficient_names=("mu1",),
            basis=np.array([np.array([1.0, 1.0, 1.0, 0.0]) / sq3]),
            scale=np.array([sq3]),
            constraint="none",
        ),
        _Template(
            label="psi3_werner_like",
            coefficient_names=("eta", "zeta"),
            basis=np.array([ee_plus_gg, [0.0, 1.0, 0.0, 0.0]]),
            scale=np.array([sq2, 1.0]),
            constraint="all",
        ),
        _Template(
            label="psi4",
            coefficient_names=("mu2", "nu"),
            basis=np.array([ee_plus_gg, sym_eg_ge]),
            scale=np.array([sq2, sq2]),
            constraint="all",
        ),
        _Template(
            label="psi5",
            coefficient_names=("chi1", "chi2", "chi3"),
            basis=np.array(
                [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], sym_eg_ge]
            ),
            scale=np.array([1.0, 1.0, sq2]),
            constraint="any_first_two",
        ),
    )


_TEMPLATES = _build_templates()

_TEMPLATE_BY_LABEL = {template.label: template for template in _TEMPLATES}

_SEPARABLE = CLASS_LABELS.index("separable")
_UNCLASSIFIED = CLASS_LABELS.index("mixed_unclassified")

#: Most coefficients any template has.
_MAX_COEFFICIENTS = max(len(template.coefficient_names) for template in _TEMPLATES)


def _fit_template(states: np.ndarray, template: _Template) -> tuple[np.ndarray, np.ndarray]:
    """Best real-coefficient fit of each state to a template, up to global phase.

    With orthonormal real basis vectors ``v_i`` and projections
    ``p_i = <v_i|state>``, the squared overlap maximized over a global phase
    and real coefficients is ``(sum|p_i|^2 + |sum p_i^2|) / 2``; the optimal
    phase is ``-arg(sum p_i^2) / 2``.  Requiring real coefficients is what
    distinguishes the templates from their complex spans.

    Args:
        states: unit vectors, shape ``(batch, 4)``.

    Returns:
        (fidelities ``(batch,)``, named coefficients post-normalization
        ``(batch, len(template.coefficient_names))``).
    """
    projections = states @ template.basis.T
    power = np.sum(np.abs(projections) ** 2, axis=1)
    phase_sum = np.sum(projections**2, axis=1)
    fidelity = np.clip(0.5 * (power + np.abs(phase_sum)), 0.0, 1.0)
    phase = np.where(np.abs(phase_sum) < 1e-30, 0.0, -0.5 * np.angle(phase_sum))
    coefficients = np.real(np.exp(1j * phase)[:, None] * projections)
    leading = np.take_along_axis(
        coefficients, np.argmax(np.abs(coefficients), axis=1)[:, None], axis=1
    )
    coefficients = np.where(leading < 0.0, -coefficients, coefficients)
    return fidelity, coefficients / template.scale


def _constraint_satisfied(
    template: _Template, coefficients: np.ndarray, floor: float
) -> np.ndarray:
    magnitudes = np.abs(coefficients)
    if template.constraint == "all":
        return np.all(magnitudes >= floor, axis=1)
    if template.constraint == "any_first_two":
        return np.max(magnitudes[:, :2], axis=1) >= floor
    return np.ones(len(coefficients), dtype=bool)


def _classify_stack(
    rho: np.ndarray,
    degree: np.ndarray,
    *,
    separable_threshold: float = SEPARABLE_THRESHOLD,
    purity_threshold: float = PURITY_THRESHOLD,
    residual_threshold: float = RESIDUAL_THRESHOLD,
    coefficient_floor: float = COEFFICIENT_FLOOR,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify a stack of states whose entanglement degrees are known.

    Follows the decision order of :func:`classify`.  Only the states that
    pass the separability gate are diagonalized, and every template is fitted
    to all of their dominant eigenvectors at once.

    Returns:
        (indices into ``CLASS_LABELS`` ``(batch,)``, fidelities ``(batch,)``,
        coefficients of the matched template ``(batch, _MAX_COEFFICIENTS)``,
        zero-padded and zero where no template matched).
    """
    count = len(rho)
    labels = np.where(degree < separable_threshold, _SEPARABLE, _UNCLASSIFIED)
    fidelities = np.zeros(count)
    coefficients = np.zeros((count, _MAX_COEFFICIENTS))
    gated = np.flatnonzero(labels != _SEPARABLE)
    if gated.size == 0:
        return labels, fidelities, coefficients
    eigenvalues, eigenvectors = linalg._eigh_stack(rho[gated])
    pure = ~(eigenvalues[:, -1] < purity_threshold)
    fitted = gated[pure]
    states = eigenvectors[pure, :, -1]
    open_ = np.ones(len(fitted), dtype=bool)
    best = np.zeros(len(fitted))
    for template in _TEMPLATES:
        fidelity, named = _fit_template(states, template)
        residual = np.sqrt(np.maximum(0.0, 1.0 - fidelity))
        match = open_ & (residual < residual_threshold) & _constraint_satisfied(
            template, named, coefficient_floor
        )
        best = np.fmax(best, fidelity)
        rows = fitted[match]
        labels[rows] = CLASS_LABELS.index(template.label)
        fidelities[rows] = fidelity[match]
        coefficients[rows, : named.shape[1]] = named[match]
        open_ &= ~match
    fidelities[fitted[open_]] = best[open_]
    return labels, fidelities, coefficients


def classify(
    rho: np.ndarray,
    *,
    separable_threshold: float = SEPARABLE_THRESHOLD,
    purity_threshold: float = PURITY_THRESHOLD,
    residual_threshold: float = RESIDUAL_THRESHOLD,
    coefficient_floor: float = COEFFICIENT_FLOOR,
) -> ClassMatch:
    """Classify the instantaneous two-atom state.

    Decision order:

    1. entanglement degree below ``separable_threshold`` -> ``separable``;
    2. dominant eigenvalue of the state below ``purity_threshold`` ->
       ``mixed_unclassified`` (too mixed to read a template off);
    3. otherwise fit the dominant eigenvector to each template in the fixed
       label order; the first template with fit residual below
       ``residual_threshold`` whose distinguishing coefficients clear
       ``coefficient_floor`` wins;
    4. no template fits -> ``mixed_unclassified``.

    The template family is nested (later templates generalize earlier ones),
    so the fixed order plus the coefficient floor is what makes the outcome
    deterministic: a state only reaches a general template after the more
    specific ones have declined it.
    """
    stack = _as_density_stack(rho)
    degree, _ = _negativity_stack(stack)
    labels, fidelities, coefficients = _classify_stack(
        stack,
        degree,
        separable_threshold=separable_threshold,
        purity_threshold=purity_threshold,
        residual_threshold=residual_threshold,
        coefficient_floor=coefficient_floor,
    )
    label = CLASS_LABELS[labels[0]]
    template = _TEMPLATE_BY_LABEL.get(label)
    names = () if template is None else template.coefficient_names
    return ClassMatch(
        label=label,
        fidelity=float(fidelities[0]),
        template_params=dict(zip(names, coefficients[0].tolist())),
    )
