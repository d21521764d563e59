"""Entanglement degree and instantaneous state classification.

The entanglement degree is the sum of absolute partial-transpose eigenvalues
minus one: zero for separable two-qubit states and one for maximally
entangled ones.  The classifier matches the dominant eigenvector of the
reduced state against a small family of entangled-state templates; it is
deliberately coarse (the templates describe qualitative state shapes), and
its thresholds are the module constants below.

:func:`negativity` takes a single density matrix or any stack of them: the
time series computes each sample's degree once and hands it to the stacked
classifier (``_classify_stack``).  A two-qubit state with a positive
semidefinite partial transpose (PPT) is separable, so :func:`negativity`
first certifies, without an eigendecomposition, the samples whose partial
transpose is PSD (``_ppt_certified``: two 2x2 blocks for an X-form matrix, a
Cholesky factorization for any other, each with the margin ``_PPT_MARGIN``)
and gives them the exact degree 0.0; it decomposes only the rest, in one
stacked :func:`linalg.eig_hermitian` call.  Every sample still passes the
trace check and the Hermiticity and finiteness checks of
:func:`linalg.checked_hermitian`.  Of the states past the separability gate,
the classifier first rules out, without an eigendecomposition, every state
that provably gets no template label (``_may_match``): by the purity bound,
the largest eigenvalue is at most the Frobenius norm; by the span bound, each
template fidelity is at most ``tr(P rho) / max(PURITY_THRESHOLD, 1/4)`` for
the template's projector ``P``.  It diagonalizes only the rest, in one
stacked :func:`linalg.eig_hermitian` call, and fits every template to all of
them at once (``_fit_stack``).  :func:`classify` takes one
matrix, diagonalizes it past the gate without the bounds and reports the
fidelity and coefficients of the fit.
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
class ClassMatch:
    """Classifier outcome: label, fit quality, and fitted coefficients."""

    label: str
    fidelity: float
    template_params: dict[str, float]


#: Smallest eigenvalue, up to round-off, that the PSD certificate of
#: :func:`negativity` demands of a partial transpose.
_PPT_MARGIN = 1e-12

#: Fewer certified samples than this are decomposed with the rest of their
#: stack: gathering the rest costs about as much as decomposing 32 matrices.
_SPLIT_MIN = 32

#: Flat positions, in a 4x4 matrix, of the lower entries off the diagonal
#: and the anti-diagonal.
_OFF_X = (4, 8, 13, 14)


def _x_block_certified(flat: np.ndarray, a: int, d: int, z: int) -> np.ndarray:
    """Mask of the rows of ``flat`` (flattened 4x4 matrices) whose 2x2 block
    ``[[a, z*], [z, d]]``, given by the flat positions of its entries, passes
    the X rule of :func:`_ppt_certified`."""
    a, d, z = flat[:, a].real, flat[:, d].real, flat[:, z]
    determinant = a * d - (z.real**2 + z.imag**2)
    return (np.minimum(a, d) >= 0.0) & ((z == 0.0) | (determinant > _PPT_MARGIN * (a + d)))


def _cholesky_certified(m: np.ndarray) -> np.ndarray:
    """Mask ``(batch,)`` of the 4x4 matrices for which the Cholesky factorization
    of ``m - _PPT_MARGIN * I``, read from the lower triangle and the real
    diagonal, completes with positive pivots.

    Its backward error, about 1e-15 for unit-trace input, cannot reach the
    margin, so a certified matrix is positive definite.  A matrix fails at
    its first pivot that is not positive; the NaN or infinite entries that
    pivot leaves in the later columns do not matter.
    """
    factor = {}
    certified = np.ones(len(m), dtype=bool)
    for j in range(4):
        pivot = m[:, j, j].real - _PPT_MARGIN
        for k in range(j):
            pivot = pivot - (factor[j, k].real ** 2 + factor[j, k].imag ** 2)
        certified &= pivot > 0.0
        root = np.sqrt(pivot)
        for i in range(j + 1, 4):
            entry = m[:, i, j]
            for k in range(j):
                entry = entry - factor[i, k] * factor[j, k].conj()
            factor[i, j] = entry / root
    return certified


def _ppt_certified(pt: np.ndarray) -> np.ndarray:
    """Mask ``(batch,)`` of the partial transposes certified PSD without an
    eigendecomposition.

    Only the lower triangle and the real diagonal are read: the matrix that
    ``numpy.linalg.eigh`` decomposes.  An X-form matrix (every entry off the
    diagonal and the anti-diagonal exactly 0) is two 2x2 blocks
    ``[[a, z*], [z, d]]``; a block passes when ``a, d >= 0`` and either
    ``z == 0`` or ``a*d - |z|^2 > _PPT_MARGIN * (a + d)``, which puts its
    smaller eigenvalue, at least ``det / (a + d)``, above the margin.  Any
    other matrix goes through :func:`_cholesky_certified`.  A NaN entry
    fails every comparison, so its matrix is never certified.
    """
    flat = pt.reshape(len(pt), 16)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x_form = flat[:, _OFF_X[0]] == 0.0
        for position in _OFF_X[1:]:
            x_form &= flat[:, position] == 0.0
        certified = (
            x_form & _x_block_certified(flat, 0, 15, 12) & _x_block_certified(flat, 5, 10, 9)
        )
        general = np.flatnonzero(~x_form)
        if general.size:
            certified[general] = _cholesky_certified(pt[general])
    return certified


def negativity(rho: np.ndarray) -> np.ndarray:
    """Entanglement degree of two-atom density matrices ``(..., 4, 4)``.

    Returns an array of shape ``(...)``, an ``np.float64`` for one matrix.
    A two-qubit state whose partial transpose over the second atom is
    positive semidefinite is separable (Peres 1996; Horodecki, Horodecki &
    Horodecki 1996) and gets the exact degree 0.0 when :func:`_ppt_certified`
    shows its partial transpose to be PSD.  Every other state gets
    ``sum(|eigenvalues|) - 1`` of its partial transpose, from one stacked
    :func:`linalg.eig_hermitian` call, with no rounding or snapping.

    Raises:
        NotNormalized: naming the first matrix whose trace is off by
            ``TRACE_TOL`` or more, or is not finite.
        NotHermitian, ValueError: from :func:`linalg.checked_hermitian`, for
            a non-Hermitian or non-finite partial transpose.
        ValueError: for input whose last two axes are not 4x4.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 density matrices, got shape {rho.shape}")
    trace = np.asarray(np.real(np.trace(rho, axis1=-2, axis2=-1)))
    off = ~(np.abs(trace - 1.0) < TRACE_TOL)
    if np.any(off):
        raise NotNormalized(
            f"density matrix trace {float(trace[off][0])!r} deviates from 1"
        )
    pt = linalg.partial_transpose(rho).reshape(-1, 4, 4)
    certified = _ppt_certified(pt)
    if np.count_nonzero(certified) < _SPLIT_MIN:
        spectra = linalg.eig_hermitian(pt)
        degree = np.sum(np.abs(spectra.eigenvalues), axis=-1) - 1.0
        degree[certified] = 0.0
        return degree.reshape(rho.shape[:-2])[()]
    linalg.checked_hermitian(pt)
    degree = np.zeros(len(pt))
    rest = np.flatnonzero(~certified)
    if rest.size:
        spectra = linalg.eig_hermitian(pt[rest])
        degree[rest] = np.sum(np.abs(spectra.eigenvalues), axis=-1) - 1.0
    return degree.reshape(rho.shape[:-2])[()]


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


def _constraint_satisfied(template: _Template, coefficients: np.ndarray) -> np.ndarray:
    magnitudes = np.abs(coefficients)
    if template.constraint == "all":
        return np.all(magnitudes >= COEFFICIENT_FLOOR, axis=1)
    if template.constraint == "any_first_two":
        return np.max(magnitudes[:, :2], axis=1) >= COEFFICIENT_FLOOR
    return np.ones(len(coefficients), dtype=bool)


#: Slack of the certificates of ``_may_match`` over round-off in the
#: eigendecomposition (about 1e-15 on unit-trace states).
_CERTIFICATE_MARGIN = 1e-9

#: Columns: each template's real projector ``B^T B`` flattened, so that
#: ``Re(rho).reshape(16) @ _SPAN_PROJECTORS`` is ``tr(P rho)`` per template.
_SPAN_PROJECTORS = np.stack(
    [(template.basis.T @ template.basis).ravel() for template in _TEMPLATES], axis=1
)

#: Largest ``tr(P rho)`` over the template projectors below which no template
#: can claim a state (the span bound of ``_may_match``).
_SPAN_REACH = max(PURITY_THRESHOLD, 0.25) * (1.0 - RESIDUAL_THRESHOLD**2)


def _may_match(rho: np.ndarray) -> np.ndarray:
    """Mask ``(batch,)`` of the states some template could still claim.

    A false entry is a certificate, without an eigendecomposition, that the
    state ends ``mixed_unclassified``; it holds for positive semidefinite
    matrices of unit trace:

    - *purity*: the largest eigenvalue is at most the Frobenius norm, so a
      norm below ``PURITY_THRESHOLD`` fails the purity gate;
    - *span*: each template fidelity of the dominant eigenvector ``v`` is at
      most ``<v|P|v> <= tr(P rho) / lambda_max`` for the template's
      projector ``P``, and a state past the purity gate has
      ``lambda_max >= max(PURITY_THRESHOLD, 1/4)``; a match needs a fidelity
      above ``1 - RESIDUAL_THRESHOLD^2``, so no template can claim a state
      whose every ``tr(P rho)`` lies below ``_SPAN_REACH``.

    Each bound gives up ``_CERTIFICATE_MARGIN``, and each comparison is
    negated, so a state with a NaN entry is passed on to the
    eigendecomposition and its checks.
    """
    flat = rho.view(np.float64).reshape(len(rho), 32)
    norm = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    span = np.max(flat[:, ::2] @ _SPAN_PROJECTORS, axis=1)
    return ~(norm < PURITY_THRESHOLD - _CERTIFICATE_MARGIN) & ~(
        span < _SPAN_REACH - _CERTIFICATE_MARGIN
    )


def _fit_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 2-4 of :func:`classify` for states past the separability gate.

    Diagonalizes every state in one stacked :func:`linalg.eig_hermitian`
    call and fits every template to all of their dominant eigenvectors at
    once.

    Returns:
        (indices into ``CLASS_LABELS`` ``(batch,)``, fidelities ``(batch,)``,
        coefficients of the matched template ``(batch, _MAX_COEFFICIENTS)``,
        zero-padded; a state that fails the purity gate has fidelity 0, and
        one that no template claims has its best fidelity and coefficients 0).
    """
    count = len(rho)
    labels = np.full(count, _UNCLASSIFIED)
    fidelities = np.zeros(count)
    coefficients = np.zeros((count, _MAX_COEFFICIENTS))
    spectrum = linalg.eig_hermitian(rho)
    eigenvalues, eigenvectors = spectrum.eigenvalues, spectrum.eigenvectors
    fitted = np.flatnonzero(~(eigenvalues[:, -1] < PURITY_THRESHOLD))
    states = eigenvectors[fitted, :, -1]
    open_ = np.ones(len(fitted), dtype=bool)
    best = np.zeros(len(fitted))
    for template in _TEMPLATES:
        fidelity, named = _fit_template(states, template)
        residual = np.sqrt(np.maximum(0.0, 1.0 - fidelity))
        match = open_ & (residual < RESIDUAL_THRESHOLD) & _constraint_satisfied(template, named)
        best = np.fmax(best, fidelity)
        rows = fitted[match]
        labels[rows] = CLASS_LABELS.index(template.label)
        fidelities[rows] = fidelity[match]
        coefficients[rows, : named.shape[1]] = named[match]
        open_ &= ~match
    fidelities[fitted[open_]] = best[open_]
    return labels, fidelities, coefficients


def _classify_stack(rho: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Labels ``(batch,)``, indices into ``CLASS_LABELS``, of a stack of states.

    Follows the decision order of :func:`classify` for positive semidefinite
    states of unit trace whose entanglement degrees are known.  Of the states
    past the separability gate, only those that :func:`_may_match` cannot
    rule out are diagonalized and fitted.
    """
    labels = np.where(degree < SEPARABLE_THRESHOLD, _SEPARABLE, _UNCLASSIFIED)
    gated = np.flatnonzero(labels != _SEPARABLE)
    fitted = gated[_may_match(rho[gated])]
    if fitted.size:
        labels[fitted] = _fit_stack(rho[fitted])[0]
    return labels


def classify(rho: np.ndarray) -> ClassMatch:
    """Classify the instantaneous two-atom state.

    Decision order:

    1. entanglement degree below ``SEPARABLE_THRESHOLD`` -> ``separable``;
    2. dominant eigenvalue of the state below ``PURITY_THRESHOLD`` ->
       ``mixed_unclassified`` (too mixed to read a template off);
    3. otherwise fit the dominant eigenvector to each template in the fixed
       label order; the first template with fit residual below
       ``RESIDUAL_THRESHOLD`` whose distinguishing coefficients clear
       ``COEFFICIENT_FLOOR`` wins;
    4. no template fits -> ``mixed_unclassified``.

    The template family is nested (later templates generalize earlier ones),
    so the fixed order plus the coefficient floor is what makes the outcome
    deterministic: a state only reaches a general template after the more
    specific ones have declined it.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if negativity(rho) < SEPARABLE_THRESHOLD:
        return ClassMatch(label="separable", fidelity=0.0, template_params={})
    labels, fidelities, coefficients = _fit_stack(rho[None])
    label = CLASS_LABELS[labels[0]]
    template = _TEMPLATE_BY_LABEL.get(label)
    names = () if template is None else template.coefficient_names
    return ClassMatch(
        label=label,
        fidelity=float(fidelities[0]),
        template_params=dict(zip(names, coefficients[0].tolist())),
    )
