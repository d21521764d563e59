"""Independent numerical oracles for the test suite.

Everything here is deliberately written from first principles with a
different algorithm than the package uses, so that agreement between the two
routes is meaningful:

- a cyclic Jacobi eigensolver for complex Hermitian matrices (vs. LAPACK);
- a fixed-step Runge-Kutta integrator for the Schroedinger equation
  (vs. spectral exponentiation);
- the truncated atoms-plus-field space, its Hamiltonian built by loops over
  basis states and traced by loops (vs. the exact excitation blocks and the
  stacked partial-trace kernel);
- a cofactor-expansion 3x3 determinant (vs. the trigonometric root formulas);
- loop-based partial trace and partial transpose (vs. vectorized reshapes);
- the closed-form partial-transpose spectrum of a Werner state;
- every single-block preparation (``ee``, ``eg``, ``ge``, the singlet,
  ``gg``) evolved in 40-digit ``mpmath`` arithmetic (vs. double precision);
- the three-rung symmetric excitation ladder with a closed-form X-state
  negativity (vs. the full space and a 4x4 partial-transpose spectrum);
- record-loop negativity statistics, one Python loop over sampled records
  (vs. the package's array statistics, which must match them bit for bit);
- the classifier's per-matrix decision with its templates and thresholds
  declared again, diagonalizing every state past the separability gate (vs.
  the package's stacked classifier, which rules states out before
  diagonalizing them);
- Wootters' concurrence, a second entanglement measure that bounds the
  negativity from both sides (vs. the partial-transpose spectrum);
- the closed-form audit as one loop over grid times and modes, evaluating
  callables it is handed one matrix at a time (vs. the package's audit,
  which evaluates both modes in one pass per time and stacks its reference
  propagators over the grid).

It also holds ``midline_crossing_count``, the oscillation count of
acceptance criterion 07.

Nothing here imports the package under test.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a complex Hermitian matrix by cyclic Jacobi rotations.

    Each pivot applies a complex plane rotation that annihilates one
    off-diagonal element; sweeps repeat until the off-diagonal mass is
    negligible.  Returns ascending eigenvalues and matching eigenvector
    columns.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    for _ in range(JACOBI_MAX_SWEEPS):
        off_diag = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(np.abs(off_diag) ** 2)))
        scale = max(1.0, float(np.sqrt(np.sum(np.abs(np.diag(a)) ** 2))))
        if off <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                magnitude = abs(a[p, q])
                if magnitude == 0.0:
                    continue
                phase = a[p, q] / magnitude
                # tan(2*angle) = 2|a_pq| / (a_qq - a_pp), stable small-root form
                tau = (a[q, q].real - a[p, p].real) / (2.0 * magnitude)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rotation = np.eye(n, dtype=np.complex128)
                rotation[p, p] = c
                rotation[p, q] = s * phase
                rotation[q, p] = -s * np.conj(phase)
                rotation[q, q] = c
                a = rotation.conj().T @ a @ rotation
                v = v @ rotation
    else:
        raise RuntimeError("jacobi_eigh did not converge")
    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def rk4_evolve(
    hamiltonian: np.ndarray, psi0: np.ndarray, tau: float, step: float = 1e-4
) -> np.ndarray:
    """Integrate d(psi)/dt = -i H psi with classic fixed-step Runge-Kutta."""
    h = np.asarray(hamiltonian, dtype=np.complex128)
    psi = np.array(psi0, dtype=np.complex128)
    if tau == 0.0:
        return psi
    n_steps = int(np.ceil(abs(tau) / step))
    dt = tau / n_steps

    def derivative(state: np.ndarray) -> np.ndarray:
        return -1j * (h @ state)

    for _ in range(n_steps):
        k1 = derivative(psi)
        k2 = derivative(psi + 0.5 * dt * k1)
        k3 = derivative(psi + 0.5 * dt * k2)
        k4 = derivative(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def det3(m) -> complex:
    """3x3 determinant by cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def brute_partial_trace_field(psi: np.ndarray, field_dim: int) -> np.ndarray:
    """Partial trace over the field by explicit summation loops."""
    amplitudes = np.asarray(psi, dtype=np.complex128).reshape(4, field_dim)
    rho = np.zeros((4, 4), dtype=np.complex128)
    for j in range(4):
        for k in range(4):
            for m in range(field_dim):
                rho[j, k] += amplitudes[j, m] * np.conj(amplitudes[k, m])
    return rho


#: Photon levels kept above the prepared photon number by the full space.
FULL_SPACE_MARGIN = 6


def full_space_hamiltonian(delta: float, n_photon: int) -> np.ndarray:
    """Atoms-plus-field Hamiltonian truncated at photon number ``n_photon + 6``.

    Built entry by entry over the basis states ``|i1 i2, m>`` (``0`` excited,
    ``1`` ground per atom) at flat index ``(2*i1 + i2) * field_dim + m``.  The
    diagonal is ``delta`` times (excited atoms - 1); each excited atom couples
    to the state where it is ground and the field holds one more photon, with
    amplitude ``sqrt(m + 1)``.
    """
    field_dim = n_photon + FULL_SPACE_MARGIN + 1
    hamiltonian = np.zeros((4 * field_dim, 4 * field_dim), dtype=np.complex128)
    for i1 in range(2):
        for i2 in range(2):
            for m in range(field_dim):
                row = (2 * i1 + i2) * field_dim + m
                hamiltonian[row, row] = delta * (1 - i1 - i2)
                for levels in ((1, i2), (i1, 1)):
                    if levels == (i1, i2) or m + 1 == field_dim:
                        continue  # that atom is already ground, or no level above
                    column = (2 * levels[0] + levels[1]) * field_dim + m + 1
                    hamiltonian[row, column] = hamiltonian[column, row] = np.sqrt(m + 1.0)
    return hamiltonian


def full_space_block_indices(n_photon: int) -> list[int]:
    """Flat indices of ``(|ee,n>, |eg,n+1>, |ge,n+1>, |gg,n+2>)`` in the full space."""
    field_dim = n_photon + FULL_SPACE_MARGIN + 1
    return [n_photon + shift + atomic * field_dim for atomic, shift in enumerate((0, 1, 1, 2))]


class FullSpaceOracle:
    """Exact dynamics of ``|atoms> (x) |n>`` in the truncated full space.

    :func:`full_space_hamiltonian` is diagonalized once by
    ``numpy.linalg.eigh``; each time rotates the phases of its eigenvectors.
    The cutoff at ``n + 6`` photons only truncates excitation blocks that a
    preparation at photon number ``n`` never reaches.
    """

    def __init__(self, delta: float, n_photon: int) -> None:
        self.n_photon = n_photon
        self.field_dim = n_photon + FULL_SPACE_MARGIN + 1
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(
            full_space_hamiltonian(delta, n_photon)
        )

    def initial_state(self, atomic) -> np.ndarray:
        """The atomic 4-vector (ee, eg, ge, gg) tensored with ``|n_photon>``."""
        fock = np.zeros(self.field_dim, dtype=np.complex128)
        fock[self.n_photon] = 1.0
        return np.kron(np.asarray(atomic, dtype=np.complex128), fock)

    def state(self, atomic, tau: float) -> np.ndarray:
        """Joint state at ``tau`` of the preparation ``atomic (x) |n_photon>``."""
        coefficients = self.eigenvectors.conj().T @ self.initial_state(atomic)
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * tau) * coefficients)

    def reduced_state(self, atomic, tau: float) -> np.ndarray:
        """Reduced two-atom state at ``tau``, traced by :func:`brute_partial_trace_field`."""
        return brute_partial_trace_field(self.state(atomic, tau), self.field_dim)

    def restricted_propagator(self, tau: float) -> np.ndarray:
        """The propagator at ``tau`` on the block of ``|ee, n_photon>``."""
        v = self.eigenvectors[full_space_block_indices(self.n_photon)]
        return (v * np.exp(-1j * self.eigenvalues * tau)) @ v.conj().T


def brute_partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second atom by explicit index loops.

    Basis convention: row index ``2*i1 + i2`` for atomic levels
    ``i1, i2 in {0: excited, 1: ground}``.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    out = np.zeros((4, 4), dtype=np.complex128)
    for i1 in range(2):
        for j2 in range(2):
            for k1 in range(2):
                for l2 in range(2):
                    out[2 * i1 + j2, 2 * k1 + l2] = rho[2 * i1 + l2, 2 * k1 + j2]
    return out


def brute_negativity(rho: np.ndarray) -> float:
    """Negativity via the loop-based partial transpose and Jacobi spectrum."""
    eigenvalues, _ = jacobi_eigh(brute_partial_transpose_second(rho))
    return float(np.sum(np.abs(eigenvalues)) - 1.0)


def werner_pt_eigenvalues(p: float) -> np.ndarray:
    """Partial-transpose spectrum of the Werner mixture, ascending.

    The state ``p |singlet><singlet| + (1 - p) I/4`` has partial-transpose
    eigenvalues ``(1 + p)/4`` (three-fold) and ``(1 - 3p)/4``.
    """
    return np.sort(np.array([(1.0 + p) / 4.0] * 3 + [(1.0 - 3.0 * p) / 4.0]))


def werner_state(p: float) -> np.ndarray:
    """The Werner mixture of the singlet with the maximally mixed state."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
    return p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random normalized complex vector."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def random_product_atomic_state(rng: np.random.Generator) -> np.ndarray:
    """Random two-atom product state in the (ee, eg, ge, gg) basis."""
    atom1 = random_state(rng, 2)
    atom2 = random_state(rng, 2)
    return np.kron(atom1, atom2)


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """Random product unitary U1 (x) U2 on the two-atom space."""

    def haar_2x2() -> np.ndarray:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(haar_2x2(), haar_2x2())


def symmetric_ladder_amplitudes(
    delta: float, n_photon: int, start: str, taus
) -> np.ndarray:
    """Amplitudes on the rungs ``(ee, m), (S, m+1), (gg, m+2)`` over ``taus``.

    ``S = (|eg> + |ge>)/sqrt(2)``.  A pair started in ``|ee, n>`` rides the
    ladder with ``m = n``; one started in ``|gg, n>`` rides it with
    ``m = n - 2``.  Rungs with a negative photon number do not exist and are
    dropped, so ``gg`` at ``n = 1`` is a two-state ladder and at ``n = 0`` a
    single stationary state.  The ladder Hamiltonian has diagonal
    ``(+delta, 0, -delta)`` and couplings ``sqrt(2 (m+1))`` and
    ``sqrt(2 (m+2))``; it is diagonalized by :func:`jacobi_eigh`.

    Returns an array of shape ``(len(taus), 3)`` with columns (ee, S, gg);
    dropped rungs hold zero.
    """
    if start not in ("ee", "gg"):
        raise ValueError(f"start must be 'ee' or 'gg', got {start!r}")
    m = n_photon if start == "ee" else n_photon - 2
    hamiltonian = np.diag([delta, 0.0, -delta]).astype(np.complex128)
    hamiltonian[0, 1] = hamiltonian[1, 0] = np.sqrt(2.0 * max(m + 1, 0))
    hamiltonian[1, 2] = hamiltonian[2, 1] = np.sqrt(2.0 * max(m + 2, 0))
    kept = [rung for rung in range(3) if m + rung >= 0]
    psi0 = np.zeros(len(kept), dtype=np.complex128)
    psi0[kept.index(0 if start == "ee" else 2)] = 1.0
    eigenvalues, eigenvectors = jacobi_eigh(hamiltonian[np.ix_(kept, kept)])
    coefficients = eigenvectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(np.asarray(taus, dtype=float), eigenvalues))
    amplitudes = np.zeros((phases.shape[0], 3), dtype=np.complex128)
    amplitudes[:, kept] = (phases * coefficients) @ eigenvectors.T
    return amplitudes


def ladder_x_state(amplitudes: np.ndarray) -> np.ndarray:
    """Reduced two-atom state of one ladder sample ``(a, s, c)``.

    The rungs carry different photon numbers, so tracing out the field keeps
    only the populations and the eg/ge coherence ``|s|^2 / 2`` of the shared
    rung: an X-state in the basis (ee, eg, ge, gg).
    """
    a, s, c = amplitudes
    half = abs(s) ** 2 / 2.0
    rho = np.diag([abs(a) ** 2, half, half, abs(c) ** 2]).astype(np.complex128)
    rho[1, 2] = rho[2, 1] = half
    return rho


def symmetric_ladder_negativities(
    delta: float, n_photon: int, start: str, taus
) -> np.ndarray:
    """Negativity along the symmetric ladder, from the closed-form PT block.

    Transposing the second atom moves the eg/ge coherence ``|s|^2/2`` of
    :func:`ladder_x_state` into the ee/gg corner, leaving the block
    ``[[|a|^2, |s|^2/2], [|s|^2/2, |c|^2]]`` plus the non-negative
    populations ``|s|^2/2`` twice.  Its smaller eigenvalue ``lam_minus`` is
    the only one that can be negative, and for a unit-trace state the
    negativity is ``2 * max(0, -lam_minus)``.
    """
    amplitudes = symmetric_ladder_amplitudes(delta, n_photon, start, taus)
    p_ee = np.abs(amplitudes[:, 0]) ** 2
    coherence = np.abs(amplitudes[:, 1]) ** 2 / 2.0
    p_gg = np.abs(amplitudes[:, 2]) ** 2
    lam_minus = (p_ee + p_gg) / 2.0 - np.hypot((p_ee - p_gg) / 2.0, coherence)
    return 2.0 * np.maximum(0.0, -lam_minus)


def first_downward_crossing(taus, values, threshold: float) -> float | None:
    """First time ``values`` drop from above ``threshold`` to at or below it.

    The crossing time is read off the straight line between the two samples
    that bracket it; ``None`` when no sample pair brackets a drop.
    """
    taus = np.asarray(taus, dtype=float)
    above = np.asarray(values, dtype=float) > threshold
    drops = np.flatnonzero(above[:-1] & ~above[1:])
    if drops.size == 0:
        return None
    k = int(drops[0])
    return float(np.interp(threshold, [values[k + 1], values[k]], [taus[k + 1], taus[k]]))


def midline_crossing_count(values) -> int:
    """Strict sign changes of ``values - 0.5``; samples exactly at 0.5 are skipped.

    Counts how often a population oscillates through its midpoint.
    """
    count = 0
    previous = None
    for value in values:
        gap = value - 0.5
        if gap == 0.0:
            continue
        current = gap > 0.0
        if previous is not None and current != previous:
            count += 1
        previous = current
    return count


#: Single-block preparations: the photon shift of their block (its lowest
#: photon number is ``n - shift``) and their amplitudes, up to normalization,
#: on its states ``(ee, m), (eg, m+1), (ge, m+1), (gg, m+2)``.
SINGLE_BLOCK_STARTS = {
    "ee": (0, (1, 0, 0, 0)),
    "eg": (1, (0, 1, 0, 0)),
    "ge": (1, (0, 0, 1, 0)),
    "singlet": (1, (0, 1, -1, 0)),
    "gg": (2, (0, 0, 0, 1)),
}


def exact_single_block_series(
    start: str, delta: float, n_photon: int, tau_max: float, steps: int, dps: int = 40
) -> list[tuple]:
    """Populations and negativity of ``|start, n>`` on a uniform grid, at ``dps`` digits.

    Every named preparation lies in one excitation block ``(ee, m), (eg, m+1),
    (ge, m+1), (gg, m+2)`` with ``m = n - shift`` (:data:`SINGLE_BLOCK_STARTS`),
    diagonal ``(+delta, 0, 0, -delta)`` and couplings ``sqrt(m+1)`` and
    ``sqrt(m+2)``.  States of negative photon number do not exist and are
    dropped: ``gg`` at ``n = 1`` rides a three-state block, at ``n = 0`` a
    single stationary state.  The block is diagonalized once in ``mpmath``
    arithmetic and each sample ``tau_k = k * tau_max / (steps - 1)`` rotates
    the phases of its eigenvectors.  Tracing out the field leaves an X-state
    whose only coherence is ``eg/ge``; its partial transpose has the
    eigenvalues ``p_eg``, ``p_ge`` and those of the 2x2 block
    ``[[p_ee, |b c|], [|b c|, p_gg]]``, and the negativity is
    ``sum|eigenvalues| - 1``.

    Returns one ``(tau, p_ee, p_eg, p_ge, p_gg, negativity)`` tuple of
    ``mpmath.mpf`` per sample.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    shift, amplitudes = SINGLE_BLOCK_STARTS[start]
    m = n_photon - shift
    d = ctx.mpf(delta)
    gamma, beta = ctx.sqrt(max(m + 1, 0)), ctx.sqrt(max(m + 2, 0))
    full = [[d, gamma, gamma, 0], [gamma, 0, 0, beta], [gamma, 0, 0, beta], [0, beta, beta, -d]]
    kept = [j for j, offset in enumerate((0, 1, 1, 2)) if m + offset >= 0]
    hamiltonian = ctx.matrix([[full[j][k] for k in kept] for j in kept])
    eigenvalues, eigenvectors = ctx.eigsy(hamiltonian)
    norm = ctx.sqrt(sum(x * x for x in amplitudes))
    initial = [amplitudes[j] / norm for j in kept]
    size = len(kept)
    # Initial coefficients in the eigenbasis: c_l = sum_j V[j, l] psi0_j.
    coefficients = [
        ctx.fsum(eigenvectors[j, l] * initial[j] for j in range(size)) for l in range(size)
    ]
    rows = []
    for k in range(steps):
        tau = ctx.mpf(k) * ctx.mpf(tau_max) / (steps - 1)
        weights = [coefficients[l] * ctx.expj(-eigenvalues[l] * tau) for l in range(size)]
        state = [ctx.mpf(0)] * 4
        for j, index in enumerate(kept):
            state[index] = ctx.fsum(eigenvectors[j, l] * weights[l] for l in range(size))
        a, b, c, e = state
        p_ee, p_eg, p_ge, p_gg = (abs(x) ** 2 for x in (a, b, c, e))
        coherence = abs(b) * abs(c)
        radius = ctx.sqrt(((p_ee - p_gg) / 2) ** 2 + coherence**2)
        spectrum = (p_eg, p_ge, (p_ee + p_gg) / 2 + radius, (p_ee + p_gg) / 2 - radius)
        rows.append((tau, p_ee, p_eg, p_ge, p_gg, ctx.fsum(abs(x) for x in spectrum) - 1))
    return rows


def record_first_negativity_zero(records, threshold: float) -> float | None:
    """First downward crossing of ``threshold``, interpolated, by a record loop.

    ``records`` are objects with ``tau`` and ``negativity`` attributes.  A
    crossing is a sample above ``threshold`` followed by one at or below it.
    """
    for before, after in zip(records, records[1:]):
        gap_before = before.negativity - threshold
        gap_after = after.negativity - threshold
        if gap_before > 0.0 >= gap_after:
            fraction = gap_before / (gap_before - gap_after)
            return before.tau + (after.tau - before.tau) * fraction
    return None


def record_negativity_zero_count(records, threshold: float) -> int:
    """Number of downward crossings of ``threshold``, by a record loop."""
    count = 0
    for before, after in zip(records, records[1:]):
        if before.negativity - threshold > 0.0 >= after.negativity - threshold:
            count += 1
    return count


def record_average_negativity(records) -> float:
    """Trapezoid time average of the negativity, summed sample by sample."""
    if len(records) < 2:
        raise ValueError("need at least two records to average")
    values = [record.negativity for record in records]
    dt = records[1].tau - records[0].tau
    # Left to right from 0.0, as Python 3.11's sum adds (3.12's compensates).
    interior = functools.reduce(operator.add, values[1:-1], 0.0)
    integral = dt * (0.5 * values[0] + interior + 0.5 * values[-1])
    window = records[-1].tau - records[0].tau
    return integral / window


def _classifier_templates() -> tuple:
    sq2 = np.sqrt(2.0)
    sq3 = np.sqrt(3.0)
    symmetric = np.array([0.0, 1.0, 1.0, 0.0]) / sq2
    even = np.array([1.0, 0.0, 0.0, 1.0]) / sq2
    return (
        ("psi1_bell_like", ("mu",), np.array([symmetric]), np.array([sq2]), "none"),
        ("psi2", ("mu1",), np.array([np.array([1.0, 1.0, 1.0, 0.0]) / sq3]),
         np.array([sq3]), "none"),
        ("psi3_werner_like", ("eta", "zeta"), np.array([even, [0.0, 1.0, 0.0, 0.0]]),
         np.array([sq2, 1.0]), "all"),
        ("psi4", ("mu2", "nu"), np.array([even, symmetric]), np.array([sq2, sq2]), "all"),
        ("psi5", ("chi1", "chi2", "chi3"),
         np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], symmetric]),
         np.array([1.0, 1.0, sq2]), "any_first_two"),
    )


#: The classifier's templates: label, coefficient names, orthonormal real
#: basis rows, scale from basis to named coefficients, and which coefficients
#: must clear the floor.
CLASSIFIER_TEMPLATES = _classifier_templates()

#: The classifier's thresholds: entanglement degree below which a state is
#: separable, dominant eigenvalue needed for a fit, largest fit residual of a
#: match, and smallest coefficient that counts as used.
CLASSIFIER_THRESHOLDS = {"separable": 0.01, "purity": 0.9, "residual": 0.05, "floor": 0.05}


def record_classify(rho: np.ndarray) -> tuple[str, float, dict[str, float]]:
    """The classifier's decision for one matrix: label, fidelity, coefficients.

    Every state past the separability gate is diagonalized and every template
    tried in order, with no shortcut.  A state too mixed for the purity gate
    has fidelity 0; one that no template claims has its best fidelity.  Each
    step repeats the package's arithmetic on arrays of the same shapes, so
    the results agree bit for bit.
    """
    thresholds = CLASSIFIER_THRESHOLDS
    rho = np.asarray(rho, dtype=np.complex128)
    pt_eigenvalues, _ = np.linalg.eigh(brute_partial_transpose_second(rho))
    if np.sum(np.abs(pt_eigenvalues)) - 1.0 < thresholds["separable"]:
        return "separable", 0.0, {}
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    if eigenvalues[-1] < thresholds["purity"]:
        return "mixed_unclassified", 0.0, {}
    state = eigenvectors[None, :, -1].copy()  # a contiguous row, as the package fits
    best = 0.0
    for label, names, basis, scale, constraint in CLASSIFIER_TEMPLATES:
        projections = state @ basis.T
        power = np.sum(np.abs(projections) ** 2, axis=1)
        phase_sum = np.sum(projections**2, axis=1)
        fidelity = float(np.clip(0.5 * (power + np.abs(phase_sum)), 0.0, 1.0)[0])
        phase = np.zeros(1) if abs(phase_sum[0]) < 1e-30 else -0.5 * np.angle(phase_sum)
        # NumPy's complex product can round differently under other shapes.
        coefficients = np.real(np.exp(1j * phase)[:, None] * projections)[0]
        if coefficients[np.argmax(np.abs(coefficients))] < 0.0:
            coefficients = -coefficients
        coefficients = coefficients / scale
        magnitudes = np.abs(coefficients)
        if constraint == "all":
            used = bool(np.all(magnitudes >= thresholds["floor"]))
        elif constraint == "any_first_two":
            used = bool(np.max(magnitudes[:2]) >= thresholds["floor"])
        else:
            used = True
        if np.sqrt(max(0.0, 1.0 - fidelity)) < thresholds["residual"] and used:
            return label, fidelity, dict(zip(names, coefficients.tolist()))
        best = float(np.fmax(best, fidelity))
    return "mixed_unclassified", best, {}


#: sigma_y (x) sigma_y, the spin flip of two qubits (in any basis order that
#: lists both atoms' levels alike).
_SPIN_FLIP = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix (Wootters, PRL 80, 2245, 1998).

    ``C = max(0, l1 - l2 - l3 - l4)`` with ``l1 >= l2 >= l3 >= l4`` the square
    roots of the eigenvalues of ``rho @ rho_tilde``, where ``rho_tilde =
    (sy x sy) rho* (sy x sy)``.  With ``S = sqrt(rho)``, ``S rho_tilde S`` has
    those eigenvalues and equals ``A A^dagger`` for ``A = S (sy x sy) S*``, so
    the ``l`` are taken here as the singular values of ``A``.  Square roots of
    eigenvalues of order 1e-16 would make an ``l`` of order 1e-8 on a
    rank-deficient state; the singular values avoid that for ``rho_tilde``,
    and only ``S`` takes square roots.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    weights, vectors = np.linalg.eigh(rho)
    root = (vectors * np.sqrt(np.clip(weights, 0.0, None))) @ vectors.conj().T
    l1, l2, l3, l4 = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return max(0.0, float(l1 - l2 - l3 - l4))


def negativity_bounds_from_concurrence(concurrence: float) -> tuple[float, float]:
    """The range of the two-qubit negativity ``sum|eig(rho^T2)| - 1`` at concurrence ``C``.

    ``sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C`` (Verstraete, Audenaert,
    Dehaene & De Moor, J. Phys. A 34, 10327, 2001).
    """
    c = concurrence
    return float(np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)), c


def loop_audit(tau_grid, modes, closed_form, reference) -> tuple[dict, dict]:
    """The closed-form audit's deviations and identity defects, one time and mode at a time.

    ``closed_form(tau, mode)`` and ``reference(tau)`` return 4x4 matrices.
    For each mode, the element-wise ``|closed - reference|`` is maximized
    over the grid, non-finite deviations counting as infinity; at each
    ``tau == 0`` the mode's ``|closed - I|`` is recorded.  Returns the two
    dicts keyed by mode, as the package's audit report stores them.
    """
    deviations = {mode: np.zeros((4, 4)) for mode in modes}
    identity_defects = {}
    for tau in tau_grid:
        closed = {mode: closed_form(tau, mode) for mode in modes}
        expected = reference(tau)
        for mode in modes:
            deviation = np.abs(closed[mode] - expected)
            deviation[~np.isfinite(deviation)] = np.inf
            deviations[mode] = np.maximum(deviations[mode], deviation)
            if tau == 0.0:
                identity_defects[mode] = np.abs(closed[mode] - np.eye(4))
    return deviations, identity_defects
