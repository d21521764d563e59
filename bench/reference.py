"""Independent reference for the benchmark's artifact checks.

Imports nothing from ``twoatomcavity``. The physics is rebuilt from the model
as the README states it: two identical atoms, detuning term
``delta * (P_e1 + P_e2 - 1)`` and exchange ``sqrt(m+1) (|g,m+1><e,m| + h.c.)``
per atom. Excitation number is conserved, so a product preparation
``|atoms> (x) |n>`` splits into the blocks N = n, n+1, n+2, each of at most
four states ``(ee,N-2), (eg,N-1), (ge,N-1), (gg,N)``. Each block is evolved
on its own; the field is traced out by an explicit sum over photon numbers;
the partial-transpose spectrum comes from ``numpy.linalg.eigvalsh``.

Every check returns a list of failure strings; an empty list means the
artifact passed.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)

#: The labels the README's classification table lists.
CLASS_LABELS = (
    "separable",
    "psi1_bell_like",
    "psi2",
    "psi3_werner_like",
    "psi4",
    "psi5",
    "mixed_unclassified",
)
SEPARABLE_THRESHOLD = 0.01
ZERO_THRESHOLD = 1e-6
AUDIT_TOL = 1e-6
AUDIT_TAU_GRID = np.linspace(0.0, 10.0, 21)
DEFAULT_CUTOFF_MARGIN = 6
SERIES_HEADER = "tau,p_ee,p_eg,p_ge,p_gg,negativity,class"

#: Agreement demanded at small tau: the artifacts carry 12 significant digits
#: and both computations are accurate to ~1e-14, so 1e-9 leaves wide margin
#: while a wrong detuning or photon number misses by 1e-3 or more.
BASE_TOL = 1e-9
#: Multiplier of the phase budget eps * max|lambda| * tau (see README).
PHASE_BUDGET_FACTOR = 100.0

#: Atomic basis (ee, eg, ge, gg) as (atom 1 excited, atom 2 excited).
_EXCITATION = ((1, 1), (1, 0), (0, 1), (0, 0))
_INDEX_OF = {flags: j for j, flags in enumerate(_EXCITATION)}

NAMED_STATES = {
    "ee": (1.0, 0.0, 0.0, 0.0),
    "eg": (0.0, 1.0, 0.0, 0.0),
    "ge": (0.0, 0.0, 1.0, 0.0),
    "gg": (0.0, 0.0, 0.0, 1.0),
    "singlet": (0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0),
}


def product_vector(a1: complex, b1: complex, a2: complex, b2: complex) -> np.ndarray:
    """Atomic amplitudes of (a1|g> + b1|e>) (x) (a2|g> + b2|e>), normalized per atom."""
    s1 = math.sqrt(abs(a1) ** 2 + abs(b1) ** 2)
    s2 = math.sqrt(abs(a2) ** 2 + abs(b2) ** 2)
    a1, b1, a2, b2 = a1 / s1, b1 / s1, a2 / s2, b2 / s2
    return np.array([b1 * b2, b1 * a2, a1 * b2, a1 * a2], dtype=complex)


def block_basis(excitations: int) -> list[tuple[int, int]]:
    """(atomic index, photon number) pairs with the given excitation number."""
    basis = []
    for j, (e1, e2) in enumerate(_EXCITATION):
        photons = excitations - e1 - e2
        if photons >= 0:
            basis.append((j, photons))
    return basis


def block_hamiltonian(excitations: int, delta: float) -> np.ndarray:
    """Hamiltonian of one excitation block, built state by state."""
    basis = block_basis(excitations)
    position = {state: k for k, state in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for k, (j, m) in enumerate(basis):
        e1, e2 = _EXCITATION[j]
        h[k, k] = delta * (e1 + e2 - 1)
        for atom in (0, 1):
            flags = [e1, e2]
            if flags[atom] == 0:
                continue
            flags[atom] = 0
            target = position[(_INDEX_OF[tuple(flags)], m + 1)]
            h[target, k] = h[k, target] = math.sqrt(m + 1)
    return h


def phase_tolerance(delta: float, n_photon: int, tau_max: float) -> float:
    """Allowed disagreement: BASE_TOL plus the phase budget of the production path.

    The production path diagonalizes the truncated space with cutoff
    ``n + 6``, whose spectral radius is at most ``|delta| + 4 sqrt(n + 7)``;
    eigenvalue round-off of eps times that radius turns into a phase error
    growing linearly with tau.
    """
    radius = abs(delta) + 4.0 * math.sqrt(n_photon + DEFAULT_CUTOFF_MARGIN + 1)
    return BASE_TOL + PHASE_BUDGET_FACTOR * EPS * radius * tau_max


def evolve_amplitudes(
    atomic: np.ndarray, n_photon: int, delta: float, taus: np.ndarray
) -> np.ndarray:
    """Joint amplitudes on photon levels n-2..n+2, shape (len(taus), 4, 5)."""
    amplitudes = np.zeros((len(taus), 4, 5), dtype=complex)
    for excitations in (n_photon, n_photon + 1, n_photon + 2):
        basis = block_basis(excitations)
        start = np.array(
            [atomic[j] if m == n_photon else 0.0 for j, m in basis], dtype=complex
        )
        if not np.any(start):
            continue
        energies, vectors = np.linalg.eigh(block_hamiltonian(excitations, delta))
        coefficients = vectors.T @ start
        evolved = (np.exp(-1j * np.outer(taus, energies)) * coefficients) @ vectors.T
        for k, (j, m) in enumerate(basis):
            amplitudes[:, j, m - n_photon + 2] = evolved[:, k]
    return amplitudes


def reduced_states(amplitudes: np.ndarray) -> np.ndarray:
    """rho[t, j, k] = sum over photon numbers m of psi(j, m) conj(psi(k, m))."""
    rho = np.zeros((amplitudes.shape[0], 4, 4), dtype=complex)
    for m in range(amplitudes.shape[2]):
        column = amplitudes[:, :, m]
        rho += column[:, :, None] * np.conj(column[:, None, :])
    return rho


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second atom: element ((i1 i2),(j1 j2)) <- ((i1 j2),(j1 i2))."""
    out = np.empty_like(rho)
    for i1, i2, j1, j2 in itertools.product((0, 1), repeat=4):
        out[..., 2 * i1 + i2, 2 * j1 + j2] = rho[..., 2 * i1 + j2, 2 * j1 + i2]
    return out


def negativities(rho: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho))), axis=-1) - 1.0


def series_reference(
    atomic: np.ndarray, n_photon: int, delta: float, tau_max: float, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(taus, populations (steps, 4), negativities (steps,)) on the CLI's grid."""
    taus = np.linspace(0.0, tau_max, steps)
    rho = reduced_states(evolve_amplitudes(atomic, n_photon, delta, taus))
    return taus, np.real(np.einsum("tjj->tj", rho)), negativities(rho)


def check_reference_properties(pops: np.ndarray, neg: np.ndarray) -> list[str]:
    """The reference itself must satisfy the invariants it checks against."""
    failures = []
    if np.max(np.abs(pops.sum(axis=1) - 1.0)) > 1e-12:
        failures.append("reference: trace deviates from 1")
    if np.min(neg) < -1e-12 or np.max(neg) > 1.0 + 1e-12:
        failures.append("reference: negativity outside [0, 1]")
    return failures


def _parse_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def check_series(text: str, op: dict) -> tuple[list[str], np.ndarray | None]:
    """Check one series CSV. Returns failures and the parsed numeric columns."""
    header, rows = _parse_csv(text)
    if header != SERIES_HEADER:
        return [f"series header {header!r}"], None
    if len(rows) != op["steps"] or any(len(row) != 7 for row in rows):
        return [f"series has {len(rows)} rows, expected {op['steps']} of 7 fields"], None
    values = np.array([[float(x) for x in row[:6]] for row in rows])
    labels = [row[6] for row in rows]
    taus, pops, neg = series_reference(
        op["atomic"], op["n_photon"], op["delta"], op["tau_max"], op["steps"]
    )
    tol = phase_tolerance(op["delta"], op["n_photon"], op["tau_max"])
    failures = check_reference_properties(pops, neg)
    if np.max(np.abs(values[:, 0] - taus)) > 1e-11 * max(1.0, op["tau_max"]):
        failures.append("tau column differs from the uniform grid")
    pop_err = float(np.max(np.abs(values[:, 1:5] - pops)))
    if pop_err > tol:
        failures.append(f"populations differ from the reference by {pop_err:.3e} > {tol:.1e}")
    neg_err = float(np.max(np.abs(values[:, 5] - neg)))
    if neg_err > tol:
        failures.append(f"negativity differs from the reference by {neg_err:.3e} > {tol:.1e}")
    if np.min(values[:, 1:5]) < -tol or np.max(values[:, 1:5]) > 1.0 + tol:
        failures.append("a population lies outside [0, 1]")
    if np.max(np.abs(values[:, 1:5].sum(axis=1) - 1.0)) > 1e-10:
        failures.append("populations do not sum to 1")
    if np.min(values[:, 5]) < -tol or np.max(values[:, 5]) > 1.0 + tol:
        failures.append("negativity outside [0, 1]")
    unknown = sorted(set(labels) - set(CLASS_LABELS))
    if unknown:
        failures.append(f"unknown class labels {unknown}")
    separable = np.array([label == "separable" for label in labels])
    if np.any(separable != (values[:, 5] < SEPARABLE_THRESHOLD)):
        failures.append("label 'separable' does not coincide with negativity < 0.01")
    clear = np.abs(neg - SEPARABLE_THRESHOLD) > tol
    if np.any((separable != (neg < SEPARABLE_THRESHOLD)) & clear):
        failures.append("label 'separable' disagrees with the reference negativity")
    if op["initial"] == "singlet":
        if np.max(np.abs(values[:, 1:5] - [0.0, 0.5, 0.5, 0.0])) > tol:
            failures.append("singlet populations are not stationary at (0, 1/2, 1/2, 0)")
        if np.max(np.abs(values[:, 5] - 1.0)) > tol:
            failures.append("singlet negativity is not 1")
    return failures, values


def check_swap_symmetry(eg: np.ndarray, ge: np.ndarray, tol: float) -> list[str]:
    """|eg,n> and |ge,n> series are mirror images under exchanging the atoms."""
    swapped = ge[:, [0, 1, 3, 2, 4, 5]]
    err = float(np.max(np.abs(eg - swapped)))
    return [] if err <= tol else [f"eg/ge swap symmetry broken by {err:.3e}"]


def _crossing_candidates(
    taus: np.ndarray, neg: np.ndarray, tol: float
) -> list[tuple[int, list[float], float, float]]:
    """Every (zero count, first-zero window) the threshold test could produce.

    Samples within ``tol`` of the threshold may land on either side; each
    assignment of them is one candidate. The first-zero window is the
    interval the interpolated crossing may occupy given the tolerance.
    """
    gaps = neg - ZERO_THRESHOLD
    ambiguous = np.flatnonzero(np.abs(gaps) <= tol)
    if len(ambiguous) > 12:
        raise ValueError(f"{len(ambiguous)} samples within tolerance of the zero threshold")
    candidates = []
    for sides in itertools.product((True, False), repeat=len(ambiguous)):
        above = gaps > 0.0
        above[ambiguous] = sides
        starts = np.flatnonzero(above[:-1] & ~above[1:])
        if len(starts) == 0:
            candidates.append((0, [-1.0], -1.0, -1.0))
            continue
        i = int(starts[0])
        if i in ambiguous or i + 1 in ambiguous:
            low, high = float(taus[i]), float(taus[i + 1])
        else:
            g0, g1 = gaps[i], gaps[i + 1]
            t = taus[i] + (taus[i + 1] - taus[i]) * g0 / (g0 - g1)
            slack = (taus[i + 1] - taus[i]) * 2.0 * tol / (g0 - g1)
            low, high = float(t - slack), float(t + slack)
        candidates.append((len(starts), [], low, high))
    return candidates


def check_sweep(text: str, op: dict) -> list[str]:
    """Recompute every sweep row from reference samples on the same grid."""
    header, rows = _parse_csv(text)
    param = op["sweep_param"]
    expected = f"{param},avg_negativity,first_negativity_zero,negativity_zero_count"
    if header != expected:
        return [f"sweep header {header!r}"]
    points = np.linspace(op["sweep_start"], op["sweep_stop"], op["sweep_count"])
    if len(rows) != len(points) or any(len(row) != 4 for row in rows):
        return [f"sweep has {len(rows)} rows, expected {len(points)} of 4 fields"]
    failures = []
    for row, point in zip(rows, points):
        if param == "delta":
            delta, n_photon = float(point), op["n_photon"]
            if abs(float(row[0]) - delta) > 1e-11:
                failures.append(f"sweep value {row[0]} is not {delta!r}")
        else:
            delta, n_photon = op["delta"], int(round(point))
            if row[0] != str(n_photon):
                failures.append(f"sweep value {row[0]} is not {n_photon}")
        taus, pops, neg = series_reference(
            op["atomic"], n_photon, delta, op["tau_max"], op["steps"]
        )
        failures += check_reference_properties(pops, neg)
        tol = phase_tolerance(delta, n_photon, op["tau_max"])
        dt = taus[1] - taus[0]
        average = float(dt) * (0.5 * neg[0] + neg[1:-1].sum() + 0.5 * neg[-1]) / op["tau_max"]
        avg_value, first_zero, zero_count = float(row[1]), float(row[2]), int(row[3])
        if abs(avg_value - average) > tol:
            failures.append(f"{row[0]}: avg_negativity {avg_value!r} != reference {average!r}")
        if not -tol <= avg_value <= 1.0 + tol:
            failures.append(f"{row[0]}: avg_negativity outside [0, 1]")
        try:
            candidates = _crossing_candidates(taus, neg, tol)
        except ValueError as exc:
            failures.append(f"{row[0]}: {exc}")
            continue
        rounding = 1e-11 * max(1.0, abs(first_zero))
        if not any(
            count == zero_count
            and (first_zero in exact or low - rounding <= first_zero <= high + rounding)
            for count, exact, low, high in candidates
        ):
            failures.append(
                f"{row[0]}: zero statistics ({first_zero!r}, {zero_count}) not reproduced"
            )
    return failures


def exact_propagator(delta: float, n_photon: int, taus: np.ndarray) -> np.ndarray:
    """exp(-i H tau) on (|ee,n>, |eg,n+1>, |ge,n+1>, |gg,n+2>), shape (T, 4, 4)."""
    energies, vectors = np.linalg.eigh(block_hamiltonian(n_photon + 2, delta))
    phases = np.exp(-1j * np.outer(taus, energies))
    u = np.einsum("ik,tk,jk->tij", vectors, phases, vectors)
    u[taus == 0.0] = np.eye(4)
    return u


def closed_form(delta: float, n_photon: int, taus: np.ndarray, mode: str) -> np.ndarray:
    """The audited element formulas, shape (T, 4, 4).

    The roots come from the symmetric three-state ladder (ee,n), S, (gg,n+2),
    ordered as the trigonometric solution orders them: largest, smallest,
    middle. ``strict`` freezes the (1,1) phase at the first root and drops the
    root-dependent weights of the (1,2) family; ``corrected`` does neither.
    """
    gamma, beta = math.sqrt(n_photon + 1.0), math.sqrt(n_photon + 2.0)
    ladder = np.array(
        [
            [delta, math.sqrt(2.0) * gamma, 0.0],
            [math.sqrt(2.0) * gamma, 0.0, math.sqrt(2.0) * beta],
            [0.0, math.sqrt(2.0) * beta, -delta],
        ]
    )
    low, mid, high = np.linalg.eigvalsh(ladder)
    mu = np.array([high, low, mid])
    weights = np.array(
        [1.0 / np.prod([mu[i] - mu[j] for j in range(3) if j != i]) for i in range(3)]
    )
    phases = np.exp(-1j * np.outer(taus, mu))
    if mode == "strict":
        phases_11 = np.repeat(phases[:, :1], 3, axis=1)
        weights_12 = np.array([1.0, -1.0, 1.0])
    else:
        phases_11, weights_12 = phases, weights
    g2, b2 = gamma**2, beta**2
    u11 = phases_11 @ (weights * (mu * (delta + mu) - 2.0 * b2))
    u12 = gamma * (phases @ (weights_12 * (delta + mu)))
    u14 = 2.0 * beta * gamma * (phases @ weights)
    numerator = delta * (b2 - g2)
    constant = 0.0 if numerator == 0.0 else numerator / float(np.prod(mu))
    u22 = phases @ ((weights / mu) * (b2 * (delta - mu) - (delta + mu)) * (g2 + mu * (delta - mu)))
    u22 = u22 - constant
    u23 = -(phases @ ((weights / mu) * (b2 * (delta - mu) - g2 * (delta + mu)))) + constant
    u24 = -beta * (phases @ (weights * (delta - mu)))
    u44 = -(phases @ (weights * (2.0 * g2 + mu * (delta - mu))))
    return np.stack(
        [
            np.stack([u11, u12, u12, u14], axis=-1),
            np.stack([u12, u22, u23, u24], axis=-1),
            np.stack([u12, u23, u22, u24], axis=-1),
            np.stack([u14, u24, u24, u44], axis=-1),
        ],
        axis=1,
    )


def check_audit(report_text: str, table_text: str, op: dict) -> list[str]:
    """Recompute every max_deviation against the exact 4x4 propagator."""
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return [f"audit JSON does not parse: {exc}"]
    delta, n_photon = op["delta"], op["n_photon"]
    failures = []
    expected_fields = {
        "delta": delta,
        "n_photon": n_photon,
        "fock_cutoff": n_photon + DEFAULT_CUTOFF_MARGIN,
        "modes": ["strict", "corrected"],
        "tolerance": AUDIT_TOL,
    }
    for key, value in expected_fields.items():
        if report.get(key) != value:
            failures.append(f"audit {key} is {report.get(key)!r}, expected {value!r}")
    if report.get("tau_grid") != [float(tau) for tau in AUDIT_TAU_GRID]:
        failures.append("audit tau_grid is not 21 points over [0, 10]")
    findings = report.get("findings")
    if not findings or not all(isinstance(f, str) and f for f in findings):
        failures.append("audit findings missing")
    elements = report.get("elements", [])
    ids = [f"u{r}{c}" for r in range(1, 5) for c in range(1, 5)]
    if [entry.get("element") for entry in elements] != ids:
        return failures + ["audit elements are not u11..u44 in row-major order"]
    exact = exact_propagator(delta, n_photon, AUDIT_TAU_GRID)
    verdicts = {}
    for mode in ("strict", "corrected"):
        with np.errstate(divide="ignore", invalid="ignore"):
            deviation = np.abs(closed_form(delta, n_photon, AUDIT_TAU_GRID, mode) - exact)
        deviation[~np.isfinite(deviation)] = np.inf
        worst = deviation.max(axis=0)
        for k, entry in enumerate(elements):
            result = entry.get(mode, {})
            raw, verdict = result.get("max_deviation"), result.get("verdict")
            value = math.inf if raw == "inf" else float(raw)
            reference = float(worst[divmod(k, 4)])
            verdicts[(entry["element"], mode)] = verdict
            if verdict != ("match" if value <= AUDIT_TOL else "mismatch"):
                failures.append(f"{entry['element']} {mode}: verdict {verdict} for {value!r}")
            if math.isinf(value) or math.isinf(reference):
                if value != reference:
                    failures.append(f"{entry['element']} {mode}: {value!r} vs reference {reference!r}")
                continue
            if abs(value - reference) > BASE_TOL * max(1.0, reference):
                failures.append(
                    f"{entry['element']} {mode}: max_deviation {value!r} vs reference {reference!r}"
                )
    table_rows = {
        fields[0]: fields[1:]
        for fields in (line.split() for line in table_text.splitlines())
        if fields and fields[0] in ids
    }
    if sorted(table_rows) != sorted(ids):
        failures.append("audit text table does not list the 16 elements")
    else:
        for element in ids:
            row = table_rows[element]
            if (row[1], row[3]) != (verdicts[(element, "strict")], verdicts[(element, "corrected")]):
                failures.append(f"audit text verdicts for {element} differ from the JSON")
    return failures
