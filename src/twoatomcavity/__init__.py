"""Dynamics of two identical two-level atoms coupled to a single-mode cavity.

The package simulates the exact evolution of the coupled atoms-field system
prepared with a definite photon number: level populations, the reduced
two-atom density matrix, its entanglement degree (negativity), and a
classification of the entangled state it approaches.  A closed-form
single-excitation-block propagator is provided alongside the numerically
exact spectral one, together with an audit comparing the two element by
element.
"""
from .dynamics import (
    SeriesColumns,
    average_negativity,
    first_negativity_zero,
    negativity_zero_count,
    populations,
    time_series,
)
from .entanglement import ClassMatch, classify, negativity
from .errors import (
    ConvergenceFailure,
    DegenerateRoots,
    DomainError,
    NotHermitian,
    NotNormalized,
    TwoAtomCavityError,
)
from .linalg import (
    HermitianEigensystem,
    eig_hermitian,
    expm_i_hermitian,
    partial_trace_field,
    partial_transpose,
)
from .model import (
    SpectralQuantities,
    SystemParams,
    TwoAtomAmplitudes,
    full_hamiltonian,
    named_atomic_state,
    spectral_quantities,
    subspace_hamiltonian,
)
from .propagator import (
    AuditReport,
    audit_closed_form,
    propagate_closed_form,
    propagate_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ClassMatch",
    "ConvergenceFailure",
    "DegenerateRoots",
    "DomainError",
    "HermitianEigensystem",
    "NotHermitian",
    "NotNormalized",
    "SeriesColumns",
    "SpectralQuantities",
    "SystemParams",
    "TwoAtomAmplitudes",
    "TwoAtomCavityError",
    "audit_closed_form",
    "average_negativity",
    "classify",
    "eig_hermitian",
    "expm_i_hermitian",
    "first_negativity_zero",
    "full_hamiltonian",
    "named_atomic_state",
    "negativity",
    "negativity_zero_count",
    "partial_trace_field",
    "partial_transpose",
    "populations",
    "propagate_closed_form",
    "propagate_spectral",
    "spectral_quantities",
    "subspace_hamiltonian",
    "time_series",
    "__version__",
]
