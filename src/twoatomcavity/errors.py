"""Exception types raised by the simulation library.

Every error that is part of an operation's contract derives from
:class:`TwoAtomCavityError`, so callers (the CLI in particular) can separate
computation failures from plain programming errors.
"""


class TwoAtomCavityError(Exception):
    """Base class for all library-specific errors."""


class NotHermitian(TwoAtomCavityError):
    """A matrix expected to be Hermitian deviates beyond tolerance."""


class ConvergenceFailure(TwoAtomCavityError):
    """The eigensolver failed to converge within its iteration budget."""


class NotNormalized(TwoAtomCavityError):
    """A state vector or amplitude pair is not normalized within tolerance."""


class DegenerateRoots(TwoAtomCavityError):
    """Two characteristic roots coincide; the closed-form weights diverge.

    Callers should fall back to the spectral propagator, which remains valid
    for degenerate spectra.
    """


class DomainError(TwoAtomCavityError):
    """An inverse-cosine argument overflows or lies outside [-1, 1] beyond round-off."""

