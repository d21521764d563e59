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


class DomainError(TwoAtomCavityError):
    """The cube of the closed form's root scale overflows the float range."""

