"""Exception types shared across the package."""


class ModuliError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ModuliError):
    """Malformed input; the command line reports it and exits 2."""


class BadShape(InputError):
    """Input matrix or vector has the wrong dimensions."""


class NonGenerating(InputError):
    """The given weight characters do not generate the character group."""


class NotInM(InputError):
    """An exponent vector does not lie in the weight-trivial sublattice."""


class BadTheta(InputError):
    """A stability parameter fails validation (shape, integrality, or sum)."""


class NegativeW(InputError):
    """A cone-locating parameter w has a negative entry."""


class TrivialGroup(InputError):
    """The requested construction needs a nontrivial group."""


class MismatchedDescriptions(ModuliError):
    """An H-description and a V-description do not describe the same set."""


class OutsideSupport(InputError):
    """A query vector lies outside the support of the fan."""


class NotOptimal(ModuliError):
    """A linear program expected to be solvable was infeasible or unbounded."""


class GroupSpecError(InputError):
    """A group specification string failed to parse.

    Carries the character position of the offending token when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CertificateError(ModuliError):
    """An optimality or consistency certificate failed its exact check."""


class PolyhedronError(ModuliError, ValueError):
    """A polyhedral routine got input outside its precondition, e.g. a non-pointed cone."""


class UnknownMethod(ModuliError, ValueError):
    """A construction method name is not one of the supported ones."""
