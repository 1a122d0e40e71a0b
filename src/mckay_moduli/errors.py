"""Exception types shared across the package."""


class ModuliError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ModuliError):
    """Malformed input; the command line reports it and exits 2."""


class GroupSpecError(InputError):
    """A group specification string failed to parse.

    Carries the character position of the offending token when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotOptimal(ModuliError):
    """A linear program expected to be solvable was infeasible or unbounded."""


class CertificateError(ModuliError):
    """An optimality or consistency certificate failed its exact check."""


class PolyhedronError(ModuliError, ValueError):
    """A polyhedral routine got input outside its precondition, e.g. a non-pointed cone."""


class UnknownMethod(ModuliError, ValueError):
    """A construction method name is not one of the supported ones."""
