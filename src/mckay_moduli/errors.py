"""Exception types shared across the package."""


class ModuliError(Exception):
    """Base class for all errors raised by this package; raised bare, an internal failure."""


class InputError(ModuliError):
    """Malformed input; the command line reports it and exits 2."""


class GroupSpecError(InputError):
    """A group specification string failed to parse at the offending token's position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CertificateError(ModuliError):
    """An optimality or consistency certificate failed its exact check."""
