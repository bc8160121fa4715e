"""Exception types shared across the package, and the names of the
verification suites, which the CLI parser reads without importing `verify`."""

__all__ = ["SUITE_NAMES", "EllipBoundsError", "DomainError", "DivergenceError",
           "InvalidBoundError", "ConfigurationError", "VerificationError"]

SUITE_NAMES = ("lemmas", "sharpness", "remarks", "all")


class EllipBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EllipBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested value diverges, e.g. K(r) as r -> 1."""


class InvalidBoundError(EllipBoundsError, ValueError):
    """A parametric bound was requested with parameters on neither valid side
    of its sharp constants."""


class ConfigurationError(EllipBoundsError, ValueError):
    """A request is structurally unusable: empty candidate list, unknown
    function identifier, missing bound side."""


class VerificationError(EllipBoundsError, RuntimeError):
    """A numerical check contradicted the claim it was verifying."""
