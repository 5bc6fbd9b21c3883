"""Exception types shared across the package."""

__all__ = [
    "ParetoTailError",
    "SingularInputError",
    "InfiniteMomentError",
    "UnsupportedOrderError",
    "CapabilityError",
]


class ParetoTailError(Exception):
    """Base class for all package errors."""


class SingularInputError(ParetoTailError):
    """A series with a vanishing constant term cannot be inverted."""


class InfiniteMomentError(ParetoTailError):
    """The requested moment does not exist (finiteness condition violated)."""


class UnsupportedOrderError(ParetoTailError):
    """Truncation order exceeds what the coefficient tables support."""


class CapabilityError(ParetoTailError):
    """The distribution does not support the requested operation."""
