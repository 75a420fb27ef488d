"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ArithmeticOverflowError", "DivisibilityError", "QlabError", "ValidationError"]


class QlabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QlabError):
    """An argument violates a documented precondition."""


class ArithmeticOverflowError(QlabError):
    """A term lies outside the 64-bit range in fast64 mode.

    ``index`` is the 1-based position of that term: an initial term, or a
    computed one that could not be stored.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"64-bit overflow while computing term {index}")


class DivisibilityError(QlabError):
    """An exact-division step in the structure profile failed.

    Raised when a quantity that the theory requires to be divisible by a
    power of 5 is not; this indicates an input outside the theory's domain
    or an internal inconsistency, so callers should treat it as fatal.
    """
