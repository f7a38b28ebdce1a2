"""Exception types shared across the package, and its one integer-argument check."""

import numbers


class MatnormError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MatnormError, ValueError):
    """Malformed input: wrong shape, ragged blocks, non-finite entries."""


class DegenerateInputError(MatnormError, ValueError):
    """Structurally valid input for which the operation is undefined."""


class InconsistencyError(MatnormError):
    """A certified lower bound exceeded an upper bound.

    Either a genuine bug or an infeasible catalog couple; both certificates
    are attached so the failure can be reproduced: ``couple`` is worth
    ``lower`` and ``upper_certificate`` is worth ``upper``.
    """

    def __init__(self, message, *, lower=None, upper=None, couple=None, upper_certificate=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.couple = couple
        self.upper_certificate = upper_certificate


def require_int(name: str, value, low: int) -> None:
    """Raise ``InvalidInputError`` unless ``value`` is an integer (numpy's too, not bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidInputError(f"{name} must be an integer of at least {low}, got {value!r}")
