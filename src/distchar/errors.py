"""The exception type and the integer-argument check shared across the package."""

import numbers


class DomainError(ValueError):
    """An operation was invoked outside its mathematical domain.

    Raised for malformed inputs (empty vectors, non-finite entries, shape
    mismatches) and for parameter values the underlying definitions do not
    cover (p < 1, removing the only column, and so on).
    """


def require_integers(**named) -> None:
    """Raise DomainError unless every named value is an integer (a count)."""
    for name, value in named.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
