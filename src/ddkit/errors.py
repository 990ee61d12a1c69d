"""Exception types shared across ddkit, and the integer check of the
library's boundary."""

import operator


class DDKitError(Exception):
    """Base class for all ddkit errors."""


class PreconditionError(DDKitError, ValueError):
    """An input violates a documented precondition of an operation."""


class UnfittableError(DDKitError):
    """A scaling fit could not be produced from the surviving data points."""


def as_index(value, name: str) -> int:
    """``value`` as an int, by ``operator.index``: an integer is taken, and
    anything else (a float, a string) is a ``PreconditionError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer, got {value!r}") from None
