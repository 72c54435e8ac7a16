"""Exception hierarchy shared by all prymbn modules, and the one integer check."""

import operator
from typing import Tuple


class PrymBNError(Exception):
    """Base class for all errors raised by prymbn."""


class ParameterError(PrymBNError, ValueError):
    """Invalid or unsupported input parameters."""


class GeneratorMismatchError(PrymBNError):
    """Arithmetic attempted between classes written in different generators."""


class DimensionMismatchError(PrymBNError):
    """Class exponent does not match the dimension of the ambient space."""


class UnsupportedSpaceError(PrymBNError):
    """Query requires a top self-intersection number that is not available."""


class IntegralityError(PrymBNError):
    """A quantity that must be an integer evaluated to a proper fraction."""


class InvariantViolationError(PrymBNError):
    """An internal cross-check failed; signals a wrong constraint encoding."""


def _integers(what: str, *values: object) -> Tuple[int, ...]:
    """values as ints, through __index__: every float, str and Fraction (even
    Fraction(4, 2)) is refused, not truncated; True and False pass as 1 and 0."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(v, "__index__"))
        raise ParameterError(f"expected an integer for {what}, got {bad!r}") from None
