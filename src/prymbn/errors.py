"""Exception hierarchy shared by all prymbn modules, and the one integer gate: _at_least
reads each integer parameter through _integers under its own name, and refuses one below
its bound as "<text>, got name=value, ...", naming every value of the call."""

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
    """values as ints, through __index__, value by value: every float, str and Fraction
    (even Fraction(4, 2)) is refused, not truncated, and so is a value whose __index__
    raises TypeError; True and False pass as 1 and 0."""
    ints = []
    for v in values:
        try:
            ints.append(operator.index(v))
        except TypeError:
            raise ParameterError(f"expected an integer for {what}, got {v!r}") from None
    return tuple(ints)


def _at_least(text: str, lows: Tuple[int, ...], **values: object) -> Tuple[int, ...]:
    """The values as ints, each at least its bound in lows; those past the end are only read."""
    try:
        ints = tuple(map(operator.index, values.values()))
    except TypeError:  # _integers refuses the first non-integer under its own name
        ints = tuple(i for name, v in values.items() for i in _integers(name, v))
    if any(map(operator.lt, ints, lows)):
        raise ParameterError(f"{text}, got " + ", ".join(map("{}={}".format, values, ints)))
    return ints
