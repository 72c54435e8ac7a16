"""What every prymbn module shares: the exception hierarchy; the one integer gate, _at_least,
which reads each integer parameter through _integers under its own name and refuses one
below its bound as "<text>, got name=value, ..."; and _Record, the base of the value types."""

from __future__ import annotations

import operator


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


def _integers(what: str, *values: object) -> tuple[int, ...]:
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


def _at_least(text: str, lows: tuple[int, ...], **values: object) -> tuple[int, ...]:
    """The values as ints, each at least its bound in lows; those past the end are only read."""
    try:
        ints = tuple(map(operator.index, values.values()))
    except TypeError:  # _integers refuses the first non-integer under its own name
        ints = tuple(i for name, v in values.items() for i in _integers(name, v))
    if any(map(operator.lt, ints, lows)):
        raise ParameterError(f"{text}, got " + ", ".join(map("{}={}".format, values, ints)))
    return ints


class _Record:
    """An immutable value in __slots__: a subclass's __init__ gates its arguments and stores
    them once, in slot order, with _store.  Equal only in its class; copy and pickle re-gate."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls.__slots__)  # all that == and hash read
        cls._setters = [vars(cls)[name].__set__ for name in cls.__slots__]  # past __setattr__

    def _store(self, *values: object) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        key = self._key
        return key(self) == key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), tuple(self._fields().values())
