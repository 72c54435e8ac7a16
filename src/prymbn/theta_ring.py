"""Numerical ring of a Prym torsor.

The ring is generated by a single divisor class (the restricted theta class
theta' on the twisted torsor, or the principal theta class xi on the
two-component torsor P+/P-), truncated above the torsor dimension.  A degree
map converts top-dimensional classes into exact rational intersection
numbers, calibrated by the top self-intersection of the generator:

    P+/P- (g >= 2):              dim g-1,  xi^(g-1)     = (g-1)!
    twisted, 2 branch points:    dim g,    theta'^g     = 2^g * g!
    twisted, 4 branch points:    dim g+1,  theta'^(g+1) = 2^g * (g+1)!

The twisted torsor of an unramified cover has dimension g-1 but no known
top self-intersection; degree queries on it fail loudly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DimensionMismatchError,
    GeneratorMismatchError,
    ParameterError,
    UnsupportedSpaceError,
    _at_least,
    _integers,
)

UNRAMIFIED_PM = "unramified_pm"
RAMIFIED_TWISTED = "ramified_twisted"

THETA_PRIME = "theta'"
XI = "xi"
GENERATORS = (THETA_PRIME, XI)


@dataclass(frozen=True)
class PrymSpace:
    """A labeled Prym torsor with its dimension and top theta degree.

    ``theta_top`` is ``None`` exactly when the top self-intersection is not
    available (the unramified twisted torsor).
    """

    flavor: str
    g: int
    k: int
    dim: int
    theta_top: Optional[int]

    @property
    def generator(self) -> str:
        """The ring generator: xi on P+/P-, theta' on the twisted torsor."""
        return XI if self.flavor == UNRAMIFIED_PM else THETA_PRIME


def _rational(q: object) -> Fraction:
    """q as a Fraction (an exact Fraction is kept, not copied); floats, strings and
    Decimals are refused, not rounded."""
    if type(q) is Fraction:
        return q
    if not isinstance(q, numbers.Rational):
        raise ParameterError(f"coefficient must be an int or a Fraction, got {q!r}")
    return Fraction(q)


@dataclass(frozen=True)
class ThetaClass:
    """An exact rational multiple of a power of the ring generator.

    The zero class is normalized to exponent 0 so that equality of values
    coincides with dataclass equality.
    """

    coeff: Fraction
    exponent: int
    generator: str = THETA_PRIME

    def __post_init__(self) -> None:
        coeff = _rational(self.coeff)
        (exponent,) = _integers("the exponent", self.exponent)
        if self.generator not in GENERATORS:
            raise ParameterError(f"unknown generator {self.generator!r}")
        if exponent < 0:
            raise ParameterError(f"exponent must be non-negative, got {exponent=}")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exponent", exponent if coeff else 0)

    def __str__(self) -> str:
        return f"{self.coeff} * {self.generator}^{self.exponent}"


# (flavor, k) -> (dimension - g, top self-intersection at genus g); None
# where the top degree is not known.
_SPACES = {
    (UNRAMIFIED_PM, 0): (-1, lambda g: math.factorial(g - 1)),
    (RAMIFIED_TWISTED, 0): (-1, None),
    (RAMIFIED_TWISTED, 1): (0, lambda g: 2**g * math.factorial(g)),
    (RAMIFIED_TWISTED, 2): (1, lambda g: 2**g * math.factorial(g + 1)),
}


def make_space(flavor: str, g: int, k: int) -> PrymSpace:
    """Build the torsor for a genus-g base curve with 2k branch points."""
    g, k = _at_least("genus must be at least 2", (2,), g=g, k=k)
    if (flavor, k) not in _SPACES:
        raise ParameterError(f"no {flavor!r} torsor with k = {k}")
    shift, top = _SPACES[flavor, k]
    return PrymSpace(flavor, g, k, g + shift, None if top is None else top(g))


def multiply(a: ThetaClass, b: ThetaClass) -> ThetaClass:
    """Product in the one-generator ring; requires matching generators."""
    if a.generator != b.generator:
        raise GeneratorMismatchError(
            f"cannot multiply {a.generator} class by {b.generator} class"
        )
    return ThetaClass(a.coeff * b.coeff, a.exponent + b.exponent, a.generator)


def degree(c: ThetaClass, s: PrymSpace) -> Fraction:
    """Evaluate a top-dimensional class against the calibrated top degree."""
    if c.generator != s.generator:
        raise GeneratorMismatchError(
            f"generator {c.generator} does not live on a {s.flavor} torsor"
        )
    if c.exponent != s.dim:
        raise DimensionMismatchError(
            f"class has exponent {c.exponent}, space has dimension {s.dim}"
        )
    if s.theta_top is None:
        raise UnsupportedSpaceError(
            "top self-intersection is not available on the unramified twisted torsor"
        )
    return c.coeff * s.theta_top


def substitute_theta_prime_as_2xi(c: ThetaClass) -> ThetaClass:
    """Rewrite a theta' class in terms of xi via theta' = 2 xi."""
    if c.generator != THETA_PRIME:
        raise GeneratorMismatchError("substitution applies to theta' classes only")
    return ThetaClass(c.coeff * 2**c.exponent, c.exponent, XI)
