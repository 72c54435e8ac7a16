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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DimensionMismatchError,
    GeneratorMismatchError,
    ParameterError,
    UnsupportedSpaceError,
)

UNRAMIFIED_PM = "unramified_pm"
RAMIFIED_TWISTED = "ramified_twisted"
FLAVORS = (UNRAMIFIED_PM, RAMIFIED_TWISTED)

THETA_PRIME = "theta_prime"
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
        coeff = Fraction(self.coeff)
        object.__setattr__(self, "coeff", coeff)
        if self.generator not in GENERATORS:
            raise ParameterError(f"unknown generator {self.generator!r}")
        if self.exponent < 0:
            raise ParameterError("exponent must be non-negative")
        if coeff == 0 and self.exponent != 0:
            object.__setattr__(self, "exponent", 0)

    def __str__(self) -> str:
        name = "theta'" if self.generator == THETA_PRIME else "xi"
        return f"{self.coeff} * {name}^{self.exponent}"


def make_space(flavor: str, g: int, k: int) -> PrymSpace:
    """Build the torsor for a genus-g base curve with 2k branch points."""
    if flavor not in FLAVORS:
        raise ParameterError(f"unknown flavor {flavor!r}")
    if g < 2:
        raise ParameterError(f"genus must be at least 2, got {g}")
    if k not in (0, 1, 2):
        raise ParameterError(f"k must be 0, 1 or 2, got {k}")

    if flavor == UNRAMIFIED_PM:
        if k != 0:
            raise ParameterError("the P+/P- torsor requires k = 0")
        return PrymSpace(flavor, g, k, dim=g - 1, theta_top=math.factorial(g - 1))

    if k == 1:
        return PrymSpace(flavor, g, k, dim=g, theta_top=2**g * math.factorial(g))
    if k == 2:
        return PrymSpace(
            flavor, g, k, dim=g + 1, theta_top=2**g * math.factorial(g + 1)
        )
    # k == 0: dimension is known, the top degree is not.
    return PrymSpace(flavor, g, k, dim=g - 1, theta_top=None)


def multiply(a: ThetaClass, b: ThetaClass) -> ThetaClass:
    """Product in the one-generator ring; requires matching generators."""
    if a.generator != b.generator:
        raise GeneratorMismatchError(
            f"cannot multiply {a.generator} class by {b.generator} class"
        )
    return ThetaClass(a.coeff * b.coeff, a.exponent + b.exponent, a.generator)


def _generator_for(space: PrymSpace) -> str:
    return XI if space.flavor == UNRAMIFIED_PM else THETA_PRIME


def degree(c: ThetaClass, s: PrymSpace) -> Fraction:
    """Evaluate a top-dimensional class against the calibrated top degree."""
    if c.generator != _generator_for(s):
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
