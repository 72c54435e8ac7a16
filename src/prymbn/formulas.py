"""Closed-form class coefficients and point counts.

Each coefficient is one exact integer ratio, reduced once.  Since
i!/(2i)! = 1/(2^i (2i-1)!!), a staircase product of factorial ratios is a
power of 2 over a product of double factorials; the pointed class multiplies
its pair factors into one numerator and one denominator.  Both are integer
identities; the tests check them against the literal factor-by-factor
products at every staircase rank and on the sequences that the goldens,
``verify`` and the benchmark use.  They stay the engine's ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul
from typing import Tuple

from . import theta_ring
from .bn_numerics import VanishingSequence
from .errors import IntegralityError, ParameterError, _at_least
from .theta_ring import THETA_PRIME, XI, PrymSpace, ThetaClass, _rational


@dataclass(frozen=True)
class ChernSeries:
    """Truncated Chern data: coeffs[i] is the rational q_i in c_i = q_i * theta^i."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(_rational, self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 1:
            got = f"q_0={coeffs[0]}" if coeffs else "coeffs=()"
            raise ParameterError(f"a Chern series must start with q_0 = 1, got {got}")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]


def chern_series_W(n: int) -> ChernSeries:
    """Chern series of the dual section bundle: c_i = theta'^i / i!."""
    (n,) = _at_least("truncation order must be non-negative", (0,), n=n)
    factorials = accumulate(range(1, n + 1), mul, initial=1)
    return ChernSeries(tuple(Fraction(1, f) for f in factorials))


def _double_factorials(n: int) -> int:
    """prod_{i=1}^{n} (2i-1)!! = 1 * (1*3) * (1*3*5) * ...; 1 for n = 0."""
    return math.prod(accumulate(range(1, 2 * n, 2), mul))


def twisted_class(r: int) -> ThetaClass:
    """Class of the rank-(r+1) twisted locus, with e = (r+1)(r+2)/2:

    prod_{i=1}^{r+1} i!/(2i)! * theta'^e = theta'^e / (2^e prod_{i=1}^{r+1} (2i-1)!!).
    """
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    e = (r + 1) * (r + 2) // 2
    return ThetaClass(Fraction(1, 2**e * _double_factorials(r + 1)), e, THETA_PRIME)


def twisted_pointed_class(a: VanishingSequence) -> ThetaClass:
    """Class of the pointed twisted locus with vanishing sequence a:

    prod_i 1/(a_i+1)! * prod_{j<i} (a_i-a_j)/(a_i+a_j+2) * theta'^(|a|+r+1).
    """
    pairs = list(combinations(a.entries, 2))  # (a_j, a_i) with j < i
    num = math.prod(ai - aj for aj, ai in pairs)
    den = math.prod(math.factorial(ai + 1) for ai in a)
    den *= math.prod(ai + aj + 2 for aj, ai in pairs)
    return ThetaClass(Fraction(num, den), a.weight + a.r + 1, THETA_PRIME)


def unramified_class(r: int) -> ThetaClass:
    """Class of the rank-r norm-omega locus on P+/P-, with e = r(r+1)/2:

    2^e prod_{i=1}^{r} i!/(2i)! * xi^e = xi^e / prod_{i=1}^{r} (2i-1)!!.
    """
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    return ThetaClass(Fraction(1, _double_factorials(r)), r * (r + 1) // 2, XI)


def count_points(cls: ThetaClass, space: PrymSpace) -> int:
    """Point count of a zero-dimensional locus; refuses non-integer degrees."""
    value = theta_ring.degree(cls, space)
    if value.denominator != 1:
        raise IntegralityError(
            f"degree evaluated to the non-integer {value}; the calibration is wrong"
        )
    return int(value)
