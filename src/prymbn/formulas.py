"""Closed-form class coefficients and point counts.

All products are evaluated with exact factorials and reduced rationals; the
closed forms themselves are the ground truth that the Pfaffian engine in
``lagrangian`` is checked against, so no algebraic simplification is
attempted here beyond rational reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Tuple

from . import theta_ring
from .bn_numerics import VanishingSequence
from .errors import IntegralityError, ParameterError
from .theta_ring import THETA_PRIME, XI, PrymSpace, ThetaClass, _rational


@dataclass(frozen=True)
class ChernSeries:
    """Truncated Chern data: coeffs[i] is the rational q_i in c_i = q_i * theta^i."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(_rational, self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ParameterError("a Chern series must start with q_0 = 1")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]


def chern_series_W(n: int) -> ChernSeries:
    """Chern series of the dual section bundle: c_i = theta'^i / i!."""
    if n < 0:
        raise ParameterError("truncation order must be non-negative")
    factorials = accumulate(range(1, n + 1), mul, initial=1)
    return ChernSeries(tuple(Fraction(1, f) for f in factorials))


def twisted_class(r: int) -> ThetaClass:
    """Class of the rank-(r+1) twisted locus:

    prod_{i=1}^{r+1} i!/(2i)! * theta'^((r+1)(r+2)/2).
    """
    if r < 0:
        raise ParameterError("rank must be non-negative")
    coeff = Fraction(1)
    for i in range(1, r + 2):
        coeff *= Fraction(math.factorial(i), math.factorial(2 * i))
    return ThetaClass(coeff, (r + 1) * (r + 2) // 2, THETA_PRIME)


def twisted_pointed_class(a: VanishingSequence) -> ThetaClass:
    """Class of the pointed twisted locus with vanishing sequence a:

    prod_i 1/(a_i+1)! * prod_{j<i} (a_i-a_j)/(a_i+a_j+2) * theta'^(|a|+r+1).
    """
    coeff = Fraction(1)
    for ai in a:
        coeff /= math.factorial(ai + 1)
    entries = a.entries
    for i in range(len(entries)):
        for j in range(i):
            coeff *= Fraction(entries[i] - entries[j], entries[i] + entries[j] + 2)
    return ThetaClass(coeff, a.weight + a.r + 1, THETA_PRIME)


def unramified_class(r: int) -> ThetaClass:
    """Class of the rank-r norm-omega locus on P+/P-:

    2^(r(r+1)/2) * prod_{i=1}^{r} i!/(2i)! * xi^(r(r+1)/2).
    """
    if r < 0:
        raise ParameterError("rank must be non-negative")
    coeff = Fraction(2) ** (r * (r + 1) // 2)
    for i in range(1, r + 1):
        coeff *= Fraction(math.factorial(i), math.factorial(2 * i))
    return ThetaClass(coeff, r * (r + 1) // 2, XI)


def count_points(cls: ThetaClass, space: PrymSpace) -> int:
    """Point count of a zero-dimensional locus; refuses non-integer degrees."""
    value = theta_ring.degree(cls, space)
    if value.denominator != 1:
        raise IntegralityError(
            f"degree evaluated to the non-integer {value}; the calibration is wrong"
        )
    return int(value)
