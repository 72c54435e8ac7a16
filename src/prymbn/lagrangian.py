"""Schur Q-tilde / P-tilde Pfaffian engine for Lagrangian degeneracy classes.

The two-row classes Q_(a,b) are built directly from the Chern data; longer
strict partitions are reduced by Laplace-type Pfaffian expansion.  Evaluated
at the Chern series c_i = theta'^i/i!, the engine independently reproduces
the closed-form coefficients in ``formulas``; the product formula
``eval_identity`` serves as a second, recursion-free oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .bn_numerics import VanishingSequence
from .errors import ParameterError
from .formulas import ChernSeries, chern_series_W
from .theta_ring import THETA_PRIME, ThetaClass


@dataclass(frozen=True)
class StrictPartition:
    """Strictly decreasing positive parts lambda_1 > ... > lambda_l > 0."""

    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 1 for p in parts):
            raise ParameterError(f"parts must be positive: {parts}")
        if any(x <= y for x, y in zip(parts, parts[1:])):
            raise ParameterError(f"parts must strictly decrease: {parts}")

    @classmethod
    def of(cls, *parts: int) -> "StrictPartition":
        return cls(tuple(parts))

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)


def staircase(m: int) -> StrictPartition:
    """The partition (m, m-1, ..., 1)."""
    if m < 1:
        raise ParameterError("staircase needs m >= 1")
    return StrictPartition(tuple(range(m, 0, -1)))


def _check_truncation(c: ChernSeries, needed: int) -> None:
    if c.truncation < needed:
        raise ParameterError(
            f"Chern series truncated at {c.truncation}, need order {needed}"
        )


def _q2_coeff(a: int, b: int, coeffs: Tuple[Fraction, ...]) -> Fraction:
    total = coeffs[a] * coeffs[b]
    for j in range(1, b + 1):
        total += 2 * (-1) ** j * coeffs[a + j] * coeffs[b - j]
    return total


def q_two(a: int, b: int, c: ChernSeries) -> ThetaClass:
    """Two-row class Q_(a,b) = c_a c_b + 2 sum_{j=1}^{b} (-1)^j c_{a+j} c_{b-j}."""
    if not a > b >= 0:
        raise ParameterError(f"need a > b >= 0, got a={a}, b={b}")
    _check_truncation(c, a + b)
    return ThetaClass(_q2_coeff(a, b, c.coeffs), a + b, THETA_PRIME)


def _pfaffian(parts: Tuple[int, ...], table: Dict[Tuple[int, int], Fraction]) -> Fraction:
    """First-row Pfaffian expansion of the skew matrix table[p, q] over parts."""
    if len(parts) == 2:
        return table[parts]
    total = Fraction(0)
    for i in range(1, len(parts)):
        rest = parts[1:i] + parts[i + 1 :]
        sign = -1 if i % 2 == 0 else 1
        total += sign * table[parts[0], parts[i]] * _pfaffian(rest, table)
    return total


def q_tilde(lam: StrictPartition, c: ChernSeries, expand_row: int = 0) -> ThetaClass:
    """Schur Q-tilde class of a strict partition in the given Chern data.

    ``expand_row`` selects the Pfaffian row for the outermost expansion;
    the result is independent of the choice (exercised by the tests).
    """
    _check_truncation(c, lam.weight)
    parts = lam.parts
    if len(parts) % 2 == 1:
        parts = parts + (0,)  # padding part: Q_(a,0) = c_a
    if not 0 <= expand_row < len(parts):
        raise ParameterError(f"row {expand_row} out of range for {parts}")
    # The skew matrix Q_(a,b) = -Q_(b,a), built once; parts are distinct.
    table = {}
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            table[a, b] = _q2_coeff(a, b, c.coeffs)
            table[b, a] = -table[a, b]
    # Moving row and column i to the front is conjugation by a cycle of
    # sign (-1)^i, which scales the Pfaffian by that sign.
    reordered = (parts[expand_row],) + parts[:expand_row] + parts[expand_row + 1 :]
    sign = -1 if expand_row % 2 == 1 else 1
    coeff = sign * _pfaffian(reordered, table)
    return ThetaClass(coeff, lam.weight, THETA_PRIME)


def p_tilde(lam: StrictPartition, c: ChernSeries) -> ThetaClass:
    """Q-tilde divided by 2^length; the quadratic-form normalization."""
    q = q_tilde(lam, c)
    return ThetaClass(q.coeff / 2**lam.length, q.exponent, q.generator)


def partition_for(a: VanishingSequence) -> StrictPartition:
    """Degeneracy ranks of a pointed vanishing sequence: parts a_i + 1, descending."""
    return StrictPartition(tuple(ai + 1 for ai in reversed(a.entries)))


def lagrangian_class_pointed(a: VanishingSequence) -> ThetaClass:
    """Engine value of the pointed twisted class: Q-tilde at c_i = theta'^i/i!."""
    lam = partition_for(a)
    return q_tilde(lam, chern_series_W(lam.weight))


def eval_identity(lam: StrictPartition) -> Fraction:
    """Closed-form evaluation of Q-tilde at c_i = 1/i!:

    prod_i 1/lambda_i! * prod_{i<j} (lambda_i-lambda_j)/(lambda_i+lambda_j).
    """
    coeff = Fraction(1)
    for p in lam.parts:
        coeff /= math.factorial(p)
    parts = lam.parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            coeff *= Fraction(parts[i] - parts[j], parts[i] + parts[j])
    return coeff
