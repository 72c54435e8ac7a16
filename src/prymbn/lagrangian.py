"""Schur Q-tilde / P-tilde Pfaffian engine for Lagrangian degeneracy classes.

The two-row classes Q_(a,b) are built directly from the Chern data; a longer
strict partition gives the Pfaffian of its skew matrix of two-row classes,
computed exactly by skew elimination.  Evaluated at the Chern series
c_i = theta'^i/i!, the engine independently reproduces the closed-form
coefficients in ``formulas``; the product formula ``eval_identity`` serves as
a second, Pfaffian-free oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .bn_numerics import VanishingSequence
from .errors import ParameterError
from .formulas import ChernSeries, chern_series_W
from .theta_ring import THETA_PRIME, XI, ThetaClass, substitute_theta_prime_as_2xi


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
    """Pfaffian of the skew matrix m[i][j] = table[parts[i], parts[j]], exactly.

    Skew elimination in O(n^3) exact operations (Parlett-Reid; Wimmer, ACM
    TOMS Alg. 923): rows k, k+1 form the pivot pair for k = 0, 2, 4, ....
    The first nonzero entry of row k is brought to column k+1 by swapping
    rows and columns, which flips the sign; a zero row makes the Pfaffian 0.
    The pivot m[k][k+1] joins the product, and the rows and columns from
    k+2 on are cleared of pair k, k+1 with the multipliers m[k][i] / pivot.
    Only the upper triangle is stored and updated.
    """
    n = len(parts)
    m = [[None] * (i + 1) + [table[p, q] for q in parts[i + 1 :]] for i, p in enumerate(parts)]
    sign = 1
    for k in range(0, n, 2):
        row, a = m[k], k + 1
        b = a
        while not row[b]:
            b += 1
            if b == n:
                return Fraction(0)
        if b != a:
            row[a], row[b] = row[b], row[a]
            for t in range(a + 1, b):
                m[a][t], m[t][b] = -m[t][b], -m[a][t]
            for t in range(b + 1, n):
                m[a][t], m[b][t] = m[b][t], m[a][t]
            m[a][b] = -m[a][b]
            sign = -sign
        pivot, pivot_row = row[a], m[a]
        result = pivot if k == 0 else result * pivot
        mult = [None] * (k + 2) + [row[i] / pivot for i in range(k + 2, n)]
        for i in range(k + 2, n):
            mi, ci, pi = m[i], mult[i], pivot_row[i]
            for j in range(i + 1, n):
                mi[j] += mult[j] * pi - ci * pivot_row[j]
    return result if sign == 1 else -result


def q_tilde(lam: StrictPartition, c: ChernSeries, expand_row: int = 0) -> ThetaClass:
    """Schur Q-tilde class of a strict partition in the given Chern data.

    ``expand_row`` moves that row and column of the skew matrix to the
    front before elimination, with the sign of that permutation; the result
    is independent of the choice (exercised by the tests).
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


def lagrangian_class_twisted(r: int) -> ThetaClass:
    """Engine value of the twisted class: Q-tilde at the staircase of length r+1."""
    lam = staircase(r + 1)
    return q_tilde(lam, chern_series_W(lam.weight))


def lagrangian_class_unramified(r: int) -> ThetaClass:
    """Engine value of the P+/P- class: P-tilde at staircase(r) in xi; 1 if r < 1."""
    if r < 1:
        return ThetaClass(Fraction(1), 0, XI)
    lam = staircase(r)
    return substitute_theta_prime_as_2xi(p_tilde(lam, chern_series_W(lam.weight)))


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
