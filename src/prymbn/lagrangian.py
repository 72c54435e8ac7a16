"""Schur Q-tilde / P-tilde Pfaffian engine for Lagrangian degeneracy classes.

The two-row classes Q_(a,b) are integer sums over one common denominator:
with D the lcm of the denominators of c_0..c_top, each n_i = c_i D is an
integer, so Q_(a,b) D^2 is a signed sum of products n_i n_j, exact for any
rational Chern data.  A longer strict partition gives the Pfaffian of its skew
matrix of two-row classes, computed exactly by skew elimination over Fraction.
``q_tilde_table`` evaluates many partitions over one Chern series: it computes
the numerators once and each Q_(a,b) once, and ``q_tilde`` is its
one-partition use.
Evaluated at c_i = theta'^i/i!, the engine independently reproduces the
closed-form coefficients in ``formulas``; the product formula ``eval_identity``
serves as a second, Pfaffian-free oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

from .bn_numerics import VanishingSequence
from .errors import ParameterError, _at_least, _integers
from .formulas import ChernSeries, chern_series_W
from .theta_ring import THETA_PRIME, ThetaClass, substitute_theta_prime_as_2xi


@dataclass(frozen=True)
class StrictPartition:
    """Strictly decreasing positive parts lambda_1 > ... > lambda_l > 0."""

    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        parts = _integers("parts", *self.parts)
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
    """The partition (m, m-1, ..., 1); the empty partition for m = 0."""
    (m,) = _at_least("staircase needs m >= 0", (0,), m=m)
    return StrictPartition(tuple(range(m, 0, -1)))


def _numerators(c: ChernSeries, top: int) -> Tuple[List[int], int]:
    """(n, D^2), D = lcm of the denominators of c_0..c_top (refused if c stops sooner):
    the integers n_i = c_i D and the one denominator of every Q_(a,b), a + b <= top."""
    if c.truncation < top:
        raise ParameterError(f"Chern series truncated at {c.truncation}, need order {top}")
    coeffs = c.coeffs[: top + 1]
    d = math.lcm(*(q.denominator for q in coeffs))
    return [q.numerator * (d // q.denominator) for q in coeffs], d * d


def _q2_coeff(a: int, b: int, n: List[int]) -> int:
    """Q_(a,b) D^2 = n_a n_b + 2 sum_{j=1}^{b} (-1)^j n_{a+j} n_{b-j}, for n_i = c_i D."""
    total = n[a] * n[b]
    for j in range(1, b + 1):
        total += 2 * (-1) ** j * n[a + j] * n[b - j]
    return total


class _TwoRowTable(dict):
    """(a, b) -> Q_(a,b) as a Fraction, each computed on first use over one (n, D^2)."""

    def __init__(self, c: ChernSeries, top: int) -> None:
        super().__init__()
        self.n, self.d2 = _numerators(c, top)

    def __missing__(self, key: Tuple[int, int]) -> Fraction:
        q = self[key] = Fraction(_q2_coeff(*key, self.n), self.d2)
        return q


def q_two(a: int, b: int, c: ChernSeries) -> ThetaClass:
    """Two-row class Q_(a,b) = c_a c_b + 2 sum_{j=1}^{b} (-1)^j c_{a+j} c_{b-j}.

    Summed over integers n_i = c_i D and divided once by D^2 (see _numerators),
    as one entry of a two-row table.
    """
    a, b = _integers("a and b", a, b)
    if not a > b >= 0:
        raise ParameterError(f"need a > b >= 0, got a={a}, b={b}")
    return ThetaClass(_TwoRowTable(c, a + b)[a, b], a + b, THETA_PRIME)


def _pfaffian(m: List[List[Optional[Fraction]]]) -> Fraction:
    """Pfaffian of the even-order skew matrix with upper triangle m[i][j], j > i.

    Exact skew elimination in place, O(n^3) operations (Parlett-Reid; Wimmer,
    ACM TOMS Alg. 923); the 0x0 matrix gives 1.  For k = 0, 2, ... the first
    nonzero entry of row k is swapped into column k+1 (a sign flip; a zero row
    gives 0), the pivot m[k][k+1] joins the product, and pair k, k+1 is
    cleared from the rows and columns k+2 on.
    """
    n = len(m)
    result, sign = Fraction(1), 1
    for k in range(0, n, 2):
        row, a = m[k], k + 1
        b = next((j for j in range(a, n) if row[j]), None)
        if b is None:
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
        result *= pivot
        mult = [None] * (k + 2) + [row[i] / pivot for i in range(k + 2, n)]
        for i in range(k + 2, n):
            mi, ci, pi = m[i], mult[i], pivot_row[i]
            for j in range(i + 1, n):
                mi[j] += mult[j] * pi - ci * pivot_row[j]
    return result if sign == 1 else -result


def q_tilde_table(lams: Iterable[StrictPartition], c: ChernSeries) -> List[ThetaClass]:
    """Q-tilde of each partition in lams, over one table of two-row classes.

    The table reaches order max lambda_1 + lambda_2 over lams (_numerators refuses a
    shorter Chern series); its numerators and each Q_(a,b) are computed once, on first
    use.  Every partition gets a fresh matrix: the Pfaffian rewrites it in place.
    """
    lams = list(lams)
    table = _TwoRowTable(c, max((sum(lam.parts[:2]) for lam in lams), default=0))
    classes = []
    for lam in lams:
        parts = lam.parts + (0,) * (lam.length % 2)
        m = [[None] * (i + 1) + [table[a, b] for b in parts[i + 1 :]]
             for i, a in enumerate(parts)]
        classes.append(ThetaClass(_pfaffian(m), lam.weight, THETA_PRIME))
    return classes


def q_tilde(lam: StrictPartition, c: ChernSeries) -> ThetaClass:
    """Schur Q-tilde class: the Pfaffian of the two-row classes Q_(lambda_i, lambda_j).

    Odd lengths get a zero part (Q_(a,0) = c_a), and the empty partition gives 1.
    Requires c truncated at lambda_1 + lambda_2 or later: Q_(a,b) reads c up to a + b.
    A one-partition use of q_tilde_table.
    """
    return q_tilde_table([lam], c)[0]


def p_tilde(lam: StrictPartition, c: ChernSeries) -> ThetaClass:
    """Q-tilde divided by 2^length; the quadratic-form normalization."""
    q = q_tilde(lam, c)
    return ThetaClass(q.coeff / 2**lam.length, q.exponent, q.generator)


def partition_for(a: VanishingSequence) -> StrictPartition:
    """Degeneracy ranks of a pointed vanishing sequence: parts a_i + 1, descending."""
    return StrictPartition(tuple(ai + 1 for ai in reversed(a.entries)))


def _at_W(f: Callable[..., ThetaClass], lam: StrictPartition) -> ThetaClass:
    """f(lam, c), c_i = theta'^i/i! up to lambda_1 + lambda_2: as far as q_tilde reads."""
    return f(lam, chern_series_W(sum(lam.parts[:2])))


def lagrangian_class_pointed(a: VanishingSequence) -> ThetaClass:
    """Engine value of the pointed twisted class: Q-tilde at c_i = theta'^i/i!."""
    return _at_W(q_tilde, partition_for(a))


def lagrangian_class_twisted(r: int) -> ThetaClass:
    """Engine value of the twisted class: Q-tilde at the staircase of length r+1."""
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    return _at_W(q_tilde, staircase(r + 1))


def lagrangian_class_unramified(r: int) -> ThetaClass:
    """Engine value of the P+/P- class: P-tilde at staircase(r) in xi (1 at r = 0)."""
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    return substitute_theta_prime_as_2xi(_at_W(p_tilde, staircase(r)))


def eval_identity(lam: StrictPartition) -> Fraction:
    """Closed-form evaluation of Q-tilde at c_i = 1/i!, as one integer ratio:

    prod_{i<j} (lambda_i-lambda_j) / (prod_i lambda_i! * prod_{i<j} (lambda_i+lambda_j)).
    """
    parts = lam.parts
    pairs = [(x, y) for i, x in enumerate(parts) for y in parts[i + 1 :]]
    num = math.prod(x - y for x, y in pairs)
    den = math.prod(map(math.factorial, parts)) * math.prod(x + y for x, y in pairs)
    return Fraction(num, den)
