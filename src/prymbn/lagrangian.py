"""Schur Q-tilde / P-tilde Pfaffian engine for Lagrangian degeneracy classes.

The two-row classes Q_(a,b) are integer sums over one common denominator:
``_two_row`` calls a rule c, such as ``chern_series_W``, once at the table's order, takes D
as the lcm of the denominators of c_0..c_top and builds each integer n_i = c_i D on its
first read, so Q_(a,b) D^2 is a signed sum of products
n_i n_j, exact for any rational Chern data.  A longer strict partition gives the
Pfaffian of its skew matrix of those integers, divided once by D^(2 pairs).
``q_tilde_table`` is the one evaluator and picks one of three rules per partition: a
table of several partitions expands each along its first row in ints over one shared
memo; a lone partition is eliminated, fraction-free in ints while padded length *
bits(D^2) is at most _FRACTION_FREE_BITS and in Fraction beyond.  ``q_tilde``,
``q_two`` and ``p_tilde`` are its one-partition uses.
Evaluated at c_i = theta'^i/i!, the engine reproduces the closed-form
coefficients in ``formulas``; the product formula ``eval_identity`` is the
Pfaffian-free reference for one partition, the pointed closed form of
``formulas`` at lambda_i = a_i + 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache

from .bn_numerics import VanishingSequence
from .errors import ParameterError, _at_least, _integers, _Record
from .formulas import ChernSeries, chern_series_W
from .theta_ring import THETA_PRIME, ThetaClass, substitute_theta_prime_as_2xi


class StrictPartition(_Record):
    """Strictly decreasing positive parts lambda_1 > ... > lambda_l > 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = _integers("parts", *parts)
        if any(p < 1 for p in parts):
            raise ParameterError(f"parts must be positive: {parts}")
        if any(x <= y for x, y in zip(parts, parts[1:])):
            raise ParameterError(f"parts must strictly decrease: {parts}")
        self._store(parts)

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


def _two_row(c: ChernSeries | Callable[[int], ChernSeries],
             top: int) -> tuple[Callable[[int, int], int], int]:
    """(q2, D^2), D = lcm of the denominators of c_0..c_top; a rule c is called once, at top,
    and a series that stops sooner is refused.  q2(a, b) = Q_(a,b) D^2 for a + b <= top,
    memoized, over n(i) = c_i D, each built on its first read (a sparse partition reads few)."""
    c = c(top) if callable(c) else c
    if c.truncation < top:
        raise ParameterError(f"Chern series truncated at {c.truncation}, need order {top}")
    d = math.lcm(*(q.denominator for q in c.coeffs[: top + 1]))
    n = cache(lambda i: c.coeffs[i].numerator * (d // c.coeffs[i].denominator))
    return cache(lambda a, b: _q2_coeff(a, b, n)), d * d


def _q2_coeff(a: int, b: int, n: Callable[[int], int]) -> int:
    """Q_(a,b) D^2 = n_a n_b + 2 sum_{j=1}^{b} (-1)^j n_{a+j} n_{b-j}, for n(i) = c_i D."""
    total = n(a) * n(b)
    for j in range(1, b + 1):
        total += 2 * (-1) ** j * n(a + j) * n(b - j)
    return total


# A lone partition is eliminated in ints while padded length * bits(D^2) is up to this:
# the integer minors grow with both, and past about 10,000 the Fraction rule is faster.
_FRACTION_FREE_BITS = 8000


def _pfaffian(m: list[list[int | Fraction | None]], fraction_free: bool) -> int | Fraction:
    """Pfaffian of the even-order skew matrix with upper triangle m[i][j], j > i.

    Exact skew elimination in place, O(n^3) operations, which q_tilde_table runs on a lone
    partition.  For k = 0, 2, ..., n - 4 a zero pivot m[k][k+1] gets row and column b, the first
    with m[k][b] != 0, added to k+1: det 1, and both rules are linear in each row and its column,
    so Pf is unchanged (a zero row gives 0).  Then p = m[k][k+1] clears pair k, k+1 by one of:
    - Fraction (Parlett-Reid; Wimmer, ACM TOMS Alg. 923): multipliers m[k][i] / p, and p
      joins the product;
    - fraction_free, in ints (Knuth, "Overlapping Pfaffians"; Galbiati-Maffioli):
      m[i][j] = (p m[i][j] - m[k][i] m[k+1][j] + m[k][j] m[k+1][i]) // prev, with prev the
      pivot of the step before (1 at the first).  The entry is then the Pfaffian of the
      principal minor on {0..k+1, i, j}, so the division is exact and the product stays 1.
    It stops at the last pivot, m[n-2][n-1] (1 at order 0), which closes the product.
    """
    n = len(m)
    result, prev = 1, 1
    for k in range(0, n - 2, 2):
        row, a = m[k], k + 1
        if not row[a]:  # add row and column b, with m[k][b] != 0, to a: det 1, so Pf is unchanged
            b = next((j for j in range(a + 1, n) if row[j]), None)
            if b is None:
                return 0
            row[a] = row[b]
            for t in range(a + 1, b):
                m[a][t] -= m[t][b]
            for t in range(b + 1, n):
                m[a][t] += m[b][t]
        p, pivot_row = row[a], m[a]
        if fraction_free:
            for i in range(k + 2, n):
                mi, ri, si = m[i], row[i], pivot_row[i]
                for j in range(i + 1, n):
                    mi[j] = (p * mi[j] - ri * pivot_row[j] + row[j] * si) // prev
            prev = p
        else:
            result, inverse = result * p, Fraction(1, p)
            mult = [None] * (k + 2) + [row[i] * inverse for i in range(k + 2, n)]
            for i in range(k + 2, n):
                mi, ci, pi = m[i], mult[i], pivot_row[i]
                for j in range(i + 1, n):
                    mi[j] += mult[j] * pi - ci * pivot_row[j]
    return result * (m[n - 2][n - 1] if n else 1)


def _expand(parts: tuple[int, ...], q2: Callable[[int, int], int], memo: dict) -> int:
    """Pf(Q_(p_i,p_j)) D^(2 pairs) of the even-length parts p by its first row (Macdonald,
    III.8): the sum over the later parts b, the j-th from 0, of (-1)^j Q_(p_1,b) D^2 times
    the value at p without p_1 and b, read from or added to memo (which holds () -> 1)."""
    if parts not in memo:
        a, rest = parts[0], parts[1:]
        memo[parts] = sum((-1) ** j * q2(a, b) * _expand(rest[:j] + rest[j + 1 :], q2, memo)
                          for j, b in enumerate(rest))
    return memo[parts]


def q_tilde_table(lams: Iterable[StrictPartition],
                  c: ChernSeries | Callable[[int], ChernSeries]) -> list[ThetaClass]:
    """Q-tilde of each partition in lams, over one Chern series: the one evaluator.

    Odd lengths get a zero part (Q_(a,0) = c_a), and the empty partition gives 1.  One call
    reads c to order max lambda_1 + lambda_2 over lams through _two_row, which sizes a rule's
    series there, once, refuses a shorter series and builds each n_i and each int Q_(a,b) D^2
    on first read.  Each partition gets one of three rules, by facts the table already has:
    - in a table of several partitions: _expand over one shared memo of padded parts;
    - a lone partition: _pfaffian on its int matrix, fraction-free while padded length *
      bits(D^2) is up to _FRACTION_FREE_BITS (the minors grow with both), else in Fraction.
    Each gets one division by D^(2 pairs).  The expansion stays bounded when lams is closed
    under removing parts, as verify.engine_classes's is: the memo then holds exactly the
    padded lams, and each costs O(length) int products at any length.
    """
    lams, table, memo = list(lams), [], {(): 1}
    q2, d2 = _two_row(c, max((sum(lam.parts[:2]) for lam in lams), default=0))
    for lam in lams:
        p = lam.parts + (0,) * (lam.length % 2)
        pf = _expand(p, q2, memo) if len(lams) > 1 else _pfaffian(
            [[None] * (i + 1) + [q2(a, b) for b in p[i + 1 :]] for i, a in enumerate(p)],
            len(p) * d2.bit_length() <= _FRACTION_FREE_BITS)
        table.append(ThetaClass(Fraction(pf, d2 ** (len(p) // 2)), lam.weight, THETA_PRIME))
    return table


def q_tilde(lam: StrictPartition, c: ChernSeries | Callable[[int], ChernSeries]) -> ThetaClass:
    """Schur Q-tilde class: the Pfaffian of the two-row classes Q_(lambda_i, lambda_j).

    The one-partition q_tilde_table: skew elimination, its rule picked by padded length and D.
    Requires c truncated at lambda_1 + lambda_2 or later, or a rule such as chern_series_W.
    """
    return q_tilde_table([lam], c)[0]


def q_two(a: int, b: int, c: ChernSeries) -> ThetaClass:
    """Two-row class Q_(a,b) = c_a c_b + 2 sum_{j=1}^{b} (-1)^j c_{a+j} c_{b-j}.

    The one-partition q_tilde at (a, b), or at (a,) for b = 0, which the table pads to (a, 0)."""
    a, b = _integers("a and b", a, b)
    if not a > b >= 0:
        raise ParameterError(f"need a > b >= 0, got a={a}, b={b}")
    return q_tilde(StrictPartition((a, b) if b else (a,)), c)


def p_tilde(lam: StrictPartition, c: ChernSeries | Callable[[int], ChernSeries]) -> ThetaClass:
    """Q-tilde divided by 2^length; the quadratic-form normalization."""
    q = q_tilde(lam, c)
    return ThetaClass(q.coeff / 2**lam.length, q.exponent, q.generator)


def partition_for(a: VanishingSequence) -> StrictPartition:
    """Degeneracy ranks of a pointed vanishing sequence: parts a_i + 1, descending."""
    return StrictPartition(tuple(ai + 1 for ai in reversed(a.entries)))


def lagrangian_class_pointed(a: VanishingSequence) -> ThetaClass:
    """Engine value of the pointed twisted class: Q-tilde at c_i = theta'^i/i!."""
    return q_tilde(partition_for(a), chern_series_W)


def lagrangian_class_twisted(r: int) -> ThetaClass:
    """Engine value of the twisted class: Q-tilde at the staircase of length r+1."""
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    return q_tilde(staircase(r + 1), chern_series_W)


def lagrangian_class_unramified(r: int) -> ThetaClass:
    """Engine value of the P+/P- class: P-tilde at staircase(r) in xi (1 at r = 0)."""
    (r,) = _at_least("rank must be non-negative", (0,), r=r)
    return substitute_theta_prime_as_2xi(p_tilde(staircase(r), chern_series_W))


def eval_identity(lam: StrictPartition) -> Fraction:
    """Closed-form evaluation of Q-tilde at c_i = 1/i!, as one integer ratio:

    prod_{i<j} (lambda_i-lambda_j) / (prod_i lambda_i! * prod_{i<j} (lambda_i+lambda_j)).
    """
    parts = lam.parts
    pairs = [(x, y) for i, x in enumerate(parts) for y in parts[i + 1 :]]
    num = math.prod(x - y for x, y in pairs)
    den = math.prod(map(math.factorial, parts)) * math.prod(x + y for x, y in pairs)
    return Fraction(num, den)
