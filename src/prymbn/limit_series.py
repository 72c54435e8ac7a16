"""Vanishing-order combinatorics for Prym limit linear series.

Three degeneration problems are handled, each asking for the vanishing
orders of an aspect of a limit series at a node:

* ``unramified_delta1``: norm-omega series degenerating over an elliptic
  bridge; aspects of degree 2g-2 on genus g-1 components.
* ``ramified_x_plus_y``: series of norm omega(x+y) on a two-branch-point
  cover degenerating over a rational bridge; degree 2g on genus g.
* ``ramified_dual``: the norm-omega series on the same covers, whose
  orders are checked against ``ramified_x_plus_y`` at rank r+1 by Serre
  duality.

``enumerate_candidates`` generates exactly the sequences that meet the
stated constraints, walking only prefixes that can still be completed; the
tests check it against a naive walk over every (r+1)-subset, and the closed
forms stay independent of both.  ``solve_unique`` applies the exactness
filter of each degeneration argument and insists on a unique survivor.  It
passes that filter to the walk, which tests each prefix as its own problem and
so never lists a candidate the filter rejects.
"""

from __future__ import annotations

from collections.abc import Callable

from .bn_numerics import VanishingSequence, rho, rho_pointed
from .errors import InvariantViolationError, ParameterError, _at_least, _integers, _Record

UNRAMIFIED_DELTA1 = "unramified_delta1"
RAMIFIED_X_PLUS_Y = "ramified_x_plus_y"
RAMIFIED_DUAL = "ramified_dual"
FLAVORS = (UNRAMIFIED_DELTA1, RAMIFIED_X_PLUS_Y, RAMIFIED_DUAL)


class LimitProblem(_Record):
    __slots__ = ("flavor", "g", "r")

    def __init__(self, flavor: str, g: int, r: int) -> None:
        if flavor not in FLAVORS:
            raise ParameterError(f"unknown flavor {flavor!r}")
        self._store(flavor, *_at_least("need g >= 1 and r >= 0", (1, 0), g=g, r=r))

    @property
    def degree(self) -> int:
        return 2 * self.g if self.flavor == RAMIFIED_X_PLUS_Y else 2 * self.g - 2

    @property
    def component_genus(self) -> int:
        return self.g - 1 if self.flavor == UNRAMIFIED_DELTA1 else self.g

    @property
    def s(self) -> int:
        return self.degree // 2 - self.r * (self.r + 1) // 2

    @property
    def target_sum(self) -> int:
        return (self.r + 1) * (self.degree // 2)


def complementary_vanishing(d: int, a: VanishingSequence) -> VanishingSequence:
    """The node-complementary sequence b with b_{r-i} = d - a_i."""
    (d,) = _at_least(f"top vanishing order {a[-1]} exceeds degree d", (a[-1],), d=d)
    return VanishingSequence(tuple(d - ai for ai in reversed(a.entries)))


def _centered(p: LimitProblem) -> VanishingSequence:
    """The orders (h-r, h-r+2, ..., h+r) of p, centred on h = half its degree."""
    if p.s < 0:
        raise ParameterError(
            f"no solution: s = {p.s} < 0, got flavor={p.flavor}, g={p.g}, r={p.r}")
    return VanishingSequence(tuple(range(p.degree // 2 - p.r, p.degree // 2 + p.r + 1, 2)))


def prym_limit_vanishing(g: int, r: int) -> VanishingSequence:
    """Closed form (g-r-1, g-r+1, ..., g+r-1) for the elliptic-bridge problem."""
    return _centered(LimitProblem(UNRAMIFIED_DELTA1, g, r))


def prym_limit_vanishing_ramified(g: int, r: int) -> VanishingSequence:
    """Closed form (g-r, g-r+2, ..., g+r) for the rational-bridge problem."""
    return _centered(LimitProblem(RAMIFIED_X_PLUS_Y, g, r))


def prym_limit_vanishing_dual(g: int, r: int) -> VanishingSequence:
    """Norm-omega orders (g-r-1, g-r+1, ..., g+r-1) on the ramified cover, checked by
    rank-(r+1) Serre duality.

    Needs g >= (r+1)(r+2)/2, so that the x+y problem has a rank-(r+1) solution c.
    Riemann-Roch turns the orders c_i of the dual line bundle into the counting
    constraints  #{j : a_j >= 2g - c_i} = i  for 0 <= i <= r+1, which the
    returned orders must meet.
    """
    p = LimitProblem(RAMIFIED_DUAL, g, r)
    need = (p.r + 1) * (p.r + 2) // 2
    _at_least(f"no solution: rank-{p.r + 1} dual problem needs g >= {need}", (need,), g=p.g)
    result = _centered(p)
    for i, c in enumerate(prym_limit_vanishing_ramified(p.g, p.r + 1)):
        if sum(1 for aj in result if aj >= 2 * p.g - c) != i:
            raise InvariantViolationError(
                f"dual order counting fails at i={i} for g={p.g}, r={p.r}"
            )
    return result


def enumerate_candidates(
    p: LimitProblem, keep: Callable[[int, int, tuple[int, ...]], bool] | None = None
) -> list[tuple[int, ...]]:
    """All sequences meeting the sum, range [0, d] and parity/gap constraints,
    as strictly increasing int tuples (not ``VanishingSequence`` records).

    For the two directly-posed problems the sum constraint is the
    adjusted-rho condition rho_pointed = rho - sum(a_i - i) = s on both
    aspects, which ``solve_unique`` re-checks on its answer.  The walk
    fixes a_0, a_1, ... left to right, visiting only completable prefixes, so
    the list is lexicographic.

    Given an exactness filter ``keep(g, r, a)``, each prefix of m+1 entries is
    tested as the problem (g - (r - m), m), and a failing prefix is not extended.
    If every prefix of a passing tuple passes, as for both of ``solve_unique``'s
    filters, this is ``[a for a in enumerate_candidates(p) if keep(p.g, p.r, a)]``.
    """
    out: list[tuple[int, ...]] = []
    if p.s >= 0:
        test = None if keep is None else lambda a: keep(p.g - p.r - 1 + len(a), len(a) - 1, a)
        _extend(out, (), 0, 1, p.r + 1, p.target_sum, p.degree,
                p.flavor != RAMIFIED_X_PLUS_Y, test)
    return out


def _extend(out: list[tuple[int, ...]], prefix: tuple[int, ...], lo: int, step: int,
            k: int, rest: int, d: int, parity: bool,
            test: Callable[[tuple[int, ...]], bool] | None) -> None:
    """Append each completion of ``prefix`` by k entries, the first in range(lo, d+1, step),
    summing to ``rest`` with gaps >= 2 and, if ``parity``, one common parity.  A ``test``
    is called on each prefix and each whole tuple, and only what passes is extended or
    appended; without one, no call is made per node and k = 2 appends its pairs at once."""
    if k == 1:
        fits = lo <= rest <= d and (rest - lo) % step == 0
        if fits and (test is None or test(prefix + (rest,))):
            out.append(prefix + (rest,))
        return
    # x, x+2, ... must not overshoot rest; x plus the k-1 top values must reach it.
    start = max(lo, rest - (k - 1) * (d - k + 2))
    start += (lo - start) % step
    for x in range(start, (rest - k * (k - 1)) // k + 1, step):
        top = d - (d - x) % 2 if parity else d
        if x + (k - 1) * (top - k + 2) < rest or parity and (rest - k * x) % 2:
            continue
        if k == 2 and test is None:  # the checks above already admit the last entry rest - x
            out.append(prefix + (x, rest - x))
        elif test is None or test(prefix + (x,)):
            _extend(out, prefix + (x,), x + 2, 2 if parity else 1, k - 1, rest - x, d, parity,
                    test)


def _endpoint_filter_unramified(g: int, r: int, a: tuple[int, ...]) -> bool:
    """Section-count exactness: g+r-1-a_{r-i}-i = #{j : a_j >= a_{r-i}+2}.  No entry
    reaches a_r + 2, so the i = 0 term reads a_r = g+r-1: tested first, it rejects most.

    A passing tuple's prefix of m+1 entries passes at (g - (r - m), m): every later
    entry is at least a_m + 2, so both sides of each term drop by r - m."""
    return a[-1] == g + r - 1 and all(
        g + r - 1 - order - i == sum(1 for aj in a if aj >= order + 2)
        for i, order in enumerate(reversed(a)))


def _endpoint_filter_ramified(g: int, r: int, a: tuple[int, ...]) -> bool:
    """Endpoint exactness: a_0 = g-r and a_r = g+r.  A span of 2r over r gaps of at
    least 2 pins a_m = g-r+2m, so a passing tuple's prefix of m+1 entries passes at
    (g - (r - m), m)."""
    return a[0] == g - r and a[-1] == g + r


def solve_unique(p: LimitProblem) -> VanishingSequence:
    """The proven unique solution of p: its exactness filter prunes the walk of
    ``enumerate_candidates``, and one comparison requires the survivors to be
    exactly the closed form, so no candidate becomes a record.
    """
    if p.flavor == RAMIFIED_DUAL:
        return prym_limit_vanishing_dual(p.g, p.r)
    closed = _centered(p)  # refuses s < 0
    keep = (_endpoint_filter_unramified if p.flavor == UNRAMIFIED_DELTA1
            else _endpoint_filter_ramified)
    survivors = enumerate_candidates(p, keep)
    if survivors != [closed.entries]:
        raise InvariantViolationError(f"{p.flavor} g={p.g} r={p.r}: survivors {survivors} "
                                      f"are not exactly the closed form {closed.entries}")
    for aspect in (closed, complementary_vanishing(p.degree, closed)):
        if rho_pointed(p.component_genus, p.r, p.degree, aspect) != p.s:
            raise InvariantViolationError(
                f"{p.flavor} g={p.g} r={p.r}: adjusted rho of {aspect.entries} is not s = {p.s}"
            )
    return closed


class AdditivityReport(_Record):
    """rho-additivity chain for one elliptic-bridge configuration."""

    __slots__ = ("lhs", "aspect_rhos", "bridge_rho", "equality")

    def __init__(self, lhs: int, aspect_rhos: tuple[int, int], bridge_rho: int,
                 equality: bool) -> None:
        lhs, bridge_rho = _at_least("", (), lhs=lhs, bridge_rho=bridge_rho)  # read only
        self._store(lhs, _integers("aspect_rhos", *aspect_rhos), bridge_rho, equality)


def additivity_report(
    g: int, r: int, a: VanishingSequence, b: VanishingSequence
) -> AdditivityReport:
    """Adjusted-rho bookkeeping: rho(2g-1,r,2g-2) against aspect and bridge terms."""
    p = LimitProblem(UNRAMIFIED_DELTA1, g, r)
    lhs = rho(2 * g - 1, r, p.degree)
    rho_a, rho_b = (rho_pointed(p.component_genus, r, p.degree, x) for x in (a, b))
    bridge = -r
    equality = rho_a == p.s == rho_b and lhs == rho_a + rho_b + bridge
    return AdditivityReport(lhs, (rho_a, rho_b), bridge, equality)


def w_locus_expected_dim(g_y: int, d: int, a: VanishingSequence) -> int:
    """Expected dimension of the pointed locus W^r_{d,a}: the adjusted rho."""
    (g_y,) = _integers("g_y", g_y)
    return rho_pointed(g_y, a.r, d, a)
