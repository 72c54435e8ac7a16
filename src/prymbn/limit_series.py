"""Vanishing-order combinatorics for Prym limit linear series.

Three degeneration problems are handled, each asking for the vanishing
orders of an aspect of a limit series at a node:

* ``unramified_delta1``: norm-omega series degenerating over an elliptic
  bridge; aspects of degree 2g-2 on genus g-1 components.
* ``ramified_x_plus_y``: series of norm omega(x+y) on a two-branch-point
  cover degenerating over a rational bridge; degree 2g on genus g.
* ``ramified_dual``: the norm-omega series on the same covers, obtained
  from ``ramified_x_plus_y`` at rank r+1 by Serre duality.

``enumerate_candidates`` generates exactly the sequences that meet the
stated constraints, walking only prefixes that can still be completed; the
tests check it against a naive walk over every (r+1)-subset, and the closed
forms stay independent of both.  ``solve_unique`` applies the exactness
filter of each degeneration argument and insists on a unique survivor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bn_numerics import VanishingSequence, rho, rho_pointed
from .errors import InvariantViolationError, ParameterError, _integers

UNRAMIFIED_DELTA1 = "unramified_delta1"
RAMIFIED_X_PLUS_Y = "ramified_x_plus_y"
RAMIFIED_DUAL = "ramified_dual"
FLAVORS = (UNRAMIFIED_DELTA1, RAMIFIED_X_PLUS_Y, RAMIFIED_DUAL)


@dataclass(frozen=True)
class LimitProblem:
    flavor: str
    g: int
    r: int

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ParameterError(f"unknown flavor {self.flavor!r}")
        g, r = _integers("g and r", self.g, self.r)
        if g < 1 or r < 0:
            raise ParameterError(f"need g >= 1 and r >= 0, got {g=}, {r=}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "r", r)

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
    if a[-1] > d:
        raise ParameterError(f"top vanishing order {a[-1]} exceeds degree {d}")
    return VanishingSequence(tuple(d - ai for ai in reversed(a.entries)))


def _centered(half: int, r: int) -> VanishingSequence:
    """The orders (h-r, h-r+2, ..., h+r) centred on h = half the degree."""
    s = half - r * (r + 1) // 2
    if s < 0:
        raise ParameterError(f"no solution: s = {s} < 0")
    return VanishingSequence(tuple(half - r + 2 * i for i in range(r + 1)))


def prym_limit_vanishing(g: int, r: int) -> VanishingSequence:
    """Closed form (g-r-1, g-r+1, ..., g+r-1) for the elliptic-bridge problem."""
    return _centered(g - 1, r)


def prym_limit_vanishing_ramified(g: int, r: int) -> VanishingSequence:
    """Closed form (g-r, g-r+2, ..., g+r) for the rational-bridge problem."""
    return _centered(g, r)


def prym_limit_vanishing_dual(g: int, r: int) -> VanishingSequence:
    """Norm-omega orders on the ramified cover via rank-(r+1) Serre duality.

    Starting from the rank-(r+1) solution of the x+y problem, Riemann-Roch
    turns the order data of the dual line bundle into the counting
    constraints  #{j : a_j >= g+r+1-2i} = i  for 0 <= i <= r+1.  Each step
    admits a two-element window {g+r+1-2i, g+r+2-2i}; the common-parity and
    degree-sum constraints of the problem leave a single sequence, which
    must agree with the closed form (g-r-1+2i).
    """
    if g - (r + 1) * (r + 2) // 2 < 0:
        raise ParameterError(
            f"no solution: rank-{r + 1} dual problem needs g >= {(r + 1) * (r + 2) // 2}"
        )
    dual_orders = prym_limit_vanishing_ramified(g, r + 1)
    # h^0 thresholds of the rank-r series: degree 2g minus each dual order.
    thresholds = [2 * g - c for c in dual_orders]

    # The two parity-consistent ways of picking one order per window.
    low, high = (_centered(half, r).entries for half in (g - 1, g))
    target = (r + 1) * (g - 1)
    survivors = [cand for cand in (low, high) if sum(cand) == target]
    if len(survivors) != 1:
        raise InvariantViolationError(f"dual bookkeeping ambiguous for g={g}, r={r}")
    result = VanishingSequence(survivors[0])

    # Riemann-Roch counting check against the rank-(r+1) dual orders.
    for i, threshold in enumerate(thresholds):
        if sum(1 for aj in result if aj >= threshold) != i:
            raise InvariantViolationError(
                f"dual order counting fails at i={i} for g={g}, r={r}"
            )
    if result != prym_limit_vanishing(g, r):
        raise InvariantViolationError(
            f"dual path disagrees with closed form for g={g}, r={r}"
        )
    return result


def enumerate_candidates(p: LimitProblem) -> List[VanishingSequence]:
    """All sequences meeting the sum, range [0, d] and parity/gap constraints.

    For the two directly-posed problems the sum constraint is the
    adjusted-rho condition rho_pointed = rho - sum(a_i - i) = s on both
    aspects, which ``solve_unique`` re-checks on its survivor.  The walk
    fixes a_0, a_1, ... left to right on int tuples, visiting only completable
    prefixes, so the list is lexicographic; each becomes a ``VanishingSequence``
    at the end.  ``solve_unique`` deliberately filters this full list: perfbench
    counts candidates by wrapping this call, so pruning waits for in-package counters.
    """
    if p.s < 0:
        return []
    out: List[Tuple[int, ...]] = []
    parity = p.flavor != RAMIFIED_X_PLUS_Y
    _extend(out, (), 0, 1, p.r + 1, p.target_sum, p.degree, parity)
    return [VanishingSequence(entries) for entries in out]


def _extend(out: List[Tuple[int, ...]], prefix: Tuple[int, ...], lo: int, step: int,
            k: int, rest: int, d: int, parity: bool) -> None:
    """Append each completion of ``prefix`` by k entries, the first in range(lo, d+1, step),
    summing to ``rest`` with gaps >= 2 and, if ``parity``, one common parity."""
    if k == 1:
        if lo <= rest <= d and (rest - lo) % step == 0:
            out.append(prefix + (rest,))
        return
    # x, x+2, ... must not overshoot rest; x plus the k-1 top values must reach it.
    start = max(lo, rest - (k - 1) * (d - k + 2))
    start += (lo - start) % step
    for x in range(start, (rest - k * (k - 1)) // k + 1, step):
        top = d - (d - x) % 2 if parity else d
        if x + (k - 1) * (top - k + 2) < rest or parity and (rest - k * x) % 2:
            continue
        if k == 2:  # the checks above already admit the last entry rest - x
            out.append(prefix + (x, rest - x))
        else:
            _extend(out, prefix + (x,), x + 2, 2 if parity else 1, k - 1, rest - x, d, parity)


def _endpoint_filter_unramified(g: int, r: int, a: VanishingSequence) -> bool:
    """Section-count exactness: g+r-1-a_{r-i}-i = #{j : a_j >= a_{r-i}+2}."""
    return all(g + r - 1 - order - i == sum(1 for aj in a.entries if aj >= order + 2)
               for i, order in enumerate(reversed(a.entries)))


def solve_unique(
    p: LimitProblem, candidates: Optional[List[VanishingSequence]] = None
) -> VanishingSequence:
    """Filter the candidate list down to the proven unique solution.

    ``candidates`` is ``enumerate_candidates(p)`` when the caller already
    has it; by default it is enumerated here.
    """
    if p.s < 0:
        raise ParameterError(f"no solution: s = {p.s} < 0")
    if p.flavor == RAMIFIED_DUAL:
        return prym_limit_vanishing_dual(p.g, p.r)

    if candidates is None:
        candidates = enumerate_candidates(p)
    if p.flavor == UNRAMIFIED_DELTA1:
        survivors = [a for a in candidates if _endpoint_filter_unramified(p.g, p.r, a)]
    else:
        low, high = p.g - p.r, p.g + p.r
        survivors = [a for a in candidates if a.entries[0] == low and a.entries[-1] == high]
    closed = _centered(p.degree // 2, p.r)
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"{p.flavor} g={p.g} r={p.r}: expected a unique survivor, "
            f"got {[list(a.entries) for a in survivors]}"
        )
    for aspect in (survivors[0], complementary_vanishing(p.degree, survivors[0])):
        if rho_pointed(p.component_genus, p.r, p.degree, aspect) != p.s:
            raise InvariantViolationError(
                f"{p.flavor} g={p.g} r={p.r}: adjusted rho of {aspect.entries} is not s = {p.s}"
            )
    if survivors[0] != closed:
        raise InvariantViolationError(
            f"{p.flavor} g={p.g} r={p.r}: survivor {survivors[0].entries} "
            f"differs from closed form {closed.entries}"
        )
    return survivors[0]


@dataclass(frozen=True)
class AdditivityReport:
    """rho-additivity chain for one elliptic-bridge configuration."""

    lhs: int
    aspect_rhos: Tuple[int, int]
    bridge_rho: int
    equality: bool


def additivity_report(
    g: int, r: int, a: VanishingSequence, b: VanishingSequence
) -> AdditivityReport:
    """Adjusted-rho bookkeeping: rho(2g-1,r,2g-2) against aspect and bridge terms."""
    d = 2 * g - 2
    lhs = rho(2 * g - 1, r, d)
    rho_a = rho_pointed(g - 1, r, d, a)
    rho_b = rho_pointed(g - 1, r, d, b)
    bridge = -r
    s = g - 1 - r * (r + 1) // 2
    equality = rho_a == s and rho_b == s and lhs == rho_a + rho_b + bridge
    return AdditivityReport(lhs, (rho_a, rho_b), bridge, equality)


def w_locus_expected_dim(g_y: int, d: int, a: VanishingSequence) -> int:
    """Expected dimension of the pointed locus W^r_{d,a}: the adjusted rho."""
    return rho_pointed(g_y, a.r, d, a)
