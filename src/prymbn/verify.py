"""The table of locus facts, and the cross-module identity suites.

``LOCI`` holds one ``Locus`` per locus: flags, dimension report, closed form
and engine with their citations, and the engine/closed-form ratio.  The CLI
builds its parser and dispatch from it and from ``LIMIT_FLAVORS``, and the
staircase suites check each engine against its ratio times its closed form.
Each suite returns a SuiteResult with the first counterexample on failure,
marked vacuous when it checked no case.  The suites take their bounds from
the caller and have no defaults of their own: ``pbn verify`` defaults to
max_weight 24, max_g 12 and max_r 4.  The engine is evaluated once per
strict partition: ``engine_classes`` builds one Chern series and one table of
two-row classes per run, takes one Pfaffian per partition over it, and two
suites check the result against the product formula ``eval_identity``
(``engine_oracle``) and the pointed closed form ``twisted_pointed_class``
(``pointed_equivalence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from . import bn_numerics, formulas, lagrangian, limit_series, theta_ring
from .bn_numerics import VanishingSequence, expected_dim_V
from .errors import PrymBNError
from .lagrangian import StrictPartition
from .limit_series import LimitProblem, solve_unique, w_locus_expected_dim


class Locus(NamedTuple):
    """One locus: its CLI flags besides dim's --g/--k, its dimension report at (g, k,
    *values), its closed-form and engine classes at the values with their citations, and
    the engine/closed-form coefficient ratio; a fact the locus lacks is None."""

    flags: Tuple[str, ...]
    dim: Optional[Callable[..., bn_numerics.DimReport]] = None
    closed_form: Optional[Callable[..., theta_ring.ThetaClass]] = None
    citation: str = ""
    engine: Optional[Callable[..., theta_ring.ThetaClass]] = None
    engine_citation: str = ""
    ratio: Callable[..., int] = lambda *values: 1


_P_TILDE = "P-tilde Pfaffian evaluation at c_i = theta'^i/i!"
_Q_TILDE = "Q-tilde Pfaffian evaluation at c_i = theta'^i/i!"

# Each entry looks its library function up on the module when called, so a
# wrapper put there (a monkeypatch, a tracer) sees the call.  In CLI order:
# dim takes the loci with a report, class those with a class.
LOCI = {
    "V": Locus(("r",), lambda *v: bn_numerics.expected_dim_V(*v)),
    "V_unramified": Locus(
        ("r",), None, lambda r: formulas.unramified_class(r),
        "closed-form class of the norm-omega locus on P+/P-",
        lambda r: lagrangian.lagrangian_class_unramified(r), _P_TILDE),
    "V_eta": Locus(
        ("r",), lambda *v: bn_numerics.expected_dim_V_eta(*v),
        lambda r: formulas.twisted_class(r), "closed-form class of the twisted locus",
        lambda r: lagrangian.lagrangian_class_twisted(r), _Q_TILDE, lambda r: 2 ** (r + 1)),
    "V_eta_pointed": Locus(
        ("a",), lambda *v: bn_numerics.expected_dim_V_eta_pointed(*v),
        lambda a: formulas.twisted_pointed_class(a),
        "closed-form class of the pointed twisted locus",
        lambda a: lagrangian.lagrangian_class_pointed(a), _Q_TILDE),
    "V_div": Locus(("r", "d"), lambda *v: bn_numerics.expected_dim_V_divisor(*v)),
    "V_eta_div": Locus(("r", "d"), lambda *v: bn_numerics.expected_dim_V_eta_divisor(*v)),
}

LIMIT_FLAVORS = {  # CLI flavor -> (limit_series flavor, closed-form solution at (g, r))
    "unramified": (limit_series.UNRAMIFIED_DELTA1,
                   lambda g, r: limit_series.prym_limit_vanishing(g, r)),
    "ramified": (limit_series.RAMIFIED_X_PLUS_Y,
                 lambda g, r: limit_series.prym_limit_vanishing_ramified(g, r)),
}

# The torsors with a calibrated top degree, in theta_ring's order.
_CALIBRATED = [key for key, (_, top) in theta_ring._SPACES.items() if top is not None]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    passed: bool
    counterexample: Optional[str] = None
    vacuous: Optional[bool] = None  # True when no case was checked, else None


def strict_partitions(max_weight: int) -> Iterator[StrictPartition]:
    """All strict partitions with 1 <= |lambda| <= max_weight."""

    def rec(remaining: int, max_part: int, prefix: Tuple[int, ...]):
        if prefix:
            yield StrictPartition(prefix)
        for p in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - p, p - 1, prefix + (p,))

    yield from rec(max_weight, max_weight, ())


def _sequence_for(lam: StrictPartition) -> VanishingSequence:
    """The pointed vanishing sequence with rank partition lam: entries p - 1, ascending."""
    return VanishingSequence(tuple(p - 1 for p in reversed(lam.parts)))


def vanishing_sequences(max_total: int) -> Iterator[VanishingSequence]:
    """All sequences a with |a| + r + 1 <= max_total, via their rank partitions."""
    yield from map(_sequence_for, strict_partitions(max_total))


EngineTable = List[Tuple[StrictPartition, theta_ring.ThetaClass]]


def engine_classes(max_weight: int) -> EngineTable:
    """(lambda, Q-tilde at c_i = theta'^i/i!) for every strict partition up to max_weight.

    One Chern series and one table of two-row classes serve every partition.
    """
    lams, c = list(strict_partitions(max_weight)), formulas.chern_series_W(max(max_weight, 0))
    return list(zip(lams, lagrangian.q_tilde_table(lams, c)))


def _suite(name: str):
    """Make a suite from a generator of case outcomes.

    The generator yields None for a case that holds and a counterexample
    string for one that fails.  The suite counts the cases and stops at the
    first counterexample, counting the failing case too; a suite that checked
    no case is marked vacuous.
    """

    def decorate(outcomes: Callable[..., Iterator[Optional[str]]]) -> Callable[..., SuiteResult]:
        @wraps(outcomes)
        def suite(*args, **kwargs) -> SuiteResult:
            cases = 0
            for counterexample in outcomes(*args, **kwargs):
                cases += 1
                if counterexample is not None:
                    return SuiteResult(name, cases, False, counterexample)
            return SuiteResult(name, cases, True, vacuous=True if cases == 0 else None)

        return suite

    return decorate


@_suite("engine_oracle")
def suite_engine_oracle(engines: EngineTable) -> Iterator[Optional[str]]:
    """Pfaffian engine (skew elimination) against the closed product formula."""
    for lam, engine in engines:
        oracle = lagrangian.eval_identity(lam)
        ok = engine.coeff == oracle and engine.exponent == lam.weight
        yield None if ok else f"lambda={lam.parts}: engine {engine.coeff}, oracle {oracle}"


@_suite("pointed_equivalence")
def suite_pointed_equivalence(engines: EngineTable) -> Iterator[Optional[str]]:
    """Engine class of each vanishing sequence against the pointed closed form."""
    for lam, engine in engines:
        a = _sequence_for(lam)
        ranks = lagrangian.partition_for(a)
        if ranks != lam:
            yield f"a={a.entries}: partition_for gives {ranks.parts}, not {lam.parts}"
            continue
        closed = formulas.twisted_pointed_class(a)
        yield None if engine == closed else (
            f"a={a.entries}: engine {engine}, closed form {closed}"
        )


def _staircase(locus: str, ranks: range) -> Iterator[Optional[str]]:
    """The engine class of ``locus`` equals its ratio times its closed form, per rank."""
    entry = LOCI[locus]
    for r in ranks:
        engine, closed, ratio = entry.engine(r), entry.closed_form(r), entry.ratio(r)
        want = theta_ring.ThetaClass(ratio * closed.coeff, closed.exponent, closed.generator)
        yield None if engine == want else f"r={r}: engine {engine} != ratio {ratio} x {closed}"


@_suite("staircase_relation")
def suite_staircase_relation(max_r: int) -> Iterator[Optional[str]]:
    """Q-tilde at the staircase equals 2^(r+1) times the unpointed coefficient."""
    return _staircase("V_eta", range(max_r + 1))


@_suite("unramified_reproduction")
def suite_unramified_reproduction(max_r: int) -> Iterator[Optional[str]]:
    """P-tilde at the staircase, rewritten in xi, equals the P+/P- class."""
    return _staircase("V_unramified", range(1, max_r + 1))


def dimension_zero_genus(k: int, r: int) -> int:
    """The genus at which the twisted locus of rank r is zero-dimensional."""
    return (r + 1) * (r + 2) // 2 + 1 - k


@_suite("count_integrality")
def suite_count_integrality(max_r: int) -> Iterator[Optional[str]]:
    """Counts at the dimension-zero genus are positive integers (calibrated k)."""
    for k in (k for flavor, k in _CALIBRATED if flavor == theta_ring.RAMIFIED_TWISTED):
        for r in range(max_r + 1):
            g = dimension_zero_genus(k, r)
            if g < 2:
                continue  # below the genus-2 domain of the torsor table
            space = theta_ring.make_space(theta_ring.RAMIFIED_TWISTED, g, k)
            try:
                n = formulas.count_points(formulas.twisted_class(r), space)
            except PrymBNError as exc:
                yield f"k={k} r={r} g={g}: {exc}"
                continue
            yield None if n > 0 else f"k={k} r={r} g={g}: count {n}"


@_suite("limit_solver")
def suite_limit_solver(max_g: int, max_r: int) -> Iterator[Optional[str]]:
    """solve_unique agrees with the closed forms wherever s >= 0."""
    for flavor, closed_form in LIMIT_FLAVORS.values():
        for g in range(2, max_g + 1):
            for r in range(max_r + 1):
                p = LimitProblem(flavor, g, r)
                if p.s < 0:
                    continue
                try:
                    solved = solve_unique(p)
                except PrymBNError as exc:
                    yield f"{flavor} g={g} r={r}: {exc}"
                    continue
                closed = closed_form(g, r)
                yield None if solved == closed else (
                    f"{flavor} g={g} r={r}: {solved.entries} != {closed.entries}"
                )


@_suite("w_consistency")
def suite_w_consistency(max_g: int, max_r: int) -> Iterator[Optional[str]]:
    """Pointed W-locus dimension matches the unramified expected dimension."""
    for g in range(2, max_g + 1):
        for r in range(max_r + 1):
            a = VanishingSequence(tuple(2 * i for i in range(r + 1)))
            if a[-1] > g + r - 1:
                continue  # vanishing orders out of range for the degree
            got = w_locus_expected_dim(g - 1, g + r - 1, a)
            want = expected_dim_V(g, 0, r).value
            yield None if got == want else f"g={g} r={r}: {got} != {want}"


@_suite("degree_table")
def suite_degree_table(max_g: int) -> Iterator[Optional[str]]:
    """Top self-intersections match Riemann-Roch on the torsor: theta^dim = dim! chi,
    chi = 2^g on the twisted torsors (polarization type (1,...,1,2,...,2), g twos;
    Birkenhake-Lange, Complex Abelian Varieties, ch. 12) and chi = 1 on P+/P-."""
    for g in range(2, max_g + 1):
        for flavor, k in _CALIBRATED:
            space = theta_ring.make_space(flavor, g, k)
            top = theta_ring.degree(theta_ring.ThetaClass(1, space.dim, space.generator), space)
            chi = 1 if flavor == theta_ring.UNRAMIFIED_PM else 2**g
            want = math.factorial(space.dim) * chi
            yield None if top == want else f"{flavor} g={g} k={k}: {top} != {want}"


def run_all(max_weight: int, max_g: int, max_r: int) -> List[SuiteResult]:
    """Run every suite at the caller's bounds, in a fixed order; one engine table serves two.

    The bounds have no defaults here: ``pbn verify`` holds them (24, 12, 4).
    """
    engines = engine_classes(max_weight)
    return [
        suite_engine_oracle(engines),
        suite_pointed_equivalence(engines),
        suite_staircase_relation(max_r),
        suite_unramified_reproduction(max(max_r, 1)),
        suite_count_integrality(max_r),
        suite_limit_solver(max_g, max_r),
        suite_w_consistency(max_g, max_r),
        suite_degree_table(max_g),
    ]
