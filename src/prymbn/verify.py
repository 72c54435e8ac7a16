"""The table of locus facts, and the cross-module identity suites.

``LOCI`` holds one ``Locus`` per locus: flags, dimension report, closed form
and engine with their citations, and the engine/closed-form ratio.
``LIMIT_FLAVORS`` maps each ``pbn limits --flavor`` name to its limit_series
flavor.  The CLI's command table reads its locus and flavor choices and the
locus flags from these two tables, and one rule, ``_agreement``, checks each
class locus's engine against its ratio times its closed form.  Each suite
returns a SuiteResult with its first counterexample, named by the case's
parameters (a PrymBNError raised in a case is one), or marked vacuous when
it checked no case.  The suites take their bounds from the caller: ``pbn
verify`` defaults to max_weight 24, max_g 12 and max_r 4.  ``engine_classes``
walks the pointed sequences a and takes lambda = partition_for(a), as ``pbn
class --locus V_eta_pointed --engine`` does, with one Chern series and one
table of two-row classes.  ``engine_oracle`` checks it against the product
formula ``eval_identity``, and ``pointed_equivalence`` against the pointed
closed form: at lambda_i = a_i + 1 one formula, in two reference versions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import wraps

from . import bn_numerics, formulas, lagrangian, limit_series, theta_ring
from .bn_numerics import VanishingSequence, expected_dim_V
from .errors import PrymBNError, _Record
from .lagrangian import StrictPartition
from .limit_series import LimitProblem, solve_unique, w_locus_expected_dim


Locus = namedtuple("Locus", "flags dim closed_form citation engine engine_citation ratio",
                   defaults=(None, None, "", None, "", lambda *values: 1))
Locus.__doc__ = """One locus: its CLI flags besides dim's --g/--k, its dimension report at
(g, k, *values), its closed-form and engine classes at the values with their citations,
and the engine/closed-form coefficient ratio; a fact the locus lacks is None."""


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

LIMIT_FLAVORS = {  # CLI flavor -> limit_series flavor
    "unramified": limit_series.UNRAMIFIED_DELTA1,
    "ramified": limit_series.RAMIFIED_X_PLUS_Y,
}

# The torsors with a calibrated top degree, in theta_ring's order.
_CALIBRATED = [key for key, (_, top) in theta_ring._SPACES.items() if top is not None]


class SuiteResult(_Record):
    __slots__ = ("name", "cases", "passed", "counterexample", "vacuous")

    def __init__(self, name: str, cases: int, passed: bool, counterexample: str | None = None,
                 vacuous: bool | None = None) -> None:  # True when no case was checked
        self._store(name, cases, passed, counterexample, vacuous)


def pointed_sequences(max_weight: int) -> Iterator[VanishingSequence]:
    """Every pointed vanishing sequence whose rank partition (a_i + 1) has weight 1..max_weight."""

    def rec(remaining: int, max_part: int, orders: tuple[int, ...]):
        if orders:
            yield VanishingSequence(orders)
        for p in range(min(remaining, max_part), 0, -1):  # p = a_i + 1, the top order first
            yield from rec(remaining - p, p - 1, (p - 1,) + orders)

    yield from rec(max_weight, max_weight, ())


EngineTable = list[tuple[VanishingSequence, StrictPartition, theta_ring.ThetaClass]]


def engine_classes(max_weight: int) -> EngineTable:
    """(a, lambda = partition_for(a), Q-tilde at c_i = theta'^i/i!) per pointed sequence up to
    max_weight, as ``class --engine`` takes a; one Chern series as far as lambda reads."""
    seqs = list(pointed_sequences(max_weight))
    lams = list(map(lagrangian.partition_for, seqs))
    c = formulas.chern_series_W(max((sum(lam.parts[:2]) for lam in lams), default=0))
    return list(zip(seqs, lams, lagrangian.q_tilde_table(lams, c)))


def _suite(outcomes: Callable[..., Iterator[str | None]]) -> Callable[..., SuiteResult]:
    """Make a suite from a generator of case outcomes, named for it without ``suite_``.

    The generator yields None for a case that holds and a counterexample
    string for one that fails.  The suite counts the cases and stops at the
    first counterexample, counting the failing case too; a suite that checked
    no case is marked vacuous.
    """
    name = outcomes.__name__.removeprefix("suite_")

    @wraps(outcomes)
    def suite(*args, **kwargs) -> SuiteResult:
        cases = 0
        for counterexample in outcomes(*args, **kwargs):
            cases += 1
            if counterexample is not None:
                return SuiteResult(name, cases, False, counterexample)
        return SuiteResult(name, cases, True, vacuous=True if cases == 0 else None)

    return suite


@_suite
def suite_engine_oracle(engines: EngineTable) -> Iterator[str | None]:
    """Pfaffian engine (skew elimination) against the closed product formula."""
    for _, lam, engine in engines:
        try:
            oracle = lagrangian.eval_identity(lam)
        except PrymBNError as exc:
            yield f"lambda={lam.parts}: {exc}"
            continue
        ok = engine.coeff == oracle and engine.exponent == lam.weight
        yield None if ok else f"lambda={lam.parts}: engine {engine.coeff}, oracle {oracle}"


def _agreement(locus: str, cases: Iterable[tuple], engine: Callable) -> Iterator[str | None]:
    """engine(*v) == ratio(*v) x closed_form(*v) of ``locus`` (at ratio 1, the closed form
    itself) per case v; a failure, or a PrymBNError raised, is named by the locus's flags."""
    entry = LOCI[locus]
    for v in cases:
        try:
            got, closed, ratio = engine(*v), entry.closed_form(*v), entry.ratio(*v)
            want = closed if ratio == 1 else theta_ring.ThetaClass(
                ratio * closed.coeff, closed.exponent, closed.generator)
            failure = None if got == want else f"engine {got} != ratio {ratio} x {closed}"
        except PrymBNError as exc:
            failure = exc
        yield None if failure is None else " ".join(
            f"{flag}={getattr(x, 'entries', x)}" for flag, x in zip(entry.flags, v)
        ) + f": {failure}"


@_suite
def suite_pointed_equivalence(engines: EngineTable) -> Iterator[str | None]:
    """Engine class of each vanishing sequence against the pointed closed form."""
    classes = {a: engine for a, _, engine in engines}
    return _agreement("V_eta_pointed", ((a,) for a in classes), classes.__getitem__)


@_suite
def suite_staircase_relation(max_r: int) -> Iterator[str | None]:
    """Q-tilde at the staircase equals 2^(r+1) times the unpointed coefficient."""
    return _agreement("V_eta", ((r,) for r in range(max_r + 1)), LOCI["V_eta"].engine)


@_suite
def suite_unramified_reproduction(max_r: int) -> Iterator[str | None]:
    """P-tilde at the staircase, rewritten in xi, equals the P+/P- class."""
    ranks = ((r,) for r in range(1, max_r + 1))
    return _agreement("V_unramified", ranks, LOCI["V_unramified"].engine)


def dimension_zero_genus(k: int, r: int) -> int:
    """The genus at which the twisted locus of rank r is zero-dimensional."""
    return (r + 1) * (r + 2) // 2 + 1 - k


@_suite
def suite_count_integrality(max_r: int) -> Iterator[str | None]:
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


@_suite
def suite_limit_solver(max_g: int, max_r: int) -> Iterator[str | None]:
    """solve_unique proves a unique survivor wherever s >= 0; it raises when the
    survivor differs from the closed form, and the suite reports that error."""
    for flavor in LIMIT_FLAVORS.values():
        for g in range(2, max_g + 1):
            for r in range(max_r + 1):
                p = LimitProblem(flavor, g, r)
                if p.s < 0:
                    continue
                try:
                    solve_unique(p)
                except PrymBNError as exc:
                    yield f"{flavor} g={g} r={r}: {exc}"
                else:
                    yield None


@_suite
def suite_w_consistency(max_g: int, max_r: int) -> Iterator[str | None]:
    """Pointed W-locus dimension matches the unramified expected dimension."""
    for g in range(2, max_g + 1):
        for r in range(max_r + 1):
            a = VanishingSequence(tuple(2 * i for i in range(r + 1)))
            if a[-1] > g + r - 1:
                continue  # vanishing orders out of range for the degree
            got = w_locus_expected_dim(g - 1, g + r - 1, a)
            want = expected_dim_V(g, 0, r).value
            yield None if got == want else f"g={g} r={r}: {got} != {want}"


@_suite
def suite_degree_table(max_g: int) -> Iterator[str | None]:
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


def run_all(max_weight: int, max_g: int, max_r: int) -> list[SuiteResult]:
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
