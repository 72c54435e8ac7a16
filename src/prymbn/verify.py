"""The table of locus facts, and the cross-module identity suites.

``LOCI`` holds one ``Locus`` per locus: flags, dimension report, closed form and engine
with their citations, the engine/closed-form ratio and the torsor of ``count``, the one
count rule, which ``pbn count`` runs and ``count_integrality`` checks.  ``LIMIT_FLAVORS``
maps each ``pbn limits --flavor`` name to its limit_series flavor; the CLI reads both.
Every library function is called through its module, so a wrapper put there
(a monkeypatch, a tracer) sees the call.

Every suite runs its cases by one rule, ``_suite``: a PrymBNError raised in
a case's check is that case's counterexample, which is labelled from the
check's arguments (``r=0``, ``a=(1,)``).  The walks and the engine table are
built outside the checks, so an error there ends ``pbn verify`` with no report
(exit 2; 1 for an invariant violation).
``engine_classes`` walks the pointed sequences a and takes lambda =
partition_for(a), as ``pbn class --locus V_eta_pointed --engine`` does, but
evaluates every lambda in one ``q_tilde_table``, passed the rule ``chern_series_W``,
which the table sizes once, as far as its lambdas read.  The walk is closed under removing
parts, so the table expands each lambda over one memo of exactly its lambdas.
``engine_oracle`` checks it against the product formula ``eval_identity``,
and the class rule ``_agreement`` against the pointed closed form: at
lambda_i = a_i + 1 one formula, in two reference versions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import wraps

from . import bn_numerics, formulas, lagrangian, limit_series, theta_ring
from .bn_numerics import VanishingSequence
from .errors import ParameterError, PrymBNError, _Record
from .lagrangian import StrictPartition


Locus = namedtuple("Locus", "flags dim closed_form citation engine engine_citation ratio torsor",
                   defaults=(None, None, "", None, "", lambda *values: 1, None))
Locus.__doc__ = """One locus: its CLI flags besides dim's --g/--k, its dimension report at
(g, k, *values), its closed-form and engine classes at the values with their citations,
the engine/closed-form coefficient ratio and the torsor of its count; a fact it lacks is None."""


_P_TILDE = "P-tilde Pfaffian evaluation at c_i = theta'^i/i!"
_Q_TILDE = "Q-tilde Pfaffian evaluation at c_i = theta'^i/i!"

# In CLI order: dim takes the loci with a report, class those with a class.
LOCI = {
    "V": Locus(("r",), lambda *v: bn_numerics.expected_dim_V(*v)),
    "V_unramified": Locus(
        ("r",), None, lambda r: formulas.unramified_class(r),
        "closed-form class of the norm-omega locus on P+/P-",
        lambda r: lagrangian.lagrangian_class_unramified(r), _P_TILDE),
    "V_eta": Locus(
        ("r",), lambda *v: bn_numerics.expected_dim_V_eta(*v),
        lambda r: formulas.twisted_class(r), "closed-form class of the twisted locus",
        lambda r: lagrangian.lagrangian_class_twisted(r), _Q_TILDE, lambda r: 2 ** (r + 1),
        theta_ring.RAMIFIED_TWISTED),
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

class SuiteResult(_Record):
    __slots__ = ("name", "cases", "passed", "counterexample", "vacuous")

    def __init__(self, name: str, cases: int, passed: bool, counterexample: str | None = None,
                 vacuous: bool | None = None) -> None:  # True when no case was checked
        self._store(name, cases, passed, counterexample, vacuous)


def _walk(remaining: int, max_part: int, orders: tuple[int, ...], out: list) -> None:
    """Append (p - 1,) + orders, then its extensions, per part p = a_i + 1 up to both bounds."""
    for p in range(min(remaining, max_part), 0, -1):  # the top order first
        out.append((p - 1,) + orders)
        _walk(remaining - p, p - 1, out[-1], out)


def pointed_sequences(max_weight: int) -> Iterator[VanishingSequence]:
    """Every pointed vanishing sequence whose rank partition (a_i + 1) has weight 1..max_weight."""
    out = []
    _walk(max_weight, max_weight, (), out)
    return map(VanishingSequence, out)


EngineTable = list[tuple[VanishingSequence, StrictPartition, theta_ring.ThetaClass]]


def engine_classes(max_weight: int) -> EngineTable:
    """(a, lambda = partition_for(a), Q-tilde at c_i = theta'^i/i!) per pointed sequence up to
    max_weight, as ``class --engine`` takes a; the table sizes the one Chern series from the
    rule formulas.chern_series_W, as far as its lambdas read."""
    seqs = list(pointed_sequences(max_weight))
    lams = list(map(lagrangian.partition_for, seqs))
    return list(zip(seqs, lams, lagrangian.q_tilde_table(lams, formulas.chern_series_W)))


def _suite(label: str,
           check: Callable[..., str | None]) -> Callable[..., Callable[..., SuiteResult]]:
    """Make a suite, named for its walk without ``suite_``, by the one case rule.

    The walk yields each case's arguments; ``check(*args)`` returns None when
    the case holds and else a failure, and a PrymBNError it raises is that
    failure.  The suite counts the cases and stops at the first failure,
    counting it too, labelled ``label.format(*args)``; a suite that checked
    no case is marked vacuous.  The walk, and the engine table passed to it,
    run outside the rule: an error there leaves ``pbn verify`` without a report.
    """

    def make(walk: Callable[..., Iterable[tuple]]) -> Callable[..., SuiteResult]:
        name = walk.__name__.removeprefix("suite_")

        @wraps(walk)
        def suite(*bounds) -> SuiteResult:
            cases = 0
            for args in walk(*bounds):
                cases += 1
                try:
                    failure = check(*args)
                except PrymBNError as exc:
                    failure = exc
                if failure is not None:
                    return SuiteResult(name, cases, False, f"{label.format(*args)}: {failure}")
            return SuiteResult(name, cases, True, vacuous=True if cases == 0 else None)

        return suite

    return make


def _matches_oracle(lam: StrictPartition, engine: theta_ring.ThetaClass) -> str | None:
    oracle = lagrangian.eval_identity(lam)
    ok = engine.coeff == oracle and engine.exponent == lam.weight
    return None if ok else f"engine {engine.coeff}, oracle {oracle}"


@_suite("lambda={0.parts}", _matches_oracle)
def suite_engine_oracle(engines: EngineTable) -> Iterator[tuple]:
    """Pfaffian engine table against the closed product formula."""
    return ((lam, engine) for _, lam, engine in engines)


def _agreement(locus: str, v, engine: Callable) -> str | None:
    """The class rule: engine(v) == ratio(v) x closed_form(v), the two read from
    ``LOCI[locus]`` (at ratio 1, the closed form itself)."""
    entry = LOCI[locus]
    got, closed, ratio = engine(v), entry.closed_form(v), entry.ratio(v)
    want = closed if ratio == 1 else theta_ring.ThetaClass(
        ratio * closed.coeff, closed.exponent, closed.generator)
    return None if got == want else f"engine {got} != ratio {ratio} x {closed}"


@_suite("a={1.entries}", _agreement)
def suite_pointed_equivalence(engines: EngineTable) -> Iterator[tuple]:
    """Engine class of each vanishing sequence against the pointed closed form."""
    classes = {a: engine for a, _, engine in engines}
    return (("V_eta_pointed", a, classes.__getitem__) for a in classes)


@_suite("r={1}", _agreement)
def suite_staircase_relation(max_r: int) -> Iterator[tuple]:
    """Q-tilde at the staircase equals 2^(r+1) times the unpointed coefficient."""
    return (("V_eta", r, LOCI["V_eta"].engine) for r in range(max_r + 1))


@_suite("r={1}", _agreement)
def suite_unramified_reproduction(max_r: int) -> Iterator[tuple]:
    """P-tilde at the staircase, rewritten in xi, equals the P+/P- class."""
    return (("V_unramified", r, LOCI["V_unramified"].engine) for r in range(1, max_r + 1))


def dimension_zero_genus(k: int, r: int) -> int:
    """The genus at which the twisted locus of rank r is zero-dimensional."""
    return (r + 1) * (r + 2) // 2 + 1 - k


def count(g: int, k: int, r: int) -> tuple[int, theta_ring.PrymSpace]:
    """The count rule of ``pbn count``: the degree of the twisted closed form on its torsor,
    and that torsor.  A ParameterError names any expected dimension but 0."""
    locus = LOCI["V_eta"]
    rep = locus.dim(g, k, r)
    if rep.value != 0:
        raise ParameterError(f"expected dimension is {rep.value}, not 0; no finite count"
                             f" at g={g}, k={k}, r={r}")
    space = theta_ring.make_space(locus.torsor, g, k)
    return formulas.count_points(locus.closed_form(r), space), space


def _positive_count(k: int, r: int, g: int) -> str | None:
    n, _ = count(g, k, r)
    return None if n > 0 else f"count {n}"


@_suite("k={} r={} g={}", _positive_count)
def suite_count_integrality(max_r: int) -> Iterator[tuple]:
    """``count`` at the dimension-zero genus is a positive integer (calibrated k)."""
    for k in (k for flavor, k in theta_ring.CALIBRATED if flavor == LOCI["V_eta"].torsor):
        for r in range(max_r + 1):
            g = dimension_zero_genus(k, r)
            if g >= 2:  # the genus-2 domain of the torsor table
                yield k, r, g


def _solves(p: limit_series.LimitProblem) -> None:
    limit_series.solve_unique(p)  # raises unless one survivor, the closed form, is left


@_suite("{0.flavor} g={0.g} r={0.r}", _solves)
def suite_limit_solver(max_g: int, max_r: int) -> Iterator[tuple]:
    """solve_unique proves a unique survivor wherever s >= 0; it raises when the
    survivor differs from the closed form, and the suite reports that error."""
    problems = (limit_series.LimitProblem(flavor, g, r) for flavor in LIMIT_FLAVORS.values()
                for g in range(2, max_g + 1) for r in range(max_r + 1))
    return ((p,) for p in problems if p.s >= 0)


def _w_matches_v(g: int, r: int) -> str | None:
    a = VanishingSequence(tuple(2 * i for i in range(r + 1)))
    got = limit_series.w_locus_expected_dim(g - 1, g + r - 1, a)
    want = LOCI["V"].dim(g, 0, r).value
    return None if got == want else f"{got} != {want}"


@_suite("g={} r={}", _w_matches_v)
def suite_w_consistency(max_g: int, max_r: int) -> Iterator[tuple]:
    """Pointed W-locus dimension matches the unramified expected dimension, at each
    r <= g - 1: past it the vanishing order a_r = 2r exceeds the degree g + r - 1."""
    return ((g, r) for g in range(2, max_g + 1) for r in range(min(max_r, g - 1) + 1))


def _riemann_roch(flavor: str, g: int, k: int) -> str | None:
    space = theta_ring.make_space(flavor, g, k)
    top = theta_ring.degree(theta_ring.ThetaClass(1, space.dim, space.generator), space)
    chi = 1 if flavor == theta_ring.UNRAMIFIED_PM else 2**g
    want = math.factorial(space.dim) * chi
    return None if top == want else f"{top} != {want}"


@_suite("{} g={} k={}", _riemann_roch)
def suite_degree_table(max_g: int) -> Iterator[tuple]:
    """Top self-intersections match Riemann-Roch on the torsor: theta^dim = dim! chi,
    chi = 2^g on the twisted torsors (polarization type (1,...,1,2,...,2), g twos;
    Birkenhake-Lange, Complex Abelian Varieties, ch. 12) and chi = 1 on P+/P-."""
    return ((flavor, g, k) for g in range(2, max_g + 1) for flavor, k in theta_ring.CALIBRATED)


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
