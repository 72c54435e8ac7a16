import gc
import re
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymbn import limit_series
from prymbn.bn_numerics import VanishingSequence, expected_dim_V, rho_pointed
from prymbn.errors import InvariantViolationError, ParameterError
from prymbn.limit_series import (
    FLAVORS,
    RAMIFIED_DUAL,
    RAMIFIED_X_PLUS_Y,
    UNRAMIFIED_DELTA1,
    AdditivityReport,
    LimitProblem,
    additivity_report,
    complementary_vanishing,
    enumerate_candidates,
    prym_limit_vanishing,
    prym_limit_vanishing_dual,
    prym_limit_vanishing_ramified,
    solve_unique,
    w_locus_expected_dim,
)


def naive_candidates(p):
    """Every strictly increasing (r+1)-subset of [0, d] passing the sum,
    parity/gap and (for the directly-posed problems) both rho filters, as the
    entries of a validated VanishingSequence."""
    s, d = p.s, p.degree
    if s < 0:
        return []
    out = []
    for entries in combinations(range(d + 1), p.r + 1):
        if sum(entries) != p.target_sum:
            continue
        if p.flavor == RAMIFIED_X_PLUS_Y:
            if any(y - x < 2 for x, y in zip(entries, entries[1:])):
                continue
        elif len({e % 2 for e in entries}) > 1:
            continue
        a = VanishingSequence(entries)
        if p.flavor != RAMIFIED_DUAL and (
            rho_pointed(p.component_genus, p.r, d, a) != s
            or rho_pointed(p.component_genus, p.r, d, complementary_vanishing(d, a)) != s
        ):
            continue
        out.append(a.entries)
    return out


def full_section_count_rule(g, r, a):
    """The unramified section-count rule term by term, with no shortcut:
    g+r-1-a_{r-i}-i = #{j : a_j >= a_{r-i}+2} for every i."""
    return all(g + r - 1 - order - i == sum(1 for aj in a if aj >= order + 2)
               for i, order in enumerate(reversed(a)))


def dp_count(p):
    """Number of strictly increasing (r+1)-tuples in [0, d] with the target
    sum and the flavor's step rule, by dynamic programming over (last, sum)."""
    step = 1 if p.flavor == RAMIFIED_X_PLUS_Y else 2
    d, target = p.degree, p.target_sum
    ends = {(x, x): 1 for x in range(d + 1)}
    for _ in range(p.r):
        longer = defaultdict(int)
        for (x, total), n in ends.items():
            for y in range(x + 2, min(d, target - total) + 1, step):
                longer[y, total + y] += n
        ends = longer
    return sum(n for (_, total), n in ends.items() if total == target)


class TestComplementaryVanishing:
    def test_self_complementary_solution(self):
        a = VanishingSequence.of(3, 5)
        assert complementary_vanishing(8, a) == a

    def test_endpoints(self):
        a = VanishingSequence.of(0, 8)
        assert complementary_vanishing(8, a) == a

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            complementary_vanishing(4, VanishingSequence.of(0, 5))

    @given(st.integers(1, 30), st.data())
    def test_involution(self, d, data):
        size = data.draw(st.integers(1, min(d + 1, 6)))
        entries = data.draw(
            st.lists(st.integers(0, d), min_size=size, max_size=size, unique=True)
        )
        a = VanishingSequence(tuple(sorted(entries)))
        assert complementary_vanishing(d, complementary_vanishing(d, a)) == a


class TestClosedForms:
    def test_unramified(self):
        assert prym_limit_vanishing(5, 1).entries == (3, 5)
        assert prym_limit_vanishing(4, 2).entries == (1, 3, 5)

    @pytest.mark.parametrize("g", range(2, 10))
    def test_unramified_rank_zero(self, g):
        assert prym_limit_vanishing(g, 0).entries == (g - 1,)

    def test_ramified(self):
        assert prym_limit_vanishing_ramified(5, 1).entries == (4, 6)
        assert prym_limit_vanishing_ramified(3, 2).entries == (1, 3, 5)

    @pytest.mark.parametrize("g", range(1, 10))
    def test_ramified_rank_zero(self, g):
        assert prym_limit_vanishing_ramified(g, 0).entries == (g,)

    def test_out_of_range_raises(self):
        with pytest.raises(ParameterError):
            prym_limit_vanishing(2, 2)
        with pytest.raises(ParameterError):
            prym_limit_vanishing_ramified(2, 3)

    def test_self_complementarity(self):
        for g in range(2, 21):
            for r in range(6):
                if g - 1 - r * (r + 1) // 2 < 0:
                    continue
                a = prym_limit_vanishing(g, r)
                assert complementary_vanishing(2 * g - 2, a) == a

    def test_sum_identities(self):
        for g in range(2, 51):
            for r in range(5):
                if g - 1 - r * (r + 1) // 2 >= 0:
                    assert prym_limit_vanishing(g, r).weight == (r + 1) * (g - 1)
                if g - r * (r + 1) // 2 >= 0:
                    assert prym_limit_vanishing_ramified(g, r).weight == (r + 1) * g


class TestDual:
    @pytest.mark.parametrize(
        "g,r,expected", [(5, 1, (3, 5)), (6, 2, (3, 5, 7)), (4, 0, (3,))]
    )
    def test_examples(self, g, r, expected):
        assert prym_limit_vanishing_dual(g, r).entries == expected

    def test_matches_direct_closed_form(self):
        for g in range(2, 16):
            for r in range(5):
                if g - (r + 1) * (r + 2) // 2 < 0:
                    continue
                assert prym_limit_vanishing_dual(g, r) == prym_limit_vanishing(g, r)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            prym_limit_vanishing_dual(2, 2)

    @pytest.mark.parametrize("shift,i", [(2, 0), (-1, 1)])
    def test_counting_check_reads_the_rank_r_plus_1_orders(self, monkeypatch, shift, i):
        # Shifted rank-3 orders break the Riemann-Roch count #{j : a_j >= 2g - c_i} = i.
        real = limit_series.prym_limit_vanishing_ramified
        monkeypatch.setattr(
            limit_series, "prym_limit_vanishing_ramified",
            lambda g, r: VanishingSequence(tuple(c + shift for c in real(g, r))),
        )
        with pytest.raises(InvariantViolationError) as info:
            prym_limit_vanishing_dual(6, 2)
        assert str(info.value) == f"dual order counting fails at i={i} for g=6, r=2"


class TestEnumerate:
    def test_g5_r1(self):
        got = enumerate_candidates(LimitProblem(UNRAMIFIED_DELTA1, 5, 1))
        assert got == [(0, 8), (1, 7), (2, 6), (3, 5)]
        assert all(type(a) is tuple for a in got)

    def test_g3_r1(self):
        got = enumerate_candidates(LimitProblem(UNRAMIFIED_DELTA1, 3, 1))
        assert got == [(0, 4), (1, 3)]
        assert all(type(a) is tuple for a in got)

    def test_negative_s_is_empty(self):
        for flavor in (UNRAMIFIED_DELTA1, RAMIFIED_X_PLUS_Y, RAMIFIED_DUAL):
            assert enumerate_candidates(LimitProblem(flavor, 2, 2)) == []

    def test_lexicographic_order(self):
        for g in (4, 6, 7):
            got = enumerate_candidates(LimitProblem(UNRAMIFIED_DELTA1, g, 2))
            assert got and all(type(a) is tuple for a in got)
            assert got == sorted(got)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_matches_naive_walk(self, flavor):
        # The sweep holds the walk's edges: r = 0 (the root is the leaf),
        # r = 1 (the root is the closed k == 2 level) and s = 0.
        checked, seen = 0, set()
        for g in range(1, 21):
            for r in range(6):
                p = LimitProblem(flavor, g, r)
                if comb(p.degree + 1, r + 1) > 2 * 10**5:
                    continue
                got = enumerate_candidates(p)
                assert got == naive_candidates(p), (flavor, g, r)
                # What the VanishingSequence constructor checked, held of the raw tuples.
                assert all(type(a) is tuple and len(a) == r + 1
                           and all(type(x) is int for x in a)
                           and all(x < y for x, y in zip(a, a[1:]))
                           and 0 <= a[0] and a[-1] <= p.degree for a in got), (flavor, g, r)
                seen |= {("r", r), ("s", p.s)}
                checked += 1
        assert checked > 100 and {("r", 0), ("r", 1), ("s", 0)} <= seen

    @pytest.mark.parametrize(
        "flavor,expected", [(UNRAMIFIED_DELTA1, 6225), (RAMIFIED_X_PLUS_Y, 93844)]
    )
    def test_count_matches_dp_beyond_the_oracle(self, flavor, expected):
        p = LimitProblem(flavor, 24, 5)
        assert dp_count(p) == expected
        assert len(enumerate_candidates(p)) == expected

    def test_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for flavor in (RAMIFIED_X_PLUS_Y, UNRAMIFIED_DELTA1):
                p = LimitProblem(flavor, 9, 2)
                enumerate_candidates(p)
                solve_unique(p)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_closed_form_is_always_a_candidate(self):
        for g in range(3, 10):
            for r in range(4):
                p = LimitProblem(RAMIFIED_X_PLUS_Y, g, r)
                if p.s < 0:
                    continue
                assert prym_limit_vanishing_ramified(g, r).entries in enumerate_candidates(p)


class TestEndpointFilter:
    """_endpoint_filter_unramified tests a_r = g+r-1 first; the answer is the full rule's."""

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=7, unique=True).map(sorted),
           st.integers(-2, 2), st.integers(-1, 1))
    def test_shortcut_matches_the_full_rule(self, entries, dg, dr):
        a = tuple(entries)
        r = len(a) - 1 + dr
        g = a[-1] - r + 1 + dg  # dg = 0 passes the i = 0 term, so the rest is reached
        assert (limit_series._endpoint_filter_unramified(g, r, a)
                == full_section_count_rule(g, r, a))

    def test_shortcut_matches_the_full_rule_on_every_naive_candidate(self):
        checked = passed = 0
        for g in range(1, 11):
            for r in range(4):
                for a in naive_candidates(LimitProblem(UNRAMIFIED_DELTA1, g, r)):
                    got = limit_series._endpoint_filter_unramified(g, r, a)
                    assert got == full_section_count_rule(g, r, a), (g, r, a)
                    checked, passed = checked + 1, passed + got
        assert checked > 150 and passed > 20


FILTERS = {UNRAMIFIED_DELTA1: limit_series._endpoint_filter_unramified,
           RAMIFIED_X_PLUS_Y: limit_series._endpoint_filter_ramified}


class TestPrunedWalk:
    """enumerate_candidates(p, keep) tests each prefix at its shifted problem, so it must
    list exactly the full walk's tuples that pass keep at (g, r)."""

    @pytest.mark.parametrize("flavor", FILTERS)
    def test_matches_the_filtered_full_walk(self, flavor):
        # The sweep holds the walk's edges: r = 0 (the root is the leaf),
        # r = 1 (the root's children are leaves) and s = 0.
        keep, checked, seen = FILTERS[flavor], 0, set()
        for g in range(1, 21):
            for r in range(6):
                p = LimitProblem(flavor, g, r)
                full = enumerate_candidates(p)
                survivors = [a for a in full if keep(g, r, a)]
                assert enumerate_candidates(p, keep) == survivors, (flavor, g, r)
                assert enumerate_candidates(p, lambda g, r, a: True) == full, (flavor, g, r)
                assert enumerate_candidates(p, lambda g, r, a: False) == [], (flavor, g, r)
                if p.s >= 0:
                    assert survivors == [solve_unique(p).entries], (flavor, g, r)
                    seen |= {("r", r), ("s", p.s)}
                checked += 1
        assert checked == 120 and {("r", 0), ("r", 1), ("s", 0)} <= seen

    @pytest.mark.parametrize("flavor", FILTERS)
    @pytest.mark.parametrize("verdict", [True, False])
    def test_a_constant_filter_names_the_same_survivors(self, monkeypatch, flavor, verdict):
        p = LimitProblem(flavor, 6, 2)
        monkeypatch.setattr(limit_series, FILTERS[flavor].__name__, lambda g, r, a: verdict)
        with pytest.raises(InvariantViolationError) as info:
            solve_unique(p)
        survivors = enumerate_candidates(p) if verdict else []
        assert str(info.value) == (f"{flavor} g=6 r=2: survivors {survivors} are not exactly"
                                   f" the closed form {limit_series._centered(p).entries}")


class TestLimitProblem:
    @pytest.mark.parametrize("bad", [5.5, Fraction(11, 2), "5"])
    def test_rejects_non_integer_g_or_r(self, bad):
        for g, r in ((bad, 1), (5, bad)):
            with pytest.raises(ParameterError, match=re.escape(repr(bad))):
                LimitProblem(RAMIFIED_X_PLUS_Y, g, r)


class TestSolveUnique:
    def test_unramified_example(self):
        p = LimitProblem(UNRAMIFIED_DELTA1, 5, 1)
        assert solve_unique(p).entries == (3, 5)

    def test_ramified_example(self):
        p = LimitProblem(RAMIFIED_X_PLUS_Y, 5, 1)
        assert solve_unique(p).entries == (4, 6)

    def test_unramified_r2(self):
        p = LimitProblem(UNRAMIFIED_DELTA1, 4, 2)
        assert solve_unique(p).entries == (1, 3, 5)

    def test_dual_flavor_delegates(self):
        p = LimitProblem(RAMIFIED_DUAL, 6, 2)
        assert solve_unique(p).entries == (3, 5, 7)

    def test_negative_s_raises(self):
        with pytest.raises(ParameterError):
            solve_unique(LimitProblem(UNRAMIFIED_DELTA1, 2, 2))

    def test_rho_check_on_survivor_names_the_problem(self, monkeypatch):
        monkeypatch.setattr(limit_series, "rho_pointed", lambda g, r, d, a: -1)
        with pytest.raises(InvariantViolationError, match="ramified_x_plus_y g=5 r=1"):
            solve_unique(LimitProblem(RAMIFIED_X_PLUS_Y, 5, 1))

    def test_oracle_agreement_sweep(self):
        for flavor, closed in (
            (UNRAMIFIED_DELTA1, prym_limit_vanishing),
            (RAMIFIED_X_PLUS_Y, prym_limit_vanishing_ramified),
        ):
            for g in range(2, 13):
                for r in range(5):
                    p = LimitProblem(flavor, g, r)
                    if p.s < 0:
                        continue
                    assert solve_unique(p) == closed(g, r)


class TestAdditivityReport:
    def test_unique_solution(self):
        a = VanishingSequence.of(3, 5)
        got = additivity_report(5, 1, a, a)
        assert got == AdditivityReport(5, (3, 3), -1, True)

    def test_spurious_candidate_still_balances(self):
        # the rho chain alone cannot reject (0,8); the endpoint filter can
        a = VanishingSequence.of(0, 8)
        got = additivity_report(5, 1, a, a)
        assert got.aspect_rhos == (3, 3)
        assert got.equality

    def test_rank_zero(self):
        g = 6
        a = VanishingSequence.of(g - 1)
        got = additivity_report(g, 0, a, a)
        assert got.lhs == 2 * (g - 1)
        assert got.bridge_rho == 0
        assert got.equality

    def test_equality_for_all_solutions(self):
        for g in range(2, 13):
            for r in range(5):
                if g - 1 - r * (r + 1) // 2 < 0:
                    continue
                a = prym_limit_vanishing(g, r)
                assert additivity_report(g, r, a, a).equality


class TestWLocus:
    def test_direct_value(self):
        assert w_locus_expected_dim(4, 6, VanishingSequence.of(0, 2)) == 5

    def test_consistency_identity(self):
        assert w_locus_expected_dim(4, 5, VanishingSequence.of(0, 2)) == 3

    def test_matches_unramified_expected_dim(self):
        for g in range(2, 31):
            for r in range(7):
                if 2 * r > g + r - 1:
                    continue
                a = VanishingSequence(tuple(2 * i for i in range(r + 1)))
                got = w_locus_expected_dim(g - 1, g + r - 1, a)
                assert got == expected_dim_V(g, 0, r).value
