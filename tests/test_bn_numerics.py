import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prymbn.bn_numerics import (
    EMPTY,
    LOWER_BOUND_ONLY,
    NONEMPTY,
    THEOREM_EXACT,
    UNKNOWN,
    VanishingSequence,
    expected_dim_V,
    expected_dim_V_divisor,
    expected_dim_V_eta,
    expected_dim_V_eta_divisor,
    expected_dim_V_eta_pointed,
    rho,
    rho_pointed,
)
from prymbn.errors import ParameterError


class TestVanishingSequence:
    def test_basic_derived_values(self):
        a = VanishingSequence.of(3, 5)
        assert a.r == 1
        assert a.weight == 8

    @pytest.mark.parametrize("bad", [(3, 3), (5, 2), (-1, 0), ()])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            VanishingSequence(bad)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((0, 0), "vanishing orders must strictly increase: (0, 0)"),
            ((3, 1), "vanishing orders must strictly increase: (3, 1)"),
            ((-1, 2), "vanishing orders must be non-negative, got entries=(-1, 2)"),
            ((), "vanishing sequence must be non-empty, got entries=()"),
            ((0, 1.0), "expected an integer for vanishing orders, got 1.0"),
            ((0, Fraction(1, 2)), "expected an integer for vanishing orders, got Fraction(1, 2)"),
            (("1",), "expected an integer for vanishing orders, got '1'"),
            # Every Fraction is refused, an integral one too; it prints reduced.
            ((0, Fraction(4, 2)), "expected an integer for vanishing orders, got Fraction(2, 1)"),
        ],
    )
    def test_refusal_messages(self, bad, message):
        with pytest.raises(ParameterError) as info:
            VanishingSequence(bad)
        assert str(info.value) == message

    def test_bools_pass_as_zero_and_one(self):
        # bool has __index__, so _integers accepts it and stores plain ints.
        got = VanishingSequence((False, True)).entries
        assert got == (0, 1) and all(type(e) is int for e in got)

    @pytest.mark.parametrize("bad", [2.7, Fraction(7, 2), "2"])
    def test_rejects_non_integer_order(self, bad):
        # int() would truncate 2.7 and 7/2 and parse "2": all refused.
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            VanishingSequence((0, bad))


class TestRho:
    def test_paper_value(self):
        # rho(2g-1, r, 2g-2) at g = 5, r = 1 equals -r + 2s with s = 3
        assert rho(9, 1, 8) == 5

    def test_formula_value(self):
        assert rho(10, 1, 10) == 8

    @pytest.mark.parametrize("g,d", [(0, 0), (3, 2), (7, 11)])
    def test_rank_zero_gives_degree(self, g, d):
        assert rho(g, 0, d) == d

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            rho(-1, 0, 0)

    def test_serre_duality_symmetry(self):
        for g in range(1, 21):
            for r in range(g + 2):
                for d in range(2 * g - 1):
                    r2 = g - d + r - 1
                    if r2 < 0:
                        continue
                    assert rho(g, r, d) == rho(g, r2, 2 * g - 2 - d)


class TestRhoPointed:
    def test_example(self):
        assert rho_pointed(4, 1, 8, VanishingSequence.of(3, 5)) == 3

    def test_trivial_sequence_is_unadjusted(self):
        a = VanishingSequence.of(0, 1, 2)
        assert rho_pointed(7, 2, 9, a) == rho(7, 2, 9)

    def test_direct_evaluation(self):
        assert rho_pointed(4, 1, 4, VanishingSequence.of(0, 2)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            rho_pointed(4, 2, 8, VanishingSequence.of(3, 5))

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            rho_pointed(4, 1, 4, VanishingSequence.of(0, 5))

    @given(st.integers(0, 20), st.integers(0, 5), st.data())
    def test_never_exceeds_rho(self, g, r, data):
        d = data.draw(st.integers(r, 40))
        entries = data.draw(
            st.lists(st.integers(0, d), min_size=r + 1, max_size=r + 1, unique=True)
        )
        a = VanishingSequence(tuple(sorted(entries)))
        adjusted = rho_pointed(g, r, d, a)
        assert adjusted <= rho(g, r, d)
        assert (adjusted == rho(g, r, d)) == (a.entries == tuple(range(r + 1)))


class TestExpectedDimV:
    def test_k1_exact_nonempty(self):
        rep = expected_dim_V(10, 1, 2)
        assert rep.value == 4
        assert rep.exactness == THEOREM_EXACT
        assert rep.emptiness == NONEMPTY

    def test_k0_empty(self):
        rep = expected_dim_V(5, 0, 3)
        assert rep.value == -2
        assert rep.exactness == THEOREM_EXACT
        assert rep.emptiness == EMPTY

    @pytest.mark.parametrize("g", range(2, 12))
    def test_k1_rank_zero(self, g):
        assert expected_dim_V(g, 1, 0).value == g - 1

    def test_k3_is_lower_bound_only(self):
        rep = expected_dim_V(10, 3, 1)
        assert rep.exactness == LOWER_BOUND_ONLY
        assert rep.emptiness == UNKNOWN

    def test_kanev_bound_at_k1_matches_exact_formula(self):
        for g in range(2, 51):
            for r in range(11):
                value = expected_dim_V(g, 1, r).value
                assert value == g - (r + 1) * (r + 2) // 2


class TestExpectedDimVEta:
    @pytest.mark.parametrize(
        "g,k,r,value", [(3, 1, 1, 0), (2, 2, 1, 0), (1, 0, 1, -3)]
    )
    def test_examples(self, g, k, r, value):
        rep = expected_dim_V_eta(g, k, r)
        assert rep.value == value
        assert rep.exactness == THEOREM_EXACT

    def test_k0_negative_is_empty(self):
        assert expected_dim_V_eta(1, 0, 1).emptiness == EMPTY

    def test_k0_nonnegative_is_unknown(self):
        assert expected_dim_V_eta(8, 0, 1).emptiness == UNKNOWN

    def test_rejects_k3(self):
        with pytest.raises(ParameterError):
            expected_dim_V_eta(4, 3, 1)


class TestExpectedDimVEtaPointed:
    def test_example(self):
        rep = expected_dim_V_eta_pointed(5, 1, VanishingSequence.of(0, 2))
        assert rep.value == 1
        assert rep.exactness == THEOREM_EXACT

    def test_negative_is_empty(self):
        rep = expected_dim_V_eta_pointed(2, 0, VanishingSequence.of(0, 2))
        assert rep.value == -3
        assert rep.emptiness == EMPTY

    def test_out_of_range_sequence(self):
        with pytest.raises(ParameterError):
            expected_dim_V_eta_pointed(2, 0, VanishingSequence.of(0, 4))

    def test_trivial_sequence_matches_unpointed(self):
        for g in range(2, 51):
            for k in (0, 1, 2):
                for r in range(9):
                    a = VanishingSequence(tuple(range(r + 1)))
                    if a[-1] > 2 * g - 2 + k:
                        continue
                    assert (
                        expected_dim_V_eta_pointed(g, k, a).value
                        == expected_dim_V_eta(g, k, r).value
                    )


class TestDivisorTwists:
    def test_example_exact(self):
        rep = expected_dim_V_divisor(10, 0, 1, 2)
        assert rep.value == 4
        assert rep.exactness == THEOREM_EXACT

    def test_example_empty(self):
        rep = expected_dim_V_divisor(4, 0, 1, 2)
        assert rep.value == -2
        assert rep.emptiness == EMPTY

    def test_eta_example(self):
        rep = expected_dim_V_eta_divisor(6, 1, 1, 1)
        assert rep.value == 1
        assert rep.exactness == THEOREM_EXACT

    def test_eta_empty(self):
        rep = expected_dim_V_eta_divisor(3, 0, 1, 1)
        assert rep.value == -3
        assert rep.emptiness == EMPTY

    def test_eta_rejects_negative_genus(self):
        with pytest.raises(ParameterError):
            expected_dim_V_eta_divisor(-5, 1, 0, 0)

    def test_d0_reduces_to_base_cases(self):
        for g in range(2, 31):
            for k in (0, 1, 2):
                for r in range(7):
                    assert (
                        expected_dim_V_divisor(g, k, r, 0).value
                        == expected_dim_V(g, k, r).value
                    )
                    twisted = expected_dim_V_eta_divisor(g, k, r, 0)
                    base = expected_dim_V_eta(g, k, r)
                    assert (twisted.value, twisted.exactness, twisted.emptiness) == (
                        base.value, base.exactness, base.emptiness
                    )


# One call of each of the five reports, over small values and some invalid ones
# (-1, k = 3 or 4 for the twisted loci, a top order past 2g-2+k).
_n, _k, _r = st.integers(-1, 30), st.integers(-1, 4), st.integers(-1, 8)
_a = st.sets(st.integers(0, 12), min_size=1, max_size=5).map(
    lambda s: VanishingSequence.of(*sorted(s)))
_report_calls = st.one_of(
    st.tuples(st.just(expected_dim_V), st.tuples(_n, _k, _r)),
    st.tuples(st.just(expected_dim_V_eta), st.tuples(_n, _k, _r)),
    st.tuples(st.just(expected_dim_V_eta_pointed), st.tuples(_n, _k, _a)),
    st.tuples(st.just(expected_dim_V_divisor), st.tuples(_n, _k, _r, _n)),
    st.tuples(st.just(expected_dim_V_eta_divisor), st.tuples(_n, _k, _r, _n)),
)


class TestReportRule:
    """What any report may claim: emptiness only where the cited theorem proves it."""

    @given(_report_calls)
    @example((expected_dim_V, (2, 3, 2)))  # lower bound -8
    @example((expected_dim_V_divisor, (2, 1, 1, 3)))  # lower bound -7
    @example((expected_dim_V, (10, 3, 1)))  # lower bound 5
    def test_claims_follow_exactness_and_sign(self, call):
        f, args = call
        try:
            rep = f(*args)
        except ParameterError:
            return
        if rep.emptiness == EMPTY:
            assert rep.exactness == THEOREM_EXACT and rep.value < 0
        if rep.emptiness == NONEMPTY:
            assert rep.exactness == THEOREM_EXACT and rep.value >= 0
        if rep.exactness == LOWER_BOUND_ONLY:
            assert rep.emptiness == UNKNOWN

    @pytest.mark.parametrize(
        "f,args,value", [(expected_dim_V, (2, 3, 2), -8), (expected_dim_V_divisor, (2, 1, 1, 3), -7)]
    )
    def test_negative_lower_bound_is_unknown(self, f, args, value):
        rep = f(*args)
        assert (rep.value, rep.exactness, rep.emptiness) == (value, LOWER_BOUND_ONLY, UNKNOWN)
