import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymbn import verify
from prymbn.bn_numerics import VanishingSequence
from prymbn.errors import ParameterError
from prymbn.formulas import (
    ChernSeries,
    chern_series_W,
    twisted_class,
    twisted_pointed_class,
    unramified_class,
)
from prymbn.lagrangian import (
    StrictPartition,
    eval_identity,
    lagrangian_class_pointed,
    lagrangian_class_twisted,
    lagrangian_class_unramified,
    p_tilde,
    partition_for,
    q_tilde,
    q_tilde_table,
    q_two,
    staircase,
)
from prymbn.theta_ring import ThetaClass, substitute_theta_prime_as_2xi


def laplace_pfaffian(parts, entry):
    """First-row Laplace expansion of the Pfaffian of entry(p, q) over parts.

    (n-1)!! terms for n parts: the reference the engine's elimination is
    checked against on small partitions.
    """
    if not parts:
        return Fraction(1)
    return sum(
        (-1) ** (i - 1)
        * entry(parts[0], parts[i])
        * laplace_pfaffian(parts[1:i] + parts[i + 1 :], entry)
        for i in range(1, len(parts))
    )


def literal_q2(a, b, c):
    """Q_(a,b) = c_a c_b + 2 sum_{j=1}^{b} (-1)^j c_{a+j} c_{b-j}, term by term in Fraction.

    The reference for the engine's integer sums over one common denominator.
    """
    total = c[a] * c[b]
    for j in range(1, b + 1):
        total += 2 * (-1) ** j * c[a + j] * c[b - j]
    return total


def literal_eval_identity(lam):
    """prod_i 1/lambda_i! * prod_{i<j} (lambda_i-lambda_j)/(lambda_i+lambda_j), factor by factor.

    The reference for eval_identity's one integer ratio.
    """
    coeff = Fraction(1)
    for p in lam.parts:
        coeff /= math.factorial(p)
    parts = lam.parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            coeff *= Fraction(parts[i] - parts[j], parts[i] + parts[j])
    return coeff


def laplace_q_tilde(lam, c):
    """Q-tilde from the two-row classes q_two alone, by Laplace expansion."""
    parts = lam.parts + (0,) * (lam.length % 2)
    return laplace_pfaffian(parts, lambda a, b: q_two(a, b, c).coeff)


@st.composite
def strict_partitions_to_weight(draw, max_weight):
    """Distinct parts, small ones favoured, each kept while the weight stays <= max_weight."""
    drawn = draw(
        st.lists(
            st.integers(1, 12) | st.integers(1, max_weight),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    parts = []
    for p in drawn:
        if sum(parts) + p <= max_weight:
            parts.append(p)
    return StrictPartition(tuple(sorted(parts, reverse=True)))


class TestStrictPartition:
    def test_derived_values(self):
        lam = StrictPartition.of(5, 3, 1)
        assert lam.length == 3
        assert lam.weight == 9

    @pytest.mark.parametrize("bad", [(3, 3), (1, 2), (2, 0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            StrictPartition(bad)

    @pytest.mark.parametrize("bad", [3.9, Fraction(7, 2), "3", Fraction(6, 2)])
    def test_rejects_non_integer_part(self, bad):
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            StrictPartition((bad, 1))

    def test_staircase(self):
        assert staircase(4).parts == (4, 3, 2, 1)

    def test_staircase_zero_is_empty(self):
        assert staircase(0).parts == ()
        with pytest.raises(ParameterError):
            staircase(-1)


class TestQTwo:
    def test_single_part_is_chern_class(self):
        c = chern_series_W(1)
        assert q_two(1, 0, c).coeff == 1

    def test_two_one(self):
        # c_2 c_1 - 2 c_3 = 1/2 - 1/3
        assert q_two(2, 1, chern_series_W(3)).coeff == Fraction(1, 6)

    def test_three_two(self):
        # c_3 c_2 - 2 c_4 c_1 + 2 c_5 = 1/12 - 1/12 + 1/60
        got = q_two(3, 2, chern_series_W(5))
        assert got.coeff == Fraction(1, 60)
        assert got.exponent == 5

    def test_truncation_too_short(self):
        with pytest.raises(ParameterError):
            q_two(3, 2, chern_series_W(4))

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            q_two(2, 2, chern_series_W(4))


class TestQTilde:
    def test_single_row(self):
        got = q_tilde(StrictPartition.of(1), chern_series_W(1))
        assert (got.coeff, got.exponent) == (1, 1)

    def test_two_rows(self):
        got = q_tilde(StrictPartition.of(2, 1), chern_series_W(3))
        assert (got.coeff, got.exponent) == (Fraction(1, 6), 3)

    def test_three_rows(self):
        got = q_tilde(StrictPartition.of(3, 2, 1), chern_series_W(6))
        assert (got.coeff, got.exponent) == (Fraction(1, 360), 6)

    def test_exponent_is_weight(self):
        for lam in verify.strict_partitions(12):
            got = q_tilde(lam, chern_series_W(lam.weight))
            assert got.exponent == lam.weight

    def test_skew_entry_off_lagrangian_data(self):
        # The matrix holds only Q_(a,b) for a > b: here Q_(3,1) = -1, not the
        # formula read at (1,3).
        lam, c = StrictPartition.of(3, 1), ChernSeries((1, 1, 1, 1, 1))
        assert q_tilde(lam, c).coeff == -1

    def test_empty_partition_is_one(self):
        lam, c = StrictPartition(()), chern_series_W(0)
        assert q_tilde(lam, c) == p_tilde(lam, c) == ThetaClass(1, 0)

    def test_truncation_needs_only_the_first_two_parts(self):
        # Q_(a,b) reads c up to a + b, so staircase(5) needs order 5 + 4, not 15.
        lam = staircase(5)
        assert q_tilde(lam, chern_series_W(9)) == q_tilde(lam, chern_series_W(15))
        with pytest.raises(ParameterError):
            q_tilde(lam, chern_series_W(8))


class TestLaplaceOracle:
    # Chern data drawn mostly from {0, +-1, 2} makes zero pivots common: a
    # two-row class that vanishes forces a row swap, a vanishing row a zero.
    # The tail runs from lambda_1 + lambda_2, the shortest q_tilde accepts, to |lambda|.
    @given(st.sets(st.integers(1, 11), min_size=1, max_size=7), st.data())
    def test_engine_matches_laplace_expansion(self, parts, data):
        lam = StrictPartition(tuple(sorted(parts, reverse=True)))
        tail = data.draw(
            st.lists(
                st.sampled_from((0, 1, -1, 2)) | st.integers(-4, 4),
                min_size=sum(lam.parts[:2]),
                max_size=lam.weight,
            )
        )
        c = ChernSeries((1, *tail))
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c)

    def test_zero_leading_pivot_swaps_rows(self):
        # Only c_3 = 1 besides c_0: Q_(3,2) = Q_(3,1) = 0, so elimination
        # must pivot on Q_(3,0) = 1; the Pfaffian is Q_(3,0) Q_(2,1) = -2.
        lam, c = StrictPartition.of(3, 2, 1), ChernSeries((1, 0, 0, 1, 0, 0, 0))
        assert q_two(3, 2, c).coeff == 0
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c) == -2

    def test_zero_row_gives_zero(self):
        # c_i = 0 for i >= 2 makes every Q_(4,b) vanish: row 0 is zero.
        lam, c = StrictPartition.of(4, 2, 1), ChernSeries((1, 1, 0, 0, 0, 0, 0, 0))
        assert all(q_two(4, b, c).coeff == 0 for b in (2, 1, 0))
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c) == 0


class TestRationalChernData:
    # Denominators up to 12 make D, the lcm of the denominators, other than 1,
    # so the integer numerators c_i D and the one division by D^2 are exercised.
    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=7),
        st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)), min_size=17),
    )
    def test_integer_table_matches_literal_fractions(self, parts, tail):
        lam = StrictPartition(tuple(sorted(parts, reverse=True)))
        c = ChernSeries((1, *tail))
        padded = lam.parts + (0,) * (lam.length % 2)
        for i, a in enumerate(padded):
            for b in padded[i + 1 :]:
                assert q_two(a, b, c).coeff == literal_q2(a, b, c)
        want = laplace_pfaffian(padded, lambda a, b: literal_q2(a, b, c))
        assert q_tilde(lam, c).coeff == want


def partition_lists(max_part):
    """One to three strict partitions with parts in 1..max_part, for one shared table."""
    return st.lists(
        st.sets(st.integers(1, max_part), min_size=1, max_size=7).map(
            lambda parts: StrictPartition(tuple(sorted(parts, reverse=True)))
        ),
        min_size=1,
        max_size=3,
    )


class TestQTildeTable:
    # One table serves many partitions; each gets a fresh matrix, so a row swap
    # in one partition's Pfaffian must not reach the next.

    def test_matches_q_tilde_and_laplace_to_weight_16(self):
        lams = list(verify.strict_partitions(16))
        for lam, got in zip(lams, q_tilde_table(lams, chern_series_W(16)), strict=True):
            c = chern_series_W(lam.weight)
            assert got == q_tilde(lam, c)
            assert got.coeff == laplace_q_tilde(lam, c)

    @given(partition_lists(11), st.data())
    def test_zero_pivot_data_matches_laplace(self, lams, data):
        # Chern data as in TestLaplaceOracle, long enough for every partition.
        top = max(sum(lam.parts[:2]) for lam in lams)
        tail = data.draw(
            st.lists(st.sampled_from((0, 1, -1, 2)) | st.integers(-4, 4),
                     min_size=top, max_size=top + 4)
        )
        c = ChernSeries((1, *tail))
        got = [q.coeff for q in q_tilde_table(lams + lams, c)]
        assert got == [laplace_q_tilde(lam, c) for lam in lams + lams]
        assert got == [q_tilde(lam, c).coeff for lam in lams + lams]

    @given(
        partition_lists(9),
        st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)), min_size=17),
    )
    def test_rational_data_matches_literal_fractions(self, lams, tail):
        c = ChernSeries((1, *tail))
        got = [q.coeff for q in q_tilde_table(lams + lams, c)]
        padded = [lam.parts + (0,) * (lam.length % 2) for lam in lams + lams]
        assert got == [laplace_pfaffian(p, lambda a, b: literal_q2(a, b, c)) for p in padded]
        assert got == [q_tilde(lam, c).coeff for lam in lams + lams]

    def test_row_swap_does_not_leak(self):
        # (3, 2, 1) pivots past Q_(3,2) = Q_(3,1) = 0 (see TestLaplaceOracle);
        # the partitions after it read the same entries unswapped.
        c = ChernSeries((1, 0, 0, 1, 0, 0, 0))
        lams = [StrictPartition.of(*p) for p in ((3, 2, 1), (3, 2), (3, 1), (2, 1), (3, 2, 1))]
        got = [q.coeff for q in q_tilde_table(lams, c)]
        assert got == [laplace_q_tilde(lam, c) for lam in lams] == [-2, 0, 0, -2, -2]

    @pytest.mark.parametrize("parts,order", [((4, 2), 6), ((6,), 6), ((5, 3, 1), 8)])
    def test_refuses_partition_past_top(self, parts, order):
        # The table's order is max lambda_1 + lambda_2; a series stopping sooner is refused.
        lams = [StrictPartition.of(3, 2), StrictPartition(parts)]
        with pytest.raises(ParameterError, match=f"truncated at 5, need order {order}$"):
            q_tilde_table(lams, chern_series_W(5))

    def test_empty_list_and_empty_partition(self):
        c = chern_series_W(0)
        assert q_tilde_table([], c) == []
        assert q_tilde_table([StrictPartition(())], c) == [ThetaClass(1, 0)]

    def test_table_needs_the_series_to_its_top(self):
        with pytest.raises(ParameterError, match="truncated at 4, need order 5"):
            q_tilde_table([StrictPartition.of(3, 2)], chern_series_W(4))


class TestEvalIdentity:
    @pytest.mark.parametrize(
        "parts,value",
        [((2, 1), Fraction(1, 6)), ((3, 2, 1), Fraction(1, 360)), ((3, 2), Fraction(1, 60))],
    )
    def test_examples(self, parts, value):
        assert eval_identity(StrictPartition(parts)) == value

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_part(self, n):
        assert eval_identity(StrictPartition.of(n)) == Fraction(1, math.factorial(n))

    def test_matches_literal_product_to_weight_30(self):
        for lam in verify.strict_partitions(30):
            assert eval_identity(lam) == literal_eval_identity(lam)

    def test_matches_literal_product_at_staircase_40(self):
        lam = staircase(40)
        assert eval_identity(lam) == literal_eval_identity(lam)

    def test_agrees_with_engine(self):
        for lam in verify.strict_partitions(18):
            engine = q_tilde(lam, chern_series_W(lam.weight))
            assert engine.coeff == eval_identity(lam)

    @given(strict_partitions_to_weight(80))
    def test_agrees_with_engine_to_weight_80(self, lam):
        engine = q_tilde(lam, chern_series_W(lam.weight))
        assert engine.coeff == eval_identity(lam)

    def test_agrees_with_engine_at_staircase_40(self):
        # Laplace expansion would take 39!! terms here; elimination is O(n^3).
        lam = staircase(40)
        assert q_tilde(lam, chern_series_W(lam.weight)).coeff == eval_identity(lam)


class TestPTilde:
    def test_single_row(self):
        got = p_tilde(StrictPartition.of(1), chern_series_W(1))
        assert got.coeff == Fraction(1, 2)

    def test_two_rows(self):
        got = p_tilde(StrictPartition.of(2, 1), chern_series_W(3))
        assert got.coeff == Fraction(1, 24)

    def test_unramified_reproduction(self):
        for r in range(1, 9):
            lam = staircase(r)
            engine = substitute_theta_prime_as_2xi(
                p_tilde(lam, chern_series_W(lam.weight))
            )
            assert engine == unramified_class(r)

    @pytest.mark.parametrize("r", range(9))
    def test_unramified_engine_class(self, r):
        assert lagrangian_class_unramified(r) == unramified_class(r)

    def test_unramified_engine_refuses_negative_rank(self):
        with pytest.raises(ParameterError, match="rank must be non-negative"):
            lagrangian_class_unramified(-1)


class TestPointedClass:
    def test_partition_mapping(self):
        assert partition_for(VanishingSequence.of(0, 2, 5)).parts == (6, 3, 1)

    @pytest.mark.parametrize(
        "entries,coeff,exponent",
        [((0, 1), Fraction(1, 6), 3), ((0,), Fraction(1), 1), ((0, 2), Fraction(1, 12), 4)],
    )
    def test_examples(self, entries, coeff, exponent):
        got = lagrangian_class_pointed(VanishingSequence(entries))
        assert (got.coeff, got.exponent) == (coeff, exponent)

    def test_matches_closed_form(self):
        for a in verify.vanishing_sequences(20):
            assert lagrangian_class_pointed(a) == twisted_pointed_class(a)


class TestStaircaseRelation:
    def test_engine_doubles_unpointed_coefficient(self):
        for r in range(7):
            lam = staircase(r + 1)
            engine = q_tilde(lam, chern_series_W(lam.weight))
            assert engine.coeff == 2 ** (r + 1) * twisted_class(r).coeff

    @pytest.mark.parametrize("r", range(7))
    def test_twisted_engine_class_is_pointed_at_0_to_r(self, r):
        pointed = lagrangian_class_pointed(VanishingSequence(tuple(range(r + 1))))
        assert lagrangian_class_twisted(r) == pointed

    def test_twisted_engine_refuses_negative_rank(self):
        with pytest.raises(ParameterError, match="rank must be non-negative"):
            lagrangian_class_twisted(-1)


class TestNegativeControl:
    def test_corrupted_chern_series_breaks_agreement(self):
        # flip one coefficient: engine and oracle must now disagree
        lam = StrictPartition.of(2, 1)
        good = chern_series_W(3)
        bad = type(good)((good[0], good[1], good[2], good[3] + 1))
        assert q_tilde(lam, bad).coeff != eval_identity(lam)
