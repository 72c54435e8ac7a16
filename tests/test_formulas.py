import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymbn import verify
from prymbn.bn_numerics import VanishingSequence
from prymbn.errors import IntegralityError, ParameterError
from prymbn.formulas import (
    ChernSeries,
    chern_series_W,
    count_points,
    twisted_class,
    twisted_pointed_class,
    unramified_class,
)
from prymbn.theta_ring import (
    RAMIFIED_TWISTED,
    THETA_PRIME,
    XI,
    ThetaClass,
    make_space,
)

# The closed forms factor by factor, as reduced rationals: the oracle for the
# one-ratio forms in formulas.  Rank 80 is past every staircase rank that
# verify, the goldens and the benchmark decks use (V_eta below 68,
# V_unramified below 76).
LITERAL_MAX_R = 80


def literal_twisted(r):
    """prod_{i=1}^{r+1} i!/(2i)!."""
    coeff = Fraction(1)
    for i in range(1, r + 2):
        coeff *= Fraction(math.factorial(i), math.factorial(2 * i))
    return coeff


def literal_unramified(r):
    """2^(r(r+1)/2) * prod_{i=1}^{r} i!/(2i)!."""
    coeff = Fraction(2) ** (r * (r + 1) // 2)
    for i in range(1, r + 1):
        coeff *= Fraction(math.factorial(i), math.factorial(2 * i))
    return coeff


def literal_pointed(entries):
    """prod_i 1/(a_i+1)! * prod_{j<i} (a_i-a_j)/(a_i+a_j+2)."""
    coeff = Fraction(1)
    for ai in entries:
        coeff /= math.factorial(ai + 1)
    for i in range(len(entries)):
        for j in range(i):
            coeff *= Fraction(entries[i] - entries[j], entries[i] + entries[j] + 2)
    return coeff


class TestChernSeries:
    def test_first_values(self):
        c = chern_series_W(3)
        assert c.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6))

    def test_truncation_zero(self):
        assert chern_series_W(0).coeffs == (Fraction(1),)

    def test_q2_reduced(self):
        q2 = chern_series_W(5)[2]
        assert (q2.numerator, q2.denominator) == (1, 2)

    def test_incremental_factorials_match_literal_form(self):
        literal = tuple(Fraction(1, math.factorial(i)) for i in range(301))
        for n in range(301):
            assert chern_series_W(n).coeffs == literal[: n + 1]

    def test_rejects_bad_leading_coeff(self):
        with pytest.raises(ParameterError):
            ChernSeries((Fraction(2), Fraction(1)))

    @pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.1")])
    def test_rejects_inexact_coeff(self, bad):
        # A float would be stored as its binary value, a str or Decimal parsed: all refused.
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            ChernSeries((1, bad))


class TestTwistedClass:
    @pytest.mark.parametrize(
        "r,coeff,exponent",
        [
            (0, Fraction(1, 2), 1),
            (1, Fraction(1, 24), 3),
            (2, Fraction(1, 2880), 6),
        ],
    )
    def test_examples(self, r, coeff, exponent):
        cls = twisted_class(r)
        assert cls == ThetaClass(coeff, exponent, THETA_PRIME)

    def test_coefficient_is_exact_product(self):
        for r in range(LITERAL_MAX_R + 1):
            cls = twisted_class(r)
            assert (cls.coeff, cls.exponent) == (literal_twisted(r), (r + 1) * (r + 2) // 2)


class TestTwistedPointedClass:
    @pytest.mark.parametrize(
        "entries,coeff,exponent",
        [
            ((0, 1), Fraction(1, 6), 3),
            ((0, 2), Fraction(1, 12), 4),
            ((0, 1, 2), Fraction(1, 360), 6),
        ],
    )
    def test_examples(self, entries, coeff, exponent):
        cls = twisted_pointed_class(VanishingSequence(entries))
        assert cls == ThetaClass(coeff, exponent, THETA_PRIME)

    def test_coefficient_is_exact_product(self):
        # every sequence the pointed_equivalence suite of verify checks by default
        sequences = list(verify.pointed_sequences(24))
        assert len(sequences) == 761
        for a in sequences:
            cls = twisted_pointed_class(a)
            assert (cls.coeff, cls.exponent) == (literal_pointed(a.entries), a.weight + a.r + 1)

    @given(st.sets(st.integers(0, 20), min_size=1, max_size=13))
    def test_coefficient_is_exact_product_on_long_sequences(self, orders):
        # The benchmark decks send up to 13 orders, past weight 24.
        entries = tuple(sorted(orders))
        assert twisted_pointed_class(VanishingSequence(entries)).coeff == literal_pointed(entries)

    def test_exponent_matches_unpointed_on_trivial_sequence(self):
        for r in range(11):
            a = VanishingSequence(tuple(range(r + 1)))
            assert twisted_pointed_class(a).exponent == twisted_class(r).exponent

    def test_coefficient_relation_to_unpointed(self):
        # pointed at (0,...,r) carries an extra factor 2^(r+1)
        for r in range(11):
            a = VanishingSequence(tuple(range(r + 1)))
            assert (
                twisted_pointed_class(a).coeff == 2 ** (r + 1) * twisted_class(r).coeff
            )


class TestUnramifiedClass:
    @pytest.mark.parametrize(
        "r,coeff,exponent",
        [(0, Fraction(1), 0), (1, Fraction(1), 1), (2, Fraction(1, 3), 3)],
    )
    def test_examples(self, r, coeff, exponent):
        assert unramified_class(r) == ThetaClass(coeff, exponent, XI)

    def test_coefficient_is_exact_product(self):
        for r in range(LITERAL_MAX_R + 1):
            cls = unramified_class(r)
            assert (cls.coeff, cls.exponent) == (literal_unramified(r), r * (r + 1) // 2)


class TestCountPoints:
    @pytest.mark.parametrize(
        "g,k,r,expected", [(3, 1, 1, 2), (6, 1, 2, 16), (2, 2, 1, 1)]
    )
    def test_counts(self, g, k, r, expected):
        space = make_space(RAMIFIED_TWISTED, g, k)
        assert count_points(twisted_class(r), space) == expected

    def test_refuses_non_integer(self):
        space = make_space(RAMIFIED_TWISTED, 3, 1)
        with pytest.raises(IntegralityError):
            count_points(ThetaClass(Fraction(1, 7), 3), space)

    def test_integrality_at_dimension_zero_genus(self):
        # genus where the twisted locus is zero-dimensional; the g < 2
        # combinations fall outside the torsor table and are skipped
        for k in (1, 2):
            for r in range(6):
                g = (r + 1) * (r + 2) // 2 + 1 - k
                if g < 2:
                    continue
                space = make_space(RAMIFIED_TWISTED, g, k)
                assert count_points(twisted_class(r), space) > 0
