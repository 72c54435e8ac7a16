import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymbn import theta_ring
from prymbn.errors import (
    DimensionMismatchError,
    GeneratorMismatchError,
    ParameterError,
    UnsupportedSpaceError,
)
from prymbn.theta_ring import (
    RAMIFIED_TWISTED,
    THETA_PRIME,
    UNRAMIFIED_PM,
    XI,
    ThetaClass,
    degree,
    make_space,
    multiply,
    substitute_theta_prime_as_2xi,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


class TestMakeSpace:
    def test_unramified_table(self):
        s = make_space(UNRAMIFIED_PM, 4, 0)
        assert (s.dim, s.theta_top) == (3, 6)

    def test_ramified_k1(self):
        s = make_space(RAMIFIED_TWISTED, 3, 1)
        assert (s.dim, s.theta_top) == (3, 48)

    def test_ramified_k2(self):
        s = make_space(RAMIFIED_TWISTED, 2, 2)
        assert (s.dim, s.theta_top) == (3, 24)

    def test_ramified_k0_has_no_top_degree(self):
        s = make_space(RAMIFIED_TWISTED, 5, 0)
        assert s.dim == 4
        assert s.theta_top is None

    @pytest.mark.parametrize("g,k", [(2, 1), (5, 2)])
    def test_unramified_rejects_branch_points(self, g, k):
        with pytest.raises(ParameterError):
            make_space(UNRAMIFIED_PM, g, k)

    def test_rejects_small_genus_and_bad_k(self):
        with pytest.raises(ParameterError):
            make_space(RAMIFIED_TWISTED, 1, 1)
        with pytest.raises(ParameterError):
            make_space(RAMIFIED_TWISTED, 4, 3)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_top_degree_table(self, g):
        assert make_space(RAMIFIED_TWISTED, g, 1).theta_top == 2**g * math.factorial(g)
        assert make_space(RAMIFIED_TWISTED, g, 2).theta_top == 2**g * math.factorial(
            g + 1
        )
        assert make_space(UNRAMIFIED_PM, g, 0).theta_top == math.factorial(g - 1)


class TestThetaClass:
    def test_zero_class_is_canonical(self):
        assert ThetaClass(Fraction(0), 5) == ThetaClass(Fraction(0), 0)

    @pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.1")])
    def test_rejects_inexact_coeff(self, bad):
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            ThetaClass(bad, 2)

    def test_exact_fraction_is_kept_not_copied(self):
        q = Fraction(3, 7)
        assert theta_ring._rational(q) is q
        assert ThetaClass(q, 2).coeff is q

    @pytest.mark.parametrize("value", [3, 0, -5, True])
    def test_int_becomes_fraction(self, value):
        got = theta_ring._rational(value)
        assert (type(got), got) == (Fraction, Fraction(value))

    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", Decimal("0.1")])
    def test_rational_refusal_message(self, bad):
        with pytest.raises(ParameterError) as info:
            theta_ring._rational(bad)
        assert str(info.value) == f"coefficient must be an int or a Fraction, got {bad!r}"

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), "2"])
    def test_rejects_non_integer_exponent(self, bad):
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            ThetaClass(Fraction(1), bad)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ParameterError):
            ThetaClass(Fraction(1), -1)

    def test_multiply_example(self):
        a = ThetaClass(Fraction(1), 1)
        b = ThetaClass(Fraction(1, 2), 2)
        assert multiply(a, b) == ThetaClass(Fraction(1, 2), 3)

    def test_multiply_identity(self):
        one = ThetaClass(Fraction(1), 0)
        x = ThetaClass(Fraction(3, 7), 4)
        assert multiply(one, x) == x

    def test_multiply_generator_mismatch(self):
        with pytest.raises(GeneratorMismatchError):
            multiply(ThetaClass(Fraction(1), 1, XI), ThetaClass(Fraction(1), 1))

    @given(rationals, rationals, rationals, st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    def test_multiply_associative_commutative(self, qa, qb, qc, ea, eb, ec):
        a = ThetaClass(qa, ea)
        b = ThetaClass(qb, eb)
        c = ThetaClass(qc, ec)
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestDegree:
    def test_twisted_degree(self):
        s = make_space(RAMIFIED_TWISTED, 3, 1)
        assert degree(ThetaClass(Fraction(1, 24), 3), s) == 2

    def test_unramified_degree(self):
        s = make_space(UNRAMIFIED_PM, 4, 0)
        assert degree(ThetaClass(Fraction(1, 3), 3, XI), s) == 2

    def test_dimension_mismatch(self):
        s = make_space(RAMIFIED_TWISTED, 3, 1)
        with pytest.raises(DimensionMismatchError):
            degree(ThetaClass(Fraction(1), 2), s)

    def test_generator_flavor_mismatch(self):
        s = make_space(RAMIFIED_TWISTED, 3, 1)
        with pytest.raises(GeneratorMismatchError):
            degree(ThetaClass(Fraction(1), 3, XI), s)

    def test_unavailable_top_degree(self):
        s = make_space(RAMIFIED_TWISTED, 5, 0)
        with pytest.raises(UnsupportedSpaceError):
            degree(ThetaClass(Fraction(1), 4), s)


class TestSubstitution:
    def test_examples(self):
        assert substitute_theta_prime_as_2xi(
            ThetaClass(Fraction(1, 2), 1)
        ) == ThetaClass(Fraction(1), 1, XI)
        assert substitute_theta_prime_as_2xi(
            ThetaClass(Fraction(1, 24), 3)
        ) == ThetaClass(Fraction(1, 3), 3, XI)

    def test_exponent_zero_keeps_coeff(self):
        q = Fraction(5, 9)
        assert substitute_theta_prime_as_2xi(ThetaClass(q, 0)).coeff == q

    def test_rejects_xi_input(self):
        with pytest.raises(GeneratorMismatchError):
            substitute_theta_prime_as_2xi(ThetaClass(Fraction(1), 1, XI))

    @given(rationals, st.integers(0, 20))
    def test_roundtrip_on_coefficients(self, q, e):
        c = ThetaClass(q, e)
        out = substitute_theta_prime_as_2xi(c)
        assert out.coeff / 2**out.exponent == c.coeff
        assert out.exponent == c.exponent or c.coeff == 0
