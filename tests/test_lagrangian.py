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
    p_tilde,
    partition_for,
    q_tilde,
    q_two,
    staircase,
)
from prymbn.theta_ring import substitute_theta_prime_as_2xi


class TestStrictPartition:
    def test_derived_values(self):
        lam = StrictPartition.of(5, 3, 1)
        assert lam.length == 3
        assert lam.weight == 9

    @pytest.mark.parametrize("bad", [(3, 3), (1, 2), (2, 0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ParameterError):
            StrictPartition(bad)

    def test_staircase(self):
        assert staircase(4).parts == (4, 3, 2, 1)


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

    def test_expansion_row_independence(self):
        for lam in verify.strict_partitions(16):
            c = chern_series_W(lam.weight)
            base = q_tilde(lam, c)
            rows = lam.length + (lam.length % 2)
            for row in range(1, rows):
                assert q_tilde(lam, c, expand_row=row) == base

    def test_expansion_row_independence_off_lagrangian_data(self):
        # Q_(1,3) read off the skew table is -Q_(3,1), not the formula at (1,3).
        lam, c = StrictPartition.of(3, 1), ChernSeries((1, 1, 1, 1, 1))
        assert q_tilde(lam, c).coeff == -1
        assert q_tilde(lam, c, expand_row=1).coeff == -1

    @given(st.sets(st.integers(1, 9), min_size=1, max_size=6), st.data())
    def test_expansion_row_independence_any_chern_series(self, parts, data):
        lam = StrictPartition(tuple(sorted(parts, reverse=True)))
        tail = data.draw(
            st.lists(
                st.integers(-3, 3),
                min_size=lam.weight,
                max_size=lam.weight,
            )
        )
        c = ChernSeries((1, *tail))
        base = q_tilde(lam, c)
        for row in range(1, lam.length + (lam.length % 2)):
            assert q_tilde(lam, c, expand_row=row) == base


class TestEvalIdentity:
    @pytest.mark.parametrize(
        "parts,value",
        [((2, 1), Fraction(1, 6)), ((3, 2, 1), Fraction(1, 360)), ((3, 2), Fraction(1, 60))],
    )
    def test_examples(self, parts, value):
        assert eval_identity(StrictPartition(parts)) == value

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_part(self, n):
        import math

        assert eval_identity(StrictPartition.of(n)) == Fraction(1, math.factorial(n))

    def test_agrees_with_engine(self):
        for lam in verify.strict_partitions(18):
            engine = q_tilde(lam, chern_series_W(lam.weight))
            assert engine.coeff == eval_identity(lam)


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


class TestNegativeControl:
    def test_corrupted_chern_series_breaks_agreement(self):
        # flip one coefficient: engine and oracle must now disagree
        lam = StrictPartition.of(2, 1)
        good = chern_series_W(3)
        bad = type(good)((good[0], good[1], good[2], good[3] + 1))
        assert q_tilde(lam, bad).coeff != eval_identity(lam)
