import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prymbn import lagrangian, verify
from prymbn.bn_numerics import VanishingSequence
from prymbn.errors import ParameterError
from prymbn.formulas import (
    ChernSeries,
    chern_series_W,
    count_points,
    twisted_class,
    twisted_pointed_class,
    unramified_class,
)
from prymbn.lagrangian import (
    StrictPartition,
    _expand,
    _pfaffian,
    _two_row,
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
from prymbn.theta_ring import (
    RAMIFIED_TWISTED,
    UNRAMIFIED_PM,
    ThetaClass,
    degree,
    make_space,
    substitute_theta_prime_as_2xi,
)


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


def int_matrix(parts, q2):
    """The upper triangle of the skew matrix q2(p_i, p_j) over the padded parts."""
    return [[None] * (i + 1) + [q2(a, b) for b in parts[i + 1 :]] for i, a in enumerate(parts)]


def eliminated_q_tilde(lam, c, fraction_free):
    """Q-tilde coefficient by one _pfaffian rule at every length, on the engine's int
    matrix: the skew elimination that q_tilde_table runs on a lone partition."""
    parts = lam.parts + (0,) * (lam.length % 2)
    q2, d2 = _two_row(c, sum(parts[:2]))
    return Fraction(_pfaffian(int_matrix(parts, q2), fraction_free), d2 ** (len(parts) // 2))


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
        for lam in map(partition_for, verify.pointed_sequences(12)):
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
    # two-row class that vanishes forces a pivot fix-up, a vanishing row a zero.
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

    def test_zero_leading_pivot_is_fixed_up(self):
        # Only c_5 = 1 besides c_0: Q_(5,b) = c_b, so row 0 of the order-6 matrix of
        # (5, 4, 3, 2, 1, 0) is zero up to Q_(5,0) = 1, and the dividing step must add
        # that row and column to row and column 1, across the three between them: -4.
        lam, c = StrictPartition.of(5, 4, 3, 2, 1), ChernSeries((1, 0, 0, 0, 0, 1, 0, 0, 0, 0))
        assert [q_two(5, b, c).coeff for b in (4, 3, 2, 1, 0)] == [0, 0, 0, 0, 1]
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c) == -4

    def test_zero_row_gives_zero(self):
        # c_i = 0 for i >= 2 makes every Q_(4,b) vanish: row 0 is zero.
        lam, c = StrictPartition.of(4, 2, 1), ChernSeries((1, 1, 0, 0, 0, 0, 0, 0))
        assert all(q_two(4, b, c).coeff == 0 for b in (2, 1, 0))
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c) == 0

    def test_zero_pivot_at_order_10_is_fixed_up(self):
        # (9, 8, ..., 1, 0), of padded length 10, is one partition, so q_tilde eliminates.
        # Only c_4 = c_9 = 1 besides c_0: the row of 9 is zero up to Q_(9,5) = Q_(9,0) = 1,
        # and the first step must add the row and column of 5 to those of 8: 16.
        lam, c = staircase(9), ChernSeries(tuple(int(i in (0, 4, 9)) for i in range(18)))
        assert [q_two(9, b, c).coeff for b in range(8, -1, -1)] == [0, 0, 0, 0, 1, 0, 0, 0, 1]
        assert q_tilde(lam, c).coeff == laplace_q_tilde(lam, c) == 16


def skew_upper(n, upper):
    """The order-n upper triangle m[i][j], j > i, filled row by row from upper."""
    entries = iter(upper)
    return [[None] * (i + 1) + [next(entries) for _ in range(i + 1, n)] for i in range(n)]


# An even order n <= 10 and its n(n-1)/2 integer entries above the diagonal.
skew_matrices = st.integers(0, 5).flatmap(
    lambda h: st.tuples(
        st.just(2 * h),
        st.lists(
            st.just(0) | st.sampled_from((1, -1, 2)) | st.integers(-4, 4),
            min_size=h * (2 * h - 1),
            max_size=h * (2 * h - 1),
        ),
    )
)


class TestPfaffian:
    # Integer entries drawn mostly from {0, +-1, 2} put zero pivots, their fix-ups and
    # zero rows in every step, up to order 10; every matrix runs through both rules.
    # A float multiplier whose value happens to be exact would still compare equal, so
    # the result's type is checked too: the fraction-free rule must return an int.

    @given(skew_matrices)
    # order 6, row 0 zero: the dividing step returns 0
    @example((6, [0, 0, 0, 0, 0, 1, 2, -1, 1, 1, 0, 2, -1, 1, 1]))
    # order 6, m01 = m02 = 0: the dividing step adds row and column 3 to row and column 1
    @example((6, [0, 0, 1, 0, 2, 1, -1, 0, 2, 1, 0, 1, 2, -1, 1]))
    # order 4, m01 = 0: the first step adds row and column 2 to row and column 1
    @example((4, [0, 1, 2, 1, 1, 1]))
    # order 6, row 2 zero after elimination: the second step returns 0
    @example((6, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1]))
    # order 0: the empty product, 1
    @example((0, []))
    # order 2: the last pivot alone, 0 and then -3
    @example((2, [0]))
    @example((2, [-3]))
    # order 6, pivots -1 and 2, then m45 = 2 is 0 after elimination: the last pivot gives 0
    @example((6, [-1, 1, 1, -1, 1, -1, 1, 2, 0, 0, 1, -1, -1, 1, 2]))
    # order 8, pivot m01 = 2, then m23 is 0 after elimination: the second step adds row
    # and column 4 to row and column 3, and the fraction-free rule divides its entries by 2
    @example((8, [2, 0, 1, 2, 3, 0, -1, -2, -1, 0, 2, 0, 3, 1,
                  1, 1, 1, 0, 1, 1, 1, -2, 0, 0, 1, -1, 1, 1]))
    # order 8: at k = 2 the pivot is 0, and row and column 6 are added to row and column 3
    # across a nonzero entry between them and one past them; Pf = 3
    @example((8, [-1, 0, -1, 1, 1, 0, -1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 2, 0, 2, -1, -1, 0, 0,
                  1, 1, 0, -1]))
    def test_integer_matrix_matches_laplace_expansion(self, matrix):
        n, upper = matrix
        m = skew_upper(n, upper)
        want = laplace_pfaffian(tuple(range(n)), lambda i, j: m[i][j])
        for fraction_free, types in ((True, (int,)), (False, (int, Fraction))):
            got = _pfaffian(skew_upper(n, upper), fraction_free)
            assert type(got) in types
            assert got == want


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
    # A table of several partitions expands each along the first row over one memo, and
    # a lone partition is eliminated, fraction-free or in Fraction; the three rules are
    # compared here on the same int matrices, and with the Laplace oracle.

    def test_expansion_matches_elimination_to_weight_24(self):
        # The 761 partitions of weight <= 24 (padded length <= 6), the staircases of padded
        # length 8 to 16 and two sparse long partitions, each by _expand over one memo and
        # by both _pfaffian rules, at c_i = 1/i! to order 90 (D = 90!).
        (q2, _), memo = _two_row(chern_series_W(90), 90), {(): 1}
        lams = list(map(partition_for, verify.pointed_sequences(24)))
        assert len(lams) == 761
        lams += [staircase(m) for m in range(7, 17)]
        lams += [StrictPartition.of(31, 23, 17, 13, 11, 7, 5, 3, 2, 1),
                 StrictPartition.of(50, 40, 30, 20, 10, 9, 8, 7, 6, 5, 4)]
        for lam in lams:
            parts = lam.parts + (0,) * (lam.length % 2)
            want = _expand(parts, q2, memo)
            assert _pfaffian(int_matrix(parts, q2), True) == want
            assert _pfaffian(int_matrix(parts, q2), False) == want

    def test_a_sparse_partition_builds_only_the_n_i_it_reads(self, monkeypatch):
        # (301, 3, 2, 1) reads n_i at i = 0..5 and 301..304, 10 of the 305 up to order
        # lambda_1 + lambda_2 = 304: the two-row rule builds each n_i on its first read.
        numerators, real_q2 = set(), lagrangian._q2_coeff
        monkeypatch.setattr(
            lagrangian, "_q2_coeff", lambda a, b, n: numerators.add(n) or real_q2(a, b, n))
        lam = StrictPartition.of(301, 3, 2, 1)
        assert q_tilde(lam, chern_series_W(304)).coeff == eval_identity(lam)
        [n] = numerators
        assert n.cache_info().currsize == 10

    def test_a_table_closed_under_removing_parts_expands_only_its_parts(self, monkeypatch):
        # The 1,024 sub-partitions of staircase(10) reach padded length 10.  Each one's
        # first-row expansion removes two parts, which leaves another of them: the memo
        # holds exactly their padded parts, and no partition is eliminated.
        lams = [StrictPartition(parts) for k in range(11)
                for parts in itertools.combinations(range(10, 0, -1), k)]
        assert len(lams) == 1024
        pfaffians, memos = spy_pfaffian(monkeypatch), {}
        real_expand = lagrangian._expand
        monkeypatch.setattr(lagrangian, "_expand", lambda p, q2, memo: memos.update(
            {id(memo): memo}) or real_expand(p, q2, memo))
        got = q_tilde_table(lams, chern_series_W(19))
        assert [q.coeff for q in got] == [eval_identity(lam) for lam in lams]
        assert pfaffians == []
        [memo] = memos.values()
        assert set(memo) == {lam.parts + (0,) * (lam.length % 2) for lam in lams}

    def test_matches_q_tilde_and_laplace_to_weight_16(self):
        lams = list(map(partition_for, verify.pointed_sequences(16)))
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
        for fraction_free in (True, False):
            assert got == [eliminated_q_tilde(lam, c, fraction_free) for lam in lams + lams]

    @given(
        partition_lists(9),
        st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)), min_size=17),
    )
    def test_rational_data_matches_literal_fractions(self, lams, tail):
        c = ChernSeries((1, *tail))
        got = [q.coeff for q in q_tilde_table(lams + lams, c)]
        padded = [lam.parts + (0,) * (lam.length % 2) for lam in lams + lams]
        assert got == [laplace_pfaffian(p, lambda a, b: literal_q2(a, b, c)) for p in padded]
        for fraction_free in (True, False):
            assert got == [eliminated_q_tilde(lam, c, fraction_free) for lam in lams + lams]

    def test_pivot_fix_up_does_not_leak(self):
        # Alone, (5, 4, 3, 2, 1) needs a pivot fix-up past Q_(5,4) = ... = Q_(5,1) = 0 (see
        # TestLaplaceOracle); in a table, the partitions after it read the same entries unchanged.
        c = ChernSeries((1, 0, 0, 0, 0, 1, 0, 0, 0, 0))
        parts = ((5, 4, 3, 2, 1), (5, 4), (5, 3), (4, 3, 2, 1), (5, 4, 3, 2, 1))
        lams = [StrictPartition.of(*p) for p in parts]
        got = [q.coeff for q in q_tilde_table(lams, c)]
        assert got == [laplace_q_tilde(lam, c) for lam in lams] == [-4, 0, 0, -4, -4]

    @pytest.mark.parametrize("parts,order", [((4, 2), 6), ((6,), 6), ((5, 3, 1), 8)])
    def test_refuses_partition_past_top(self, parts, order):
        # The table's order is max lambda_1 + lambda_2; a series stopping sooner is refused.
        lams = [StrictPartition.of(3, 2), StrictPartition(parts)]
        with pytest.raises(ParameterError, match=f"truncated at 5, need order {order}$"):
            q_tilde_table(lams, chern_series_W(5))
        # The rule chern_series_W gives the series at that order, for a lone partition, for
        # the table closed under removing parts and for lams; a rule that stops sooner is refused.
        closed = [StrictPartition(sub) for k in range(len(parts) + 1)
                  for sub in itertools.combinations(parts, k)]
        for table in ([StrictPartition(parts)], closed, lams):
            want = q_tilde_table(table, chern_series_W(order))
            assert q_tilde_table(table, chern_series_W) == want
            with pytest.raises(ParameterError,
                               match=f"truncated at {order - 1}, need order {order}$"):
                q_tilde_table(table, lambda n: chern_series_W(n - 1))

    def test_empty_list_and_empty_partition(self):
        c = chern_series_W(0)
        assert q_tilde_table([], c) == []
        assert q_tilde_table([StrictPartition(())], c) == [ThetaClass(1, 0)]

    def test_table_needs_the_series_to_its_top(self):
        with pytest.raises(ParameterError, match="truncated at 4, need order 5"):
            q_tilde_table([StrictPartition.of(3, 2)], chern_series_W(4))


@functools.cache
def shifted_tableaux(parts):
    """g^lambda, the number of standard shifted tableaux of the strict partition parts.

    The largest entry sits in a corner: the last box of a row whose removal leaves the
    parts strict.  Summing over the corners counts with no factorial, no Pfaffian and
    no Fraction: the third reference for the engine, after the Pfaffian and eval_identity.
    """
    if not parts:
        return 1
    total = 0
    for i, p in enumerate(parts):
        rest = parts[:i] + (p - 1,) * (p > 1) + parts[i + 1 :]
        if all(x > y for x, y in zip(rest, rest[1:])):
            total += shifted_tableaux(rest)
    return total


class TestShiftedTableaux:
    # Thrall's shifted hook-length formula: g^lambda = |lambda|! eval_identity(lambda),
    # the coefficient of theta'^|lambda| in Q-tilde at c_i = theta'^i/i!.

    @pytest.mark.parametrize("parts,count", [
        ((), 1), ((1,), 1), ((5,), 1), ((2, 1), 1), ((4, 1), 3), ((3, 2), 2),
        ((3, 2, 1), 2), ((4, 2, 1), 7), ((4, 3, 2, 1), 12),
    ])
    def test_examples(self, parts, count):
        assert shifted_tableaux(parts) == count

    def test_table_counts_shifted_tableaux_to_weight_20(self):
        table = verify.engine_classes(20)
        assert len(table) == 370
        for _, lam, engine in table:
            assert math.factorial(lam.weight) * engine.coeff == shifted_tableaux(lam.parts)

    # The counts and degrees of the closed forms on the calibrated torsors, against the
    # DP, with e = |lambda| and l = length(lambda): no factorial or double factorial on
    # this side.

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_twisted_count_at_dimension_zero(self, k, r):
        # 2^(e-l-(k-1)) g^lambda at lambda = staircase(r+1), g = dimension_zero_genus(k, r).
        lam = staircase(r + 1)
        space = make_space(RAMIFIED_TWISTED, verify.dimension_zero_genus(k, r), k)
        want = 2 ** (lam.weight - lam.length - (k - 1)) * shifted_tableaux(lam.parts)
        assert count_points(twisted_class(r), space) == want

    @pytest.mark.parametrize("r", range(1, 9))
    def test_unramified_degree_at_dimension_zero(self, r):
        # 2^(e-l) g^lambda at lambda = staircase(r), on P+/P- at g - 1 = r(r+1)/2.
        lam = staircase(r)
        space = make_space(UNRAMIFIED_PM, r * (r + 1) // 2 + 1, 0)
        want = 2 ** (lam.weight - lam.length) * shifted_tableaux(lam.parts)
        assert degree(unramified_class(r), space) == want

    def test_pointed_degree_to_weight_20(self):
        # 2^e g^lambda at k = 1, g = e, lambda = partition_for(a): every pointed sequence of
        # weight 2..20 (g = 1 is below the torsor table's genus 2).
        seqs = [a for a in verify.pointed_sequences(20) if partition_for(a).weight >= 2]
        assert len(seqs) == 369
        for a in seqs:
            lam = partition_for(a)
            space = make_space(RAMIFIED_TWISTED, lam.weight, 1)
            want = 2**lam.weight * shifted_tableaux(lam.parts)
            assert degree(twisted_pointed_class(a), space) == want


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
        for lam in map(partition_for, verify.pointed_sequences(30)):
            assert eval_identity(lam) == literal_eval_identity(lam)

    def test_matches_literal_product_at_staircase_40(self):
        lam = staircase(40)
        assert eval_identity(lam) == literal_eval_identity(lam)

    def test_agrees_with_engine(self):
        for lam in map(partition_for, verify.pointed_sequences(18)):
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
        for a in verify.pointed_sequences(20):
            assert lagrangian_class_pointed(a) == twisted_pointed_class(a)


def spy_pfaffian(monkeypatch):
    """The list to which each later _pfaffian call appends (order, fraction_free)."""
    calls, real_pf = [], lagrangian._pfaffian
    monkeypatch.setattr(lagrangian, "_pfaffian", lambda m, fraction_free: calls.append(
        (len(m), fraction_free)) or real_pf(m, fraction_free))
    return calls


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

    def test_twisted_engine_eliminates_its_lone_staircase(self, monkeypatch):
        # staircase(r + 1) is a table of one partition, so it is eliminated, never expanded,
        # at every padded order 2, 2, 4, 4, ..., 12.  It reads c to 2r + 1, so D = (2r + 1)!
        # and at r = 10 order * bits(D^2) = 12 * 131 is within _FRACTION_FREE_BITS.
        pfaffians, expansions = spy_pfaffian(monkeypatch), []
        real_expand = lagrangian._expand
        monkeypatch.setattr(lagrangian, "_expand",
                            lambda p, q2, memo: expansions.append(p) or real_expand(p, q2, memo))
        for r in range(11):
            assert lagrangian_class_twisted(r).coeff == 2 ** (r + 1) * twisted_class(r).coeff
        assert pfaffians == [(r + 1 + (r + 1) % 2, True) for r in range(11)]
        assert expansions == []

    def test_large_denominators_run_the_fraction_rule(self, monkeypatch):
        # Past _FRACTION_FREE_BITS the integer minors outgrow Fraction's gcds.  staircase(31)
        # (r = 30) reads c to 61: 32 * bits((61!)^2) = 32 * 557.  The pointed partition
        # (80, 9, 8, ..., 1) reads c to 89: 10 * bits((89!)^2) = 10 * 906.
        pfaffians = spy_pfaffian(monkeypatch)
        a = VanishingSequence((*range(9), 79))
        assert lagrangian_class_twisted(30).coeff == 2**31 * twisted_class(30).coeff
        assert lagrangian_class_pointed(a) == twisted_pointed_class(a)
        assert pfaffians == [(32, False), (10, False)]

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
