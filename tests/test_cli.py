import argparse
import csv
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prymbn import bn_numerics, cli, formulas, lagrangian, limit_series, theta_ring, verify
from prymbn.errors import (
    GeneratorMismatchError,
    IntegralityError,
    InvariantViolationError,
    ParameterError,
)
from prymbn.theta_ring import ThetaClass

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = (GOLDEN / "commands.txt").read_text().splitlines()
# "w g r md5" per line: the pbn verify report's md5 at those bounds, also checked in CI.
VERIFY_PINS = [line.split() for line in (GOLDEN / "verify_pins.txt").read_text().splitlines()]


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_json(*args):
    code, out, err = run_cli(*args)
    assert code == 0, err
    return json.loads(out)


class TestDim:
    def test_v_eta(self):
        rec = run_json("dim", "--locus", "V_eta", "--g", "3", "--k", "1", "--r", "1")
        assert rec["result"] == {
            "value": 0,
            "exactness": "theorem_exact",
            "emptiness": "nonempty",
        }
        assert rec["citations"]

    def test_v_empty(self):
        rec = run_json("dim", "--locus", "V", "--g", "5", "--k", "0", "--r", "3")
        assert rec["result"]["value"] == -2
        assert rec["result"]["emptiness"] == "empty"

    def test_pointed(self):
        rec = run_json(
            "dim", "--locus", "V_eta_pointed", "--g", "5", "--k", "1", "--a", "0,2"
        )
        assert rec["result"]["value"] == 1

    def test_unsupported_k_is_usage_error(self):
        code, out, err = run_cli(
            "dim", "--locus", "V_eta", "--g", "4", "--k", "3", "--r", "1"
        )
        assert code == 2
        assert "error" in err

    def test_missing_rank_is_usage_error(self):
        code, _, _ = run_cli("dim", "--locus", "V", "--g", "5", "--k", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--locus", "V_eta", "--g", "-5", "--k", "1", "--r", "0"),
            ("--locus", "V_eta", "--g", "0", "--k", "1", "--r", "0"),
            ("--locus", "V_eta_pointed", "--g", "0", "--k", "2", "--a", "0"),
            ("--locus", "V_eta_div", "--g", "0", "--k", "1", "--r", "0", "--d", "0"),
        ],
    )
    def test_twisted_genus_below_one_is_usage_error(self, args):
        code, _, err = run_cli("dim", *args)
        assert code == 2
        assert "g >= 1" in err

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("--locus", "V", "--r", "2", "--a", "0,1"), "--a"),
            (("--locus", "V", "--r", "2", "--d", "1"), "--d"),
            (("--locus", "V_eta", "--r", "1", "--d", "1"), "--d"),
            (("--locus", "V_eta_pointed", "--a", "0,2", "--r", "1"), "--r"),
        ],
    )
    def test_unused_flag_is_usage_error(self, args, flag):
        code, _, err = run_cli("dim", "--g", "10", "--k", "1", *args)
        assert code == 2
        assert f"{flag} is not used" in err


class TestClass:
    def test_v_eta(self):
        rec = run_json("class", "--locus", "V_eta", "--r", "1")
        assert rec["result"]["class"] == {
            "coeff": "1/24",
            "exponent": 3,
            "generator": "theta'",
        }

    def test_v_unramified(self):
        rec = run_json("class", "--locus", "V_unramified", "--r", "2")
        assert rec["result"]["class"] == {
            "coeff": "1/3",
            "exponent": 3,
            "generator": "xi",
        }

    def test_pointed_with_engine(self):
        rec = run_json(
            "class", "--locus", "V_eta_pointed", "--a", "0,1", "--engine"
        )
        assert rec["result"]["class"]["coeff"] == "1/6"
        assert rec["result"]["engine_agrees"] is True

    def test_v_eta_engine_reports_documented_ratio(self):
        rec = run_json("class", "--locus", "V_eta", "--r", "2", "--engine")
        assert rec["result"]["engine_agrees"] is False
        assert rec["result"]["engine_ratio"] == 8

    def test_unramified_engine_agrees(self):
        rec = run_json("class", "--locus", "V_unramified", "--r", "3", "--engine")
        assert rec["result"]["engine_agrees"] is True

    def test_unramified_engine_at_rank_40(self):
        # The Laplace recursion never finished here (39!! terms).
        rec = run_json("class", "--locus", "V_unramified", "--r", "40", "--engine")
        assert rec["result"]["engine_agrees"] is True

    def test_sparse_pointed_engine_within_3s(self):
        # (6001, 3, 2, 1) reads 10 of the 6,005 numerators up to order 6004 and builds only
        # those: 0.2-0.3 s in-process, where building every one took 9-10 s.
        start = time.monotonic()
        code, out, err = run_cli(
            "class", "--locus", "V_eta_pointed", "--a", "0,1,2,6000", "--engine")
        elapsed = time.monotonic() - start
        assert code == 0, err
        assert '"engine_agrees": true' in out
        assert elapsed < 3.0

    def test_pointed_engine_builds_one_chern_series(self, monkeypatch):
        # lagrangian passes the rule chern_series_W, which the table calls once, at
        # lambda_1 + lambda_2 = 61 + 3 for a = (0, 1, 2, 60).
        calls, real = [], lagrangian.chern_series_W
        monkeypatch.setattr(lagrangian, "chern_series_W", lambda n: calls.append(n) or real(n))
        rec = run_json("class", "--locus", "V_eta_pointed", "--a", "0,1,2,60", "--engine")
        assert (rec["result"]["engine_agrees"], calls) == (True, [64])

    def test_v_eta_engine_ratio_at_rank_40(self):
        rec = run_json("class", "--locus", "V_eta", "--r", "40", "--engine")
        assert rec["result"]["engine_ratio"] == 2**41

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("--locus", "V_eta_pointed", "--a", "0,1", "--r", "1"), "--r"),
            (("--locus", "V_eta", "--r", "1", "--a", "0,1"), "--a"),
        ],
    )
    def test_unused_flag_is_usage_error(self, args, flag):
        code, _, err = run_cli("class", *args)
        assert code == 2
        assert f"{flag} is not used" in err

    def test_v_eta_coefficient_past_digit_limit(self):
        # The coefficient at r = 68 has more digits than the default
        # int-to-str limit; the CLI must render it exactly and leave the
        # limit as it was.  Reading it back needs the limit lifted too.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("class", "--locus", "V_eta", "--r", "68")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        with unlimited_int_digits():
            coeff = Fraction(json.loads(out)["result"]["class"]["coeff"])
            assert coeff == formulas.twisted_class(68).coeff


class TestCount:
    @pytest.mark.parametrize(
        "g,k,r,expected", [(3, 1, 1, 2), (6, 1, 2, 16), (2, 2, 1, 1)]
    )
    def test_counts(self, g, k, r, expected):
        rec = run_json("count", "--g", str(g), "--k", str(k), "--r", str(r))
        assert rec["result"]["count"] == expected

    def test_nonzero_dimension_refused(self):
        code, _, err = run_cli("count", "--g", "4", "--k", "1", "--r", "1")
        assert code == 2
        assert "expected dimension" in err

    def test_k0_refused(self):
        code, _, _ = run_cli("count", "--g", "3", "--k", "0", "--r", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "g,k,r,named",
        [
            # dimension 0, but the k = 0 torsor has no calibrated top degree
            (4, 0, 1, "top self-intersection is not available on the unramified twisted torsor"),
            (4, 0, 1, "unramified twisted torsor, got g=4, k=0"),
            (6, 0, 2, "expected dimension is -1, not 0; no finite count at g=6, k=0, r=2"),
            (4, 3, 1, "twisted loci are supported for k in {0,1,2}, got k=3"),
        ],
    )
    def test_uncalibrated_k_refused(self, g, k, r, named):
        code, out, err = run_cli("count", "--g", str(g), "--k", str(k), "--r", str(r))
        assert (code, out) == (2, "")
        assert named in err

    def test_one_count_rule_serves_count_and_verify(self, monkeypatch):
        # pbn count and the count_integrality suite run verify.count: one fault there
        # shows in both.
        original = verify.count
        monkeypatch.setattr(verify, "count", lambda g, k, r: (0, original(g, k, r)[1]))
        rec = run_json("count", "--g", "6", "--k", "1", "--r", "2")
        assert rec["result"] == {"count": 0, "theta_top": 2**6 * 720}
        result = verify.suite_count_integrality(2)
        assert (result.passed, result.cases) == (False, 1)
        assert result.counterexample == "k=1 r=1 g=3: count 0"

    def test_refusal_past_digit_limit(self):
        # The refusal names a 6,000-digit expected dimension, past the default
        # int-to-str limit; main must still exit 2 and leave the limit as it was.
        r = 10**3000 - 1
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("count", "--g", "3", "--k", "1", "--r", "9" * 3000)
        assert sys.get_int_max_str_digits() == limit
        assert (code, out) == (2, "")
        with unlimited_int_digits():
            assert f"expected dimension is {3 - (r + 1) * (r + 2) // 2}, not 0" in err


class TestLimits:
    def test_with_candidates(self):
        rec = run_json(
            "limits", "--flavor", "unramified", "--g", "5", "--r", "1",
            "--show-candidates",
        )
        assert rec["result"]["solution"] == [3, 5]
        assert rec["result"]["candidates"] == [[0, 8], [1, 7], [2, 6], [3, 5]]

    def test_show_candidates_enumerates_once(self, monkeypatch):
        # The full walk runs once, for the block; the solver's walk is pruned by its filter.
        calls, original = [], limit_series.enumerate_candidates

        def counted(p, keep=None):
            calls.append(keep)
            return original(p, keep)

        monkeypatch.setattr(limit_series, "enumerate_candidates", counted)
        monkeypatch.setattr(cli, "enumerate_candidates", counted)
        run_json("limits", "--flavor", "unramified", "--g", "5", "--r", "1", "--show-candidates")
        assert calls == [None, limit_series._endpoint_filter_unramified]

    @pytest.mark.parametrize("argv,candidates", [
        (("--flavor", "ramified", "--g", "12", "--r", "4", "--show-candidates"), 649),
        (("--flavor", "unramified", "--g", "24", "--r", "5"), 6225),
        (("--flavor", "ramified", "--g", "40", "--r", "6"), None),  # 1.4e7 candidates
        (("--flavor", "ramified", "--g", "60", "--r", "8"), None),  # 2.5e10 candidates
        (("--flavor", "unramified", "--g", "3000", "--r", "2"), None),
    ])
    def test_no_candidate_becomes_a_record(self, monkeypatch, argv, candidates):
        # Candidates stay int tuples: the closed form and its complement are the
        # request's only VanishingSequence records, however many candidates.  Only
        # --show-candidates lists them all; the solver's pruned walk lists its survivor.
        records, walked, init = [], [], bn_numerics.VanishingSequence.__init__
        enumerate_candidates = limit_series.enumerate_candidates

        def counted_init(self, entries):
            records.append(entries)
            init(self, entries)

        def counted_walk(p, keep=None):
            walked.append(len(result := enumerate_candidates(p, keep)))
            return result

        monkeypatch.setattr(bn_numerics.VanishingSequence, "__init__", counted_init)
        monkeypatch.setattr(limit_series, "enumerate_candidates", counted_walk)
        monkeypatch.setattr(cli, "enumerate_candidates", counted_walk)
        run_json("limits", *argv)
        assert walked == ([candidates, 1] if "--show-candidates" in argv else [1])
        assert len(records) == 2, len(records)

    def test_candidates_past_ten_million_subsets(self):
        # C(47, 6) = 1.1e7 subsets; only the 6,225 candidates are generated.
        rec = run_json(
            "limits", "--flavor", "unramified", "--g", "24", "--r", "5", "--show-candidates"
        )
        assert len(rec["result"]["candidates"]) == 6225
        assert rec["result"]["solution"] == [18, 20, 22, 24, 26, 28]

    def test_ramified(self):
        rec = run_json("limits", "--flavor", "ramified", "--g", "5", "--r", "1")
        assert rec["result"]["solution"] == [4, 6]

    def test_genus_zero_is_usage_error(self):
        code, _, err = run_cli("limits", "--flavor", "unramified", "--g", "0", "--r", "1")
        assert code == 2
        assert "g >= 1" in err

    def test_empty_locus_exits_zero(self):
        code, out, _ = run_cli("limits", "--flavor", "unramified", "--g", "2", "--r", "2")
        assert code == 0
        assert json.loads(out)["result"]["empty"] is True

    @pytest.mark.parametrize("flavor", ["unramified", "ramified"])
    def test_r_past_the_cap_is_refused_before_any_walk(self, flavor):
        # The walk recurses once per entry: r = 1100 would overflow the interpreter's stack.
        start = time.perf_counter()
        code, out, err = run_cli("limits", "--flavor", flavor, "--g", "605560", "--r", "1100")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"--r 1100 is past the limits cap of {cli.LIMITS_MAX_R}" in err

    @pytest.mark.parametrize("flavor,extra", [("unramified", 1), ("ramified", 0)])
    def test_r_at_the_cap_answers(self, flavor, extra):
        # The least g with s >= 0 at r = LIMITS_MAX_R: the deepest walk the cap admits.
        r = cli.LIMITS_MAX_R
        g = r * (r + 1) // 2 + extra
        rec = run_json("limits", "--flavor", flavor, "--g", str(g), "--r", str(r))
        center = g - extra
        assert rec["result"]["s"] == 0
        assert rec["result"]["solution"] == list(range(center - r, center + r + 1, 2))

    @pytest.mark.parametrize("flavor,g,r", [("ramified", 2, 3), ("unramified", 2, 2),
                                            ("ramified", 3, 1100), ("unramified", 3, 1100)])
    def test_empty_locus_keeps_the_candidates_flag(self, flavor, g, r):
        # r = 1100 is past the limits cap, which refuses only a walk (s >= 0).
        args = ("limits", "--flavor", flavor, "--g", str(g), "--r", str(r), "--show-candidates")
        rec = run_json(*args)
        assert rec["params"]["show_candidates"] is True
        assert rec["result"]["empty"] is True
        assert rec["result"]["candidates"] == []
        code, out, _ = run_cli("--format", "csv", *args)
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["params.show_candidates"] == "True"
        assert fields["result.candidates"] == "[]"
        assert fields["result.empty"] == "True"


class TestVerify:
    def test_small_bounds_pass(self):
        rec = run_json("verify", "--max-weight", "10", "--max-g", "6", "--max-r", "2")
        assert rec["result"]["all_passed"] is True
        assert all(s["passed"] for s in rec["result"]["suites"])

    def test_vacuous_weight_zero(self):
        rec = run_json("verify", "--max-weight", "0", "--max-g", "4", "--max-r", "1")
        assert rec["result"]["all_passed"] is True
        names = {s["name"]: s for s in rec["result"]["suites"]}
        assert names["engine_oracle"]["cases"] == 0

    def test_failure_exits_one(self, monkeypatch):
        from prymbn import verify as verify_mod

        def broken(*args, **kwargs):
            return verify_mod.SuiteResult("engine_oracle", 1, False, "injected")

        monkeypatch.setattr(verify_mod, "suite_engine_oracle", broken)
        code, out, _ = run_cli("verify", "--max-weight", "4")
        assert code == 1
        assert json.loads(out)["result"]["all_passed"] is False

    def test_suite_stops_at_first_counterexample(self, monkeypatch):
        # The failing case is counted; the case counts the benchmark derives
        # from the bounds rely on this rule.
        from prymbn import verify as verify_mod

        monkeypatch.setattr(verify_mod.lagrangian, "eval_identity", lambda lam: 0)
        res = verify_mod.suite_engine_oracle(verify_mod.engine_classes(4))
        assert res.cases == 1
        assert res.passed is False
        assert res.counterexample.startswith("lambda=(4,):")

    def test_pointed_counterexample_names_the_sequence(self, monkeypatch):
        from prymbn import verify as verify_mod

        monkeypatch.setattr(verify_mod.formulas, "twisted_pointed_class", lambda a: None)
        res = verify_mod.suite_pointed_equivalence(verify_mod.engine_classes(4))
        assert (res.cases, res.passed) == (1, False)
        assert res.counterexample.startswith("a=(3,):")

    def test_run_all_expands_each_partition_once(self, monkeypatch):
        # The 761 partitions of weight <= 24 go through one q_tilde_table, and each
        # staircase of r = 0..4 and P-tilde staircase of r = 1..4 through its own.  The
        # table of 761 expands every partition along its first row, over one memo that
        # holds the 761 padded parts and (); each entry is expanded once, in its padded
        # length less one terms: 761 entries, 2,151 terms.  Each staircase is a lone
        # partition, so it runs one fraction-free _pfaffian of its padded order.
        from prymbn import lagrangian
        from prymbn import verify as verify_mod

        calls, memos, terms = [], {}, []
        real_pf, real_expand = lagrangian._pfaffian, lagrangian._expand

        def expand(parts, q2, memo):
            memos[id(memo)] = memo
            if parts not in memo:
                terms.append(len(parts) - 1)
            return real_expand(parts, q2, memo)

        monkeypatch.setattr(lagrangian, "_pfaffian", lambda m, fraction_free: calls.append(
            (len(m), fraction_free)) or real_pf(m, fraction_free))
        monkeypatch.setattr(lagrangian, "_expand", expand)
        results = verify_mod.run_all(24, 12, 4)
        assert all(res.passed for res in results)
        assert calls == [(n, True) for n in (2, 2, 4, 4, 6, 2, 2, 4, 4)]
        assert [len(memo) for memo in memos.values()] == [761 + 1]
        assert (len(terms), sum(terms)) == (761, 2151)

    def test_run_all_computes_each_two_row_class_once_per_table(self, monkeypatch):
        # One table for the 761 partitions, one per staircase: each Q_(a,b)
        # that a table's partitions read is computed once in that table.
        from prymbn import lagrangian
        from prymbn import verify as verify_mod

        def pairs(lams):
            padded = [lam.parts + (0,) * (lam.length % 2) for lam in lams]
            return {(a, b) for p in padded for i, a in enumerate(p) for b in p[i + 1 :]}

        q2, tops = [], []
        real_q2, real_two_row = lagrangian._q2_coeff, lagrangian._two_row
        monkeypatch.setattr(
            lagrangian, "_q2_coeff", lambda a, b, n: q2.append((a, b)) or real_q2(a, b, n))
        monkeypatch.setattr(
            lagrangian, "_two_row", lambda c, top: tops.append(top) or real_two_row(c, top))
        verify_mod.engine_classes(24)
        lams = map(lagrangian.partition_for, verify_mod.pointed_sequences(24))
        assert sorted(q2) == sorted(pairs(lams))
        assert (len(q2), tops) == (156, [24])

        q2.clear()
        tops.clear()
        assert all(res.passed for res in verify_mod.run_all(24, 12, 4))
        staircases = [lagrangian.staircase(m) for m in (1, 2, 3, 4, 5, 1, 2, 3, 4)]
        assert len(q2) == 156 + sum(len(pairs([lam])) for lam in staircases)
        assert tops == [24] + [sum(lam.parts[:2]) for lam in staircases]

    @pytest.mark.parametrize("bounds", [(0, 0, 0), (1, 1, 0), (12, 8, 3), (24, 12, 4)])
    def test_run_all_matches_standalone_suites(self, bounds):
        from prymbn import verify as v

        w, g, r = bounds
        standalone = [
            v.suite_engine_oracle(v.engine_classes(w)),
            v.suite_pointed_equivalence(v.engine_classes(w)),
            v.suite_staircase_relation(r),
            v.suite_unramified_reproduction(max(r, 1)),
            v.suite_count_integrality(r),
            v.suite_limit_solver(g, r),
            v.suite_w_consistency(g, r),
            v.suite_degree_table(g),
        ]
        summary = lambda results: [(s.name, s.cases, s.passed) for s in results]  # noqa: E731
        assert summary(v.run_all(w, g, r)) == summary(standalone)

    @pytest.mark.parametrize("bounds,md5", [((w, g, r), md5) for w, g, r, md5 in VERIFY_PINS])
    def test_report_bytes_are_pinned(self, bounds, md5):
        # The three small bounds take the vacuous and counting paths of _suite.
        w, g, r = bounds
        code, out, _ = run_cli("verify", "--max-weight", w, "--max-g", g, "--max-r", r)
        assert (code, hashlib.md5(out.encode()).hexdigest()) == (0, md5)

    def test_vacuous_suites_are_marked(self):
        rec = run_json("verify", "--max-weight", "1", "--max-g", "1", "--max-r", "0")
        assert rec["result"]["all_passed"] is True
        vacuous = {s["name"] for s in rec["result"]["suites"] if s.get("vacuous")}
        assert vacuous == {"count_integrality", "limit_solver", "w_consistency", "degree_table"}
        for s in rec["result"]["suites"]:
            assert ("vacuous" in s) == (s["cases"] == 0)

    def test_engine_oracle_builds_one_chern_series(self, monkeypatch):
        # Every partition reads a prefix of the one series at the bound.
        from prymbn import verify as verify_mod

        calls = []
        real = formulas.chern_series_W
        monkeypatch.setattr(formulas, "chern_series_W", lambda n: calls.append(n) or real(n))
        res = verify_mod.suite_engine_oracle(verify_mod.engine_classes(24))
        assert (res.passed, res.cases, calls) == (True, 761, [24])

    def test_pointed_equivalence_builds_one_chern_series(self, monkeypatch):
        # verify passes the rule formulas.chern_series_W, which the table calls once.
        from prymbn import verify as verify_mod

        calls = []
        real = formulas.chern_series_W
        monkeypatch.setattr(formulas, "chern_series_W", lambda n: calls.append(n) or real(n))
        res = verify_mod.suite_pointed_equivalence(verify_mod.engine_classes(24))
        assert (res.passed, res.cases, calls) == (True, 761, [24])

    def test_staircase_relation_counterexample_names_rank_and_ratio(self, monkeypatch):
        monkeypatch.setattr(formulas, "twisted_class", lambda r: ThetaClass(1, 1))
        res = verify.suite_staircase_relation(2)
        assert (res.cases, res.passed) == (1, False)
        assert res.counterexample.startswith("r=0:")
        assert "ratio 2 x" in res.counterexample

    def test_unramified_reproduction_counterexample_starts_at_rank_one(self, monkeypatch):
        monkeypatch.setattr(formulas, "unramified_class", lambda r: ThetaClass(0, 0, "xi"))
        res = verify.suite_unramified_reproduction(2)
        assert (res.cases, res.passed) == (1, False)
        assert res.counterexample.startswith("r=1:")
        assert "ratio 1 x" in res.counterexample

    def test_degree_table_checks_riemann_roch_not_the_table(self, monkeypatch):
        # theta'^(g+1) on the 4-branch-point torsor is (g+1)! 2^g; one more is caught.
        from prymbn import theta_ring

        key = (theta_ring.RAMIFIED_TWISTED, 2)
        shift, top = theta_ring._SPACES[key]
        monkeypatch.setitem(theta_ring._SPACES, key, (shift, lambda g: top(g) + 1))
        res = verify.suite_degree_table(30)
        assert (res.cases, res.passed) == (3, False)
        assert res.counterexample == "ramified_twisted g=2 k=2: 25 != 24"

    def test_walk_gives_each_strict_partition_once(self):
        # A strict partition of weight 1..w is a set of distinct parts from
        # 1..w, which itertools.combinations lists in descending order.
        for w in range(-1, 17):
            want = [parts for n in range(1, w + 1) for parts in combinations(range(w, 0, -1), n)
                    if sum(parts) <= w]
            got = [lagrangian.partition_for(a).parts for a in verify.pointed_sequences(w)]
            assert sorted(got) == sorted(want), w

    def test_walk_order_is_depth_first_top_order_first(self):
        # The order of the nested-generator walk it replaced: a sequence, then its
        # extensions by a smaller order, the largest part first.
        def nested(remaining, max_part, orders):
            if orders:
                yield orders
            for p in range(min(remaining, max_part), 0, -1):
                yield from nested(remaining - p, p - 1, (p - 1,) + orders)

        for w in range(-1, 17):
            got = [a.entries for a in verify.pointed_sequences(w)]
            assert got == list(nested(w, w, ())), w
        assert [a.entries for a in verify.pointed_sequences(4)] == [
            (3,), (2,), (0, 2), (1,), (0, 1), (0,)]

    def test_engine_table_leaves_no_reference_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            verify.engine_classes(12)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_engine_table_is_the_pointed_engine(self):
        table = verify.engine_classes(12)
        assert len(table) == 69
        for a, lam, engine in table:
            assert lam == lagrangian.partition_for(a)
            assert engine == verify.LOCI["V_eta_pointed"].engine(a)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_pointed_equivalence_vacuous_below_one(self, bound):
        from prymbn import verify as verify_mod

        res = verify_mod.suite_pointed_equivalence(verify_mod.engine_classes(bound))
        assert (res.cases, res.passed) == (0, True)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_engine_oracle_vacuous_below_one(self, bound):
        from prymbn import verify as verify_mod

        res = verify_mod.suite_engine_oracle(verify_mod.engine_classes(bound))
        assert (res.cases, res.passed) == (0, True)


class TestRefusalsNameTheValue:
    """Each refusal keeps its old text and appends the offending value."""

    @pytest.mark.parametrize(
        "argv,text,named",
        [
            ("dim --locus V --g 1 --k 0 --r 0", "requires g >= 2, k >= 0, r >= 0", "g=1"),
            ("dim --locus V --g 5 --k -1 --r 0", "requires g >= 2, k >= 0, r >= 0", "k=-1"),
            ("dim --locus V --g 5 --k 0 --r -2", "requires g >= 2, k >= 0, r >= 0", "r=-2"),
            ("dim --locus V_div --g 5 --k 0 --r 1 --d -1",
             "invalid parameters for divisor-twisted locus", "d=-1"),
            ("dim --locus V_eta --g 5 --k 1 --r -1", "rank must be non-negative", "r=-1"),
            ("dim --locus V_eta_div --g 5 --k 1 --r 1 --d -3",
             "rank and divisor degree must be non-negative", "d=-3"),
            ("count --g 4 --k 1 --r -1", "rank must be non-negative", "r=-1"),
            ("class --locus V_eta --r -1", "rank must be non-negative", "r=-1"),
            ("class --locus V_unramified --r -2 --engine", "rank must be non-negative", "r=-2"),
            ("limits --flavor unramified --g 0 --r 1", "need g >= 1 and r >= 0", "g=0"),
            ("limits --flavor ramified --g 3 --r -1", "need g >= 1 and r >= 0", "r=-1"),
            ("verify --max-weight -1", "verification bounds must be non-negative",
             "max_weight=-1"),
            ("verify --max-g 2 --max-r -1", "verification bounds must be non-negative",
             "max_r=-1"),
            ("count --g 4 --k 3 --r 1", "twisted loci are supported for k in {0,1,2}", "k=3"),
            ("dim --locus V_eta_pointed --g 5 --k 1 --a=-1,2",
             "vanishing orders must be non-negative", "entries=(-1, 2)"),
            # math.factorial refuses an argument past sys.maxsize with an OverflowError.
            ("class --locus V_eta_pointed --a 0,9999999999999999999",
             f"(a_i+1)! needs a_i < {sys.maxsize}", "a_1=9999999999999999999"),
            (f"class --locus V_eta_pointed --a 1,{sys.maxsize} --engine",
             f"(a_i+1)! needs a_i < {sys.maxsize}", f"a_1={sys.maxsize}"),
        ],
    )
    def test_refusal_names_the_value(self, argv, text, named):
        code, out, err = run_cli(*argv.split())
        assert (code, out) == (2, "")
        assert text in err
        assert f"got {named}" in err or f", {named}" in err

    @pytest.mark.parametrize(
        "engine", [lagrangian.lagrangian_class_twisted, lagrangian.lagrangian_class_unramified]
    )
    def test_engine_rank_refusal_names_the_value(self, engine):
        # The CLI evaluates the closed form first, so only the library reaches these.
        with pytest.raises(ParameterError, match="rank must be non-negative, got r=-3"):
            engine(-3)

    @pytest.mark.parametrize(
        "call,text,named",
        [
            (lambda: bn_numerics.rho(3, -1, 2), "rho requires non-negative g, r, d",
             "g=3, r=-1, d=2"),
            (lambda: formulas.chern_series_W(-2), "truncation order must be non-negative",
             "n=-2"),
            (lambda: formulas.ChernSeries((2, 1)), "a Chern series must start with q_0 = 1",
             "q_0=2"),
            (lambda: formulas.ChernSeries(()), "a Chern series must start with q_0 = 1",
             "coeffs=()"),
            (lambda: lagrangian.staircase(-1), "staircase needs m >= 0", "m=-1"),
            (lambda: ThetaClass(1, -2), "exponent must be non-negative", "exponent=-2"),
            (lambda: bn_numerics.expected_dim_V_eta(5, 3, 1),
             "twisted loci are supported for k in {0,1,2}", "k=3"),
            (lambda: bn_numerics.VanishingSequence(()), "vanishing sequence must be non-empty",
             "entries=()"),
            (lambda: bn_numerics.VanishingSequence((-1, 2)),
             "vanishing orders must be non-negative", "entries=(-1, 2)"),
            (lambda: limit_series.prym_limit_vanishing(2, 2), "no solution: s = -2 < 0",
             "flavor=unramified_delta1, g=2, r=2"),
            (lambda: limit_series.prym_limit_vanishing_ramified(1, 2),
             "no solution: s = -2 < 0", "flavor=ramified_x_plus_y, g=1, r=2"),
        ],
    )
    def test_library_refusal_names_the_value(self, call, text, named):
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == f"{text}, got {named}"


class TestProcessExitCodes:
    """A real pbn process, one per case: its exit code and streams, not main's return value."""

    @staticmethod
    def _run(*command):
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, *command], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_answer_exits_zero_with_the_golden_bytes(self):
        code, out, err = self._run("-m", "prymbn.cli", *GOLDEN_COMMANDS[0].split())
        assert (code, out, err) == (0, (GOLDEN / "expected" / "01.out").read_text(), "")

    @pytest.mark.parametrize("via", ["module", "entrypoint"])
    def test_refusal_exits_two_on_stderr_only(self, via):
        argv = ["count", "--g", "6", "--k", "0", "--r", "2"]
        entrypoint = f"import sys; from prymbn import cli; sys.argv[1:] = {argv!r}; cli.entrypoint()"
        code, out, err = self._run(*(["-m", "prymbn.cli", *argv] if via == "module"
                                     else ["-c", entrypoint]))
        assert (code, out) == (2, "")
        assert err.startswith("pbn: error: expected dimension is"), err

    @pytest.mark.parametrize("argv", ["--help", "dim --help", "class --help", "count --help",
                                      "limits --help", "verify --help", "dim --g 10 --k 1"])
    def test_help_and_usage_errors_ignore_columns(self, argv, monkeypatch):
        # argparse sizes its text from COLUMNS unless the formatter's width is fixed.
        monkeypatch.delenv("COLUMNS", raising=False)
        plain = self._run("-m", "prymbn.cli", *argv.split())
        monkeypatch.setenv("COLUMNS", "40")
        assert self._run("-m", "prymbn.cli", *argv.split()) == plain

    def test_usage_error_exits_two(self):
        code, out, err = self._run("-m", "prymbn.cli", "dim", "--g", "10", "--k", "1")
        assert (code, out) == (2, "")
        assert "usage: pbn dim" in err and "the following arguments are required: --locus" in err


# The flags of each subcommand, in the order its --help lists them.
_SUBCOMMAND_FLAGS = {
    "dim": ["--locus", "--g", "--k", "--r", "--d", "--a"],
    "class": ["--locus", "--r", "--a", "--engine"],
    "count": ["--g", "--k", "--r"],
    "limits": ["--flavor", "--g", "--r", "--show-candidates"],
    "verify": ["--max-weight", "--max-g", "--max-r"],
}


def _help_flags(command):
    """Exit code, the long flags in the options list of ``pbn <command> --help``, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    flags = re.findall(r"^  (--[a-z-]+)", out.getvalue(), re.MULTILINE)
    return exit_.value.code, flags, err.getvalue()


class TestParser:
    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
    def test_help_lists_every_flag(self, command):
        assert _help_flags(command) == (0, _SUBCOMMAND_FLAGS[command], "")

    @pytest.mark.parametrize("command,fact", [("dim", "dim"), ("class", "closed_form")])
    def test_locus_flags_are_those_of_the_loci(self, command, fact):
        used = {f"--{flag}" for locus in verify.LOCI.values() if getattr(locus, fact)
                for flag in locus.flags}
        fixed = {"--locus", "--g", "--k", "--engine"}
        assert set(_help_flags(command)[1]) - fixed == used

    def test_a_request_adds_only_its_own_flags(self, monkeypatch):
        added = {}  # prog -> the option strings added to that parser, in order
        add_argument = argparse.ArgumentParser.add_argument

        def spy(parser, *flags, **keywords):
            added.setdefault(parser.prog, []).extend(flags)
            return add_argument(parser, *flags, **keywords)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        run_json(*GOLDEN_COMMANDS[0].split())
        assert added == {"pbn": ["-h", "--help", "--format"],
                         "pbn dim": ["-h", "--help", *_SUBCOMMAND_FLAGS["dim"]],
                         **{f"pbn {c}": ["-h", "--help"] for c in _SUBCOMMAND_FLAGS if c != "dim"}}

    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
    def test_usage_error_names_every_flag(self, command):
        # The first flag of each subcommand takes a value; without one, the subcommand's
        # own parser reports the error under its usage line.
        flag = _SUBCOMMAND_FLAGS[command][0]
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
            cli.main([command, flag])
        usage, error = err.getvalue().split(f"pbn {command}: error: ")
        assert (exit_.value.code, error) == (2, f"argument {flag}: expected one argument\n")
        assert usage.startswith(f"usage: pbn {command} [-h] ")
        assert re.findall(r"--[a-z-]+", usage) == _SUBCOMMAND_FLAGS[command]


def _raising(exc_type):
    def fail(*args):
        raise exc_type("injected")

    return fail


def _shifted_by_two(centered):
    """A stand-in for limit_series._centered that moves every closed-form order up by 2."""
    return lambda p: bn_numerics.VanishingSequence(tuple(x + 2 for x in centered(p)))


class TestInvariantViolationExits:
    """Exit 1 on an injected fault: a failed internal cross-check, or a failed suite."""

    @staticmethod
    def _assert_violation(argv, message):
        code, out, err = run_cli(*argv.split())
        assert (code, out) == (1, "")
        assert err.startswith(f"pbn: invariant violation: {message}")

    def test_no_unique_survivor_exits_one(self, monkeypatch):
        monkeypatch.setattr(limit_series, "_endpoint_filter_unramified", lambda g, r, a: True)
        self._assert_violation(
            "limits --flavor unramified --g 5 --r 1",
            "unramified_delta1 g=5 r=1: survivors [(0, 8), (1, 7), (2, 6), (3, 5)]"
            " are not exactly the closed form (3, 5)\n")

    def test_no_survivor_exits_one(self, monkeypatch):
        monkeypatch.setattr(limit_series, "_endpoint_filter_unramified", lambda g, r, a: False)
        self._assert_violation(
            "limits --flavor unramified --g 5 --r 1",
            "unramified_delta1 g=5 r=1: survivors [] are not exactly the closed form (3, 5)\n")

    def test_survivor_off_the_closed_form_exits_one(self, monkeypatch):
        monkeypatch.setattr(limit_series, "_centered", _shifted_by_two(limit_series._centered))
        self._assert_violation(
            "limits --flavor ramified --g 5 --r 1",
            "ramified_x_plus_y g=5 r=1: survivors [(4, 6)]"
            " are not exactly the closed form (6, 8)\n")

    @pytest.mark.parametrize(
        "module,name,fake,failed",
        [
            # verify calls solve_unique through its module, so the fault is seen there
            (limit_series, "solve_unique", _raising(InvariantViolationError),
             [("limit_solver", "unramified_delta1 g=2 r=0: injected")]),
            # solve_unique's own closed-form check is the suite's only comparison
            (limit_series, "_centered", _shifted_by_two(limit_series._centered),
             [("limit_solver", "unramified_delta1 g=2 r=0: unramified_delta1 g=2 r=0: survivors"
               " [(1,)] are not exactly the closed form (3,)")]),
            (formulas, "count_points", _raising(IntegralityError),
             [("count_integrality", "k=1 r=1 g=3: injected")]),
            (lagrangian, "partition_for", lambda a: lagrangian.StrictPartition.of(9),
             [("pointed_equivalence",
               "a=(1,): engine 1/362880 * theta'^9 != ratio 1 x 1/2 * theta'^2")]),
            # a library function raising inside a case names that case, not exit 2 or 0
            (formulas, "unramified_class", _raising(GeneratorMismatchError),
             [("unramified_reproduction", "r=1: injected")]),
            (formulas, "twisted_pointed_class", _raising(GeneratorMismatchError),
             [("pointed_equivalence", "a=(1,): injected")]),
            (lagrangian, "lagrangian_class_twisted", _raising(GeneratorMismatchError),
             [("staircase_relation", "r=0: injected")]),
            (lagrangian, "eval_identity", _raising(GeneratorMismatchError),
             [("engine_oracle", "lambda=(2,): injected")]),
            (theta_ring, "make_space", _raising(GeneratorMismatchError),
             [("count_integrality", "k=1 r=1 g=3: injected"),
              ("degree_table", "unramified_pm g=2 k=0: injected")]),
            (theta_ring, "degree", _raising(GeneratorMismatchError),
             [("count_integrality", "k=1 r=1 g=3: injected"),
              ("degree_table", "unramified_pm g=2 k=0: injected")]),
            (limit_series, "w_locus_expected_dim", _raising(GeneratorMismatchError),
             [("w_consistency", "g=2 r=0: injected")]),
            (bn_numerics, "expected_dim_V", _raising(GeneratorMismatchError),
             [("w_consistency", "g=2 r=0: injected")]),
        ],
    )
    def test_failed_suite_exits_one(self, monkeypatch, module, name, fake, failed):
        monkeypatch.setattr(module, name, fake)
        code, out, err = run_cli("verify", "--max-weight", "2", "--max-g", "2", "--max-r", "1")
        assert (code, err) == (1, "")
        rec = json.loads(out)
        assert rec["result"]["all_passed"] is False
        failing = [s for s in rec["result"]["suites"] if not s["passed"]]
        assert [(s["name"], s["counterexample"]) for s in failing] == failed


class TestFormats:
    def test_csv_round_trip(self):
        code, out, _ = run_cli(
            "--format", "csv", "count", "--g", "3", "--k", "1", "--r", "1"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert "result.count" in header.split(",")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["result.count"] == "2"

    def test_md_table(self):
        code, out, _ = run_cli(
            "--format", "md", "limits", "--flavor", "ramified", "--g", "5", "--r", "1"
        )
        assert code == 0
        assert out.startswith("| key | value |")
        assert "| result.solution | [4,6] |" in out

    def test_md_escapes_the_cell_separator(self):
        # The citation "... g+k-r-2-|a| ..." holds two "|": escaped, every row
        # is still two GFM cells, and md, csv and json flatten to one key map.
        argv = ("dim", "--locus", "V_eta_pointed", "--g", "5", "--k", "1", "--a", "0,2")
        code, out, _ = run_cli("--format", "md", *argv)
        assert code == 0
        assert "-2-\\|a\\| of" in out
        for line in out.splitlines():
            assert len(_gfm_cells(line)) == 2, line
        keys = _json_keys(run_cli(*argv)[1])
        assert "|a|" in keys["citations"]
        assert _table_keys(out, "md") == keys
        assert _table_keys(run_cli("--format", "csv", *argv)[1], "csv") == keys

    def test_json_is_canonical(self):
        _, out1, _ = run_cli("count", "--g", "3", "--k", "1", "--r", "1")
        _, out2, _ = run_cli("count", "--g", "3", "--k", "1", "--r", "1")
        assert out1 == out2
        keys = list(json.loads(out1))
        assert keys == sorted(keys)


@contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit as main does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_HUGE = st.builds(lambda digits, sign: sign * (10 ** digits + 7),
                  st.integers(4300, 4400), st.sampled_from((1, -1)))
_LEAVES = (st.text() | st.integers() | _HUGE | st.booleans() | st.none() | st.fractions()
           | st.lists(st.integers() | _HUGE, max_size=5).map(tuple))
_RECORDS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


class TestJsonRenderer:
    """cli._json against its oracle, json.dumps(sort_keys=True, indent=2, default=str)."""

    @given(_RECORDS)
    @example(())
    @example([(), []])
    @example({"candidates": [(0, 8), (), (-1,)], "empty": {}})
    @example("\x00\u00e9\"\\\n")
    def test_matches_json_dumps(self, value):
        with unlimited_int_digits():
            assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2, default=str)

    @given(st.integers(1, 8).flatmap(lambda m: st.lists(
        st.tuples(*[st.integers() | _HUGE] * m), min_size=1, max_size=64)))
    @example([(0, 8), (1,), (2, 6)])  # mixed lengths
    @example([(0, 8), [1, 7]])  # a tuple next to a list
    @example([(3,), (-4,)])  # one-entry tuples
    @example([(0, 8), (), (2, 6)])  # an empty tuple among non-empty ones
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_candidate_block_matches_json_dumps(self, rows):
        with unlimited_int_digits():
            for value in (rows, {"result": {"candidates": rows, "s": 1}}):
                assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2,
                                                      default=str)

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(7, 2), Fraction(4, 2), True])
    @pytest.mark.parametrize("path", ["lone tuple", "block"])
    def test_non_int_tuple_entry_is_a_type_error(self, bad, path):
        # "%d" would print 1.5 as 1 and Fraction(7, 2) as 3: refused, never truncated.
        value = (0, bad) if path == "lone tuple" else [(0, 2), (1, bad), (4, 6)]
        for record in (value, {"candidates": value}):
            with pytest.raises(TypeError, match="int entries only"):
                cli._json(record)

    @pytest.mark.parametrize("index,line", list(enumerate(GOLDEN_COMMANDS, 1)))
    def test_golden_json_rerenders_to_the_same_bytes(self, index, line):
        argv = shlex.split(line)
        if argv[0] == "--format":
            argv = argv[2:]
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert cli._json(json.loads(out)) + "\n" == out


# Every flag a drawn argv may carry, with the values drawn for it.  A
# sequence holds at most 5 orders in -1..14 and need not be valid.
_VALUES = {
    flag: st.integers(-3, 30).map(str) for flag in ("--g", "--k", "--r", "--d")
}
_VALUES["--a"] = st.lists(st.integers(-1, 14), max_size=5).map(lambda v: ",".join(map(str, v)))
# limits stays at g <= 16: ramified (30, 6) already takes 15 s and 200 MB of
# candidates, and larger values wait for a cost guard that refuses them.
_LIMITS_G = st.integers(-3, 16).map(str)
_BOUNDS = st.integers(-1, 8).map(str)


@st.composite
def _argvs(draw):
    """A subcommand with its flags: each used flag missing and each unused flag given
    with probability 1/6, so that both refusals are drawn."""
    command = draw(st.sampled_from(("dim", "class", "count", "limits", "verify")))
    argv, flip = [command], st.sampled_from((False,) * 5 + (True,))
    if command == "verify":
        for flag in ("--max-weight", "--max-g", "--max-r"):
            if draw(st.booleans()):
                argv += [flag, draw(_BOUNDS)]
        return argv
    if command in ("dim", "class"):
        has = (lambda l: l.dim) if command == "dim" else (lambda l: l.closed_form)
        locus = draw(st.sampled_from([n for n, l in verify.LOCI.items() if has(l)]))
        argv += ["--locus", locus]
        used = ("g", "k") * (command == "dim") + verify.LOCI[locus].flags
        if command == "class" and draw(st.booleans()):
            argv.append("--engine")
    elif command == "count":
        used = ("g", "k", "r")
    else:
        argv += ["--flavor", draw(st.sampled_from(tuple(verify.LIMIT_FLAVORS)))]
        used = ("g", "r")
        if draw(st.booleans()):
            argv.append("--show-candidates")
    for flag in ("--g", "--k", "--r", "--d", "--a"):
        if (flag[2:] in used) != draw(flip):
            values = _LIMITS_G if command == "limits" and flag == "--g" else _VALUES[flag]
            argv += [flag, draw(values)]
    return argv


def _echo(argv):
    """The params of a drawn argv that answers: each flag as parsed, a store-true flag
    only when given, and verify's missing bounds at their defaults."""
    params = {"max_weight": 24, "max_g": 12, "max_r": 4} if argv[0] == "verify" else {}
    tokens = iter(argv[1:])
    for flag in tokens:
        key = flag[2:].replace("-", "_")
        if flag in ("--engine", "--show-candidates"):
            params[key] = True
        elif flag in ("--locus", "--flavor"):
            params[key] = next(tokens)
        elif flag == "--a":
            params[key] = [int(t) for t in next(tokens).split(",")]
        else:
            params[key] = int(next(tokens))
    return params


def _run_any(*argv):
    """run_cli, with argparse's SystemExit read as its exit code."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code, "", ""


def _json_keys(out):
    """The dotted key map of a json record, flattened as csv and md print it."""
    flat = {}

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            flat[key] = json.dumps(value, separators=(",", ":"))
        else:
            flat[key] = "" if value is None else str(value)

    walk(json.loads(out), "")
    return flat


def _table_keys(out, fmt):
    if fmt == "csv":
        limit = csv.field_size_limit(max(len(out), 131072))  # a candidate list may be longer
        try:
            header, row = csv.reader(io.StringIO(out))
        finally:
            csv.field_size_limit(limit)
        return dict(zip(header, row))
    lines = out.splitlines()
    assert lines[:2] == ["| key | value |", "| --- | --- |"]
    return dict(_gfm_cells(line) for line in lines[2:])


def _gfm_cells(line):
    """The cells of a GFM table row, split at unescaped "|", with "\\|" unescaped."""
    cells = re.split(r"(?<!\\)\|", line)
    assert cells[0] == cells[-1] == "", line
    return [c[1:-1].replace("\\|", "|") for c in cells[1:-1]]


class TestContract:
    """Every drawn argv answers (exit 0) or is refused (exit 2), in every format."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argvs())
    # a csv cell of 148,996 characters, past the csv module's default field limit
    @example(["limits", "--flavor", "ramified", "--show-candidates", "--g", "16", "--r", "5"])
    def test_exit_zero_or_two_and_formats_agree(self, argv):
        with unlimited_int_digits():
            code, out, err = _run_any(*argv)
            assert code in (0, 2), (code, err)
            if code == 2:
                return
            assert cli._json(json.loads(out)) + "\n" == out
            assert json.loads(out)["params"] == _echo(argv)
            keys = _json_keys(out)
            for fmt in ("csv", "md"):
                code, table, err = _run_any("--format", fmt, *argv)
                assert code == 0, err
                assert _table_keys(table, fmt) == keys
