import io
import json
import shlex
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prymbn import cli, formulas, limit_series

GOLDEN_COMMANDS = (Path(__file__).parent / "golden" / "commands.txt").read_text().splitlines()


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

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str digit limit on this Python",
    )
    def test_v_eta_coefficient_past_digit_limit(self):
        # The coefficient at r = 68 has more digits than the default
        # int-to-str limit; the CLI must render it exactly and leave the
        # limit as it was.  Reading it back needs the limit lifted too.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("class", "--locus", "V_eta", "--r", "68")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            coeff = Fraction(json.loads(out)["result"]["class"]["coeff"])
            assert coeff == formulas.twisted_class(68).coeff
        finally:
            sys.set_int_max_str_digits(limit)


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


class TestLimits:
    def test_with_candidates(self):
        rec = run_json(
            "limits", "--flavor", "unramified", "--g", "5", "--r", "1",
            "--show-candidates",
        )
        assert rec["result"]["solution"] == [3, 5]
        assert rec["result"]["candidates"] == [[0, 8], [1, 7], [2, 6], [3, 5]]

    def test_show_candidates_enumerates_once(self, monkeypatch):
        calls, original = [], limit_series.enumerate_candidates

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(limit_series, "enumerate_candidates", counted)
        monkeypatch.setattr(cli, "enumerate_candidates", counted)
        run_json("limits", "--flavor", "unramified", "--g", "5", "--r", "1", "--show-candidates")
        assert len(calls) == 1

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

    @pytest.mark.parametrize("flavor,g,r", [("ramified", 2, 3), ("unramified", 2, 2)])
    def test_empty_locus_keeps_the_candidates_flag(self, flavor, g, r):
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

    def test_run_all_evaluates_one_q_tilde_per_partition(self, monkeypatch):
        # 761 partitions of weight <= 24, plus the staircases of r = 0..4 and
        # the P-tilde staircases of r = 1..4.
        from prymbn import lagrangian
        from prymbn import verify as verify_mod

        calls = []
        real = lagrangian.q_tilde
        monkeypatch.setattr(lagrangian, "q_tilde", lambda *a: calls.append(a) or real(*a))
        results = verify_mod.run_all()
        assert all(res.passed for res in results)
        assert len(calls) == 761 + 5 + 4

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
        # lagrangian imports the name, so both bindings are counted.
        from prymbn import lagrangian
        from prymbn import verify as verify_mod

        calls = []
        real = formulas.chern_series_W
        counted = lambda n: calls.append(n) or real(n)  # noqa: E731
        monkeypatch.setattr(formulas, "chern_series_W", counted)
        monkeypatch.setattr(lagrangian, "chern_series_W", counted)
        res = verify_mod.suite_pointed_equivalence(verify_mod.engine_classes(24))
        assert (res.passed, res.cases, calls) == (True, 761, [24])

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

    def test_json_is_canonical(self):
        _, out1, _ = run_cli("count", "--g", "3", "--k", "1", "--r", "1")
        _, out2, _ = run_cli("count", "--g", "3", "--k", "1", "--r", "1")
        assert out1 == out2
        keys = list(json.loads(out1))
        assert keys == sorted(keys)


@contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit (absent before Python 3.10.7) as main does."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
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

    @pytest.mark.parametrize("index,line", list(enumerate(GOLDEN_COMMANDS, 1)))
    def test_golden_json_rerenders_to_the_same_bytes(self, index, line):
        argv = shlex.split(line)
        if argv[0] == "--format":
            argv = argv[2:]
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert cli._json(json.loads(out)) + "\n" == out
