"""Tests of the benchmark's own logic.

    python3 -m unittest discover perfbench/tests
"""

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from prymbn import cli, verify  # noqa: E402


def respond(argv):
    code, out, _, _ = run.call(cli, argv)
    return code, out


class TailPercentile(unittest.TestCase):
    def test_highest_quantile_with_ten_beyond(self):
        self.assertEqual(run.tail_quantile(2000), Fraction(199, 200))
        self.assertEqual(run.tail_quantile(40), Fraction(3, 4))
        self.assertEqual(run.tail_quantile(20), Fraction(1, 2))

    def test_too_few_samples_gives_no_tail(self):
        self.assertIsNone(run.tail_quantile(19))
        self.assertIsNone(run.tail_quantile(1))

    def test_nearest_rank_leaves_ten_per_pass_beyond(self):
        q = run.tail_quantile(40)
        one_pass = list(range(40, 0, -1))
        self.assertEqual(run.nearest_rank(one_pass, q), 30)
        self.assertEqual(sum(v > 30 for v in one_pass), 10)
        self.assertEqual(run.nearest_rank(one_pass * 3, q), 30)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # 0: [0, 10] holds 1: [1, 4] (which holds 2: [2, 3]) and 3: [5, 7].
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 7.0]
        self.assertEqual(spans.self_times(parent, start, end), [5.0, 2.0, 1.0, 2.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        parent = [-1, 0, 0, 0]
        start = [0.0, 1.0, 3.0, 8.0]
        end = [10.0, 5.0, 6.0, 12.0]
        self.assertEqual(spans.self_times(parent, start, end)[0], 10.0 - 5.0 - 2.0)

    def test_tracer_wraps_names_where_they_are_looked_up(self):
        tracer = spans.Tracer()
        modules = spans.layer_modules()
        original = cli.solve_unique
        tracer.install(modules)
        try:
            code, _ = respond(["limits", "--flavor", "unramified", "--g", "5", "--r", "1"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(cli.solve_unique, original)
        names = [tracer.names[n] for n in tracer.name]
        self.assertEqual(names[0], "cli.main")
        solve = names.index("limit_series.solve_unique")
        self.assertEqual(tracer.parent[solve], 0)
        self.assertEqual(names[tracer.parent[names.index("limit_series.enumerate_candidates")]],
                         "limit_series.solve_unique")
        metrics = tracer.layer_metrics(tracer.end[0] - tracer.start[0])
        self.assertEqual(metrics["limit_series.search_space"], 9 * 8 // 2)
        self.assertGreater(metrics["limit_series.candidates"], 0)
        self.assertGreater(metrics["bn_numerics.calls"], 0)


class Determinism(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.deck(name, 7), workloads.deck(name, 7)
            self.assertEqual([r.argv for r in a], [r.argv for r in b])
            self.assertEqual(workloads.digest(a), workloads.digest(b))
            self.assertNotEqual(workloads.digest(a), workloads.digest(workloads.deck(name, 8)))

    def test_deck_sizes_do_not_depend_on_seed(self):
        sizes = {"closed_form_mix": 500, "engine_large": 40, "limits_enum": 40, "verify_suites": 32}
        for seed in (1, 2):
            for name, size in sizes.items():
                self.assertEqual(len(workloads.deck(name, seed)), size)


class Oracle(unittest.TestCase):
    def test_invalid_request_is_correct_only_with_exit_two(self):
        req = workloads.Request(("count", "--g", "6", "--k", "0", "--r", "2"), "invalid")
        self.assertIsNone(oracle.check(req, 2, ""))
        self.assertIsNotNone(oracle.check(req, 0, "{}"))
        self.assertIsNotNone(oracle.check(req, 1, ""))
        code, out = respond(req.argv)
        self.assertIsNone(oracle.check(req, code, out))

    def test_valid_request_fails_on_refusal(self):
        req = workloads.COLD_START["closed_form_mix"]
        self.assertIsNotNone(oracle.check(req, 2, ""))

    def test_every_format_parses_and_checks(self):
        for fmt in workloads.FORMATS:
            req = workloads._request("count", fmt, g=6, k=1, r=2)
            code, out = respond(req.argv)
            self.assertIsNone(oracle.check(req, code, out), fmt)
            self.assertIsNotNone(oracle.check(req, code, out.replace("16", "17")), fmt)
            self.assertIsNotNone(oracle.check(req, code, out[: len(out) // 2]), fmt)

    def test_engine_ratio_on_staircases(self):
        req = workloads._request("class", locus="V_eta", r=2, engine=True)
        code, out = respond(req.argv)
        self.assertIsNone(oracle.check(req, code, out))
        self.assertIsNotNone(oracle.check(req, code, out.replace('"engine_ratio": 8', '"engine_ratio": 4')))

    def test_candidates_must_meet_constraints(self):
        req = workloads._request("limits", flavor="unramified", g=5, r=1, show_candidates=True)
        code, out = respond(req.argv)
        self.assertIsNone(oracle.check(req, code, out))
        record = json.loads(out)
        record["result"]["candidates"][0][0] += 1
        self.assertIsNotNone(oracle.check(req, code, json.dumps(record)))

    def test_derived_case_counts_match_suites(self):
        bounds = (9, 6, 3)
        got = [res.cases for res in verify.run_all(*bounds)]
        self.assertEqual(got, oracle.verify_case_counts(*bounds))
        self.assertEqual(oracle.strict_partition_count(24), 761)

    def test_closed_form_requests_pass_their_oracle(self):
        for req in workloads.deck("closed_form_mix", 3):
            code, out = respond(req.argv)
            self.assertIsNone(oracle.check(req, code, out), " ".join(req.argv))


if __name__ == "__main__":
    unittest.main()
