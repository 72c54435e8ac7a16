"""Mutation gate: each mutant of the table must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed::

    python tools/mutants.py

For each entry of ``MUTANTS`` the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, replaces the one place
where the snippet occurs in the file by its replacement, and runs the named
test nodes there with ``pytest -x -q --hypothesis-seed=0``.  ``pyproject.toml``
puts ``src`` on pytest's ``pythonpath``, so the copy's code is the code under
test.  Before the mutants, the named nodes run once on an unchanged copy and
must pass.  The mutants then run in a pool of ``os.cpu_count()`` threads, each
waiting on its own pytest process in its own copy; their lines print in table
order.  The fixed seed gives every Hypothesis test the same draws on the clean
copy and on each mutant, so two runs print the same lines.

The gate exits 1 if a mutant survives (its tests pass), if a snippet matches
no place or more than one place, or if pytest ends otherwise than with
failed tests (a node id that names no test, a collection error).  Standard
library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, file, exact snippet, replacement, test nodes that must fail).
# A mutant may change a test oracle in tests/ too.  Each names a node that kills it on
# every run: a plain test or an explicit @example, never a Hypothesis draw alone.
MUTANTS = [
    ("the unused-flag refusal of _locus_args is skipped", "src/prymbn/cli.py",
     "if flag not in flags and getattr(args, flag, None) is not None:",
     "if False:",
     ["tests/test_cli.py::TestDim::test_unused_flag_is_usage_error",
      "tests/test_cli.py::TestClass::test_unused_flag_is_usage_error"]),
    ("the params echo keeps False flags", "src/prymbn/cli.py",
     "if v is not None and v is not False",
     "if v is not None",
     ["tests/test_golden.py::test_golden_output[9-class --locus V_eta --r 1]",
      "tests/test_cli.py::TestContract::test_exit_zero_or_two_and_formats_agree"]),
    ("md no longer escapes the cell separator", "src/prymbn/cli.py",
     'flat[k].replace("|", r"\\|")',
     "flat[k]",
     ["tests/test_cli.py::TestFormats::test_md_escapes_the_cell_separator"]),
    ("every subcommand adds its flags when built", "src/prymbn/cli.py",
     "        self._unadded = list(flags)\n",
     "        self._unadded = []\n"
     "        for flag, keywords in flags:\n"
     "            self.add_argument(flag, **keywords)\n",
     ["tests/test_cli.py::TestParser::test_a_request_adds_only_its_own_flags"]),
    ("a subcommand adds its flags after it parses", "src/prymbn/cli.py",
     "        for flag, keywords in self._unadded:\n"
     "            self.add_argument(flag, **keywords)\n"
     "        self._unadded = []\n"
     "        return super().parse_known_args(args, namespace)\n",
     "        parsed = super().parse_known_args(args, namespace)\n"
     "        for flag, keywords in self._unadded:\n"
     "            self.add_argument(flag, **keywords)\n"
     "        self._unadded = []\n"
     "        return parsed\n",
     ["tests/test_cli.py::TestParser::test_usage_error_names_every_flag",
      "tests/test_cli.py::TestParser::test_help_lists_every_flag"]),
    ("the zero-pivot fix-up reads column b with the wrong sign", "src/prymbn/lagrangian.py",
     "m[a][t] -= m[t][b]",
     "m[a][t] += m[t][b]",
     ["tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion"]),
    ("the zero-pivot fix-up skips the entries past b", "src/prymbn/lagrangian.py",
     "            for t in range(b + 1, n):\n                m[a][t] += m[b][t]\n",
     "",
     ["tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion"]),
    ("elimination drops its final pivot", "src/prymbn/lagrangian.py",
     "return result * (m[n - 2][n - 1] if n else 1)",
     "return result",
     ["tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion",
      "tests/test_lagrangian.py::TestQTildeTable"
      "::test_expansion_matches_elimination_to_weight_24"]),
    ("the fraction-free step divides by the current pivot", "src/prymbn/lagrangian.py",
     "+ row[j] * si) // prev",
     "+ row[j] * si) // p",
     ["tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion"]),
    ("the fraction-free rule never carries the previous pivot", "src/prymbn/lagrangian.py",
     "            prev = p\n",
     "",
     ["tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion"]),
    ("the size rule always picks the fraction-free rule", "src/prymbn/lagrangian.py",
     "len(p) * d2.bit_length() <= _FRACTION_FREE_BITS",
     "True",
     ["tests/test_lagrangian.py::TestStaircaseRelation"
      "::test_large_denominators_run_the_fraction_rule"]),
    ("q_two pads b = 0 as a part", "src/prymbn/lagrangian.py",
     "(a, b) if b else (a,)",
     "(a, b)",
     ["tests/test_lagrangian.py::TestQTwo::test_single_part_is_chern_class"]),
    ("_suite never marks a suite vacuous", "src/prymbn/verify.py",
     "vacuous=True if cases == 0 else None",
     "vacuous=None",
     ["tests/test_cli.py::TestVerify::test_vacuous_suites_are_marked"]),
    ("degree_table reads the table's top degree, not Riemann-Roch", "src/prymbn/verify.py",
     "want = math.factorial(space.dim) * chi",
     "want = space.theta_top",
     ["tests/test_cli.py::TestVerify::test_degree_table_checks_riemann_roch_not_the_table"]),
    ("solve_unique takes the first of several survivors", "src/prymbn/limit_series.py",
     "if survivors != [closed.entries]:",
     "if closed.entries not in survivors:",
     ["tests/test_cli.py::TestInvariantViolationExits::test_no_unique_survivor_exits_one"]),
    ("a lone survivor off the closed form passes", "src/prymbn/limit_series.py",
     "if survivors != [closed.entries]:",
     "if len(survivors) != 1:",
     ["tests/test_cli.py::TestInvariantViolationExits"
      "::test_survivor_off_the_closed_form_exits_one"]),
    ("the pruned walk tests a prefix one genus too high", "src/prymbn/limit_series.py",
     "keep(p.g - p.r - 1 + len(a),",
     "keep(p.g - p.r + len(a),",
     ["tests/test_limit_series.py::TestPrunedWalk::test_matches_the_filtered_full_walk"]),
    ("the pruned walk appends a last entry without testing it", "src/prymbn/limit_series.py",
     "if test is None or test(prefix + (rest,)):",
     "if True:",
     ["tests/test_limit_series.py::TestPrunedWalk::test_matches_the_filtered_full_walk"]),
    ("the walk lets the next entry follow at +1", "src/prymbn/limit_series.py",
     "prefix[-1] + 2",
     "prefix[-1] + 1",
     ["tests/test_limit_series.py::TestEnumerate::test_matches_naive_walk"]),
    ("the pruned walk appends its pairs without testing them", "src/prymbn/limit_series.py",
     "if k == 2 and test is None:",
     "if k == 2:",
     ["tests/test_limit_series.py::TestPrunedWalk::test_matches_the_filtered_full_walk"]),
    ("solve_unique filters the full walk", "src/prymbn/limit_series.py",
     "survivors = enumerate_candidates(p, keep)",
     "survivors = [a for a in enumerate_candidates(p) if keep(p.g, p.r, a)]",
     ["tests/test_cli.py::TestLimits::test_no_candidate_becomes_a_record[argv1-6225]"]),
    ("the solver skips its adjusted-rho re-check", "src/prymbn/limit_series.py",
     "if rho_pointed(p.component_genus, p.r, p.degree, aspect) != p.s:",
     "if False:",
     ["tests/test_limit_series.py::TestSolveUnique"
      "::test_rho_check_on_survivor_names_the_problem"]),
    ("limits refuses r at its cap", "src/prymbn/cli.py",
     "problem.r > LIMITS_MAX_R",
     "problem.r >= LIMITS_MAX_R",
     ["tests/test_cli.py::TestLimits::test_r_at_the_cap_answers[ramified-0]"]),
    ("main exits 2 on an invariant violation", "src/prymbn/cli.py",
     'print(f"pbn: invariant violation: {exc}", file=sys.stderr)\n        return INVARIANT_ERROR',
     'print(f"pbn: invariant violation: {exc}", file=sys.stderr)\n        return USAGE_ERROR',
     ["tests/test_cli.py::TestInvariantViolationExits::test_no_unique_survivor_exits_one"]),
    ("_report calls a negative lower bound empty", "src/prymbn/bn_numerics.py",
     "EMPTY if exact and value < 0",
     "EMPTY if value < 0",
     ["tests/test_bn_numerics.py::TestReportRule::test_negative_lower_bound_is_unknown",
      "tests/test_bn_numerics.py::TestReportRule::test_claims_follow_exactness_and_sign"]),
    ("_report calls a locus non-empty without a proof of existence",
     "src/prymbn/bn_numerics.py",
     "NONEMPTY if nonempty and value >= 0",
     "NONEMPTY if value >= 0",
     ["tests/test_bn_numerics.py::TestExpectedDimVEta::test_k0_nonnegative_is_unknown",
      "tests/test_bn_numerics.py::TestExpectedDimV::test_k3_is_lower_bound_only"]),
    ("a series rule is called past the order the table reads", "src/prymbn/lagrangian.py",
     "c = c(top) if callable(c) else c",
     "c = c(top + 1) if callable(c) else c",
     ["tests/test_cli.py::TestVerify::test_engine_oracle_builds_one_chern_series"]),
    ("a table recomputes each Q_(a,b) on every use", "src/prymbn/lagrangian.py",
     "cache(lambda a, b: _q2_coeff(a, b, n))",
     "(lambda a, b: _q2_coeff(a, b, n))",
     ["tests/test_cli.py::TestVerify::test_run_all_computes_each_two_row_class_once_per_table"]),
    ("the two-row rule builds every numerator up front", "src/prymbn/lagrangian.py",
     "    return cache(lambda a, b: _q2_coeff(a, b, n)), d * d",
     "    [n(i) for i in range(top + 1)]\n"
     "    return cache(lambda a, b: _q2_coeff(a, b, n)), d * d",
     ["tests/test_lagrangian.py::TestQTildeTable"
      "::test_a_sparse_partition_builds_only_the_n_i_it_reads"]),
    ("the first-row expansion flips its alternating sign", "src/prymbn/lagrangian.py",
     "(-1) ** j * q2(a, b)",
     "(-1) ** (j + 1) * q2(a, b)",
     ["tests/test_lagrangian.py::TestQTildeTable"
      "::test_expansion_matches_elimination_to_weight_24"]),
    ("the table drops the zero part of an odd length", "src/prymbn/lagrangian.py",
     "p = lam.parts + (0,) * (lam.length % 2)",
     "p = lam.parts",
     ["tests/test_lagrangian.py::TestShiftedTableaux"
      "::test_table_counts_shifted_tableaux_to_weight_20"]),
    ("a lone partition expands", "src/prymbn/lagrangian.py",
     "if len(lams) > 1 else",
     "if True else",
     ["tests/test_lagrangian.py::TestStaircaseRelation"
      "::test_twisted_engine_eliminates_its_lone_staircase"]),
    ("a table eliminates", "src/prymbn/lagrangian.py",
     "if len(lams) > 1 else",
     "if False else",
     ["tests/test_cli.py::TestVerify::test_run_all_expands_each_partition_once",
      "tests/test_lagrangian.py::TestQTildeTable"
      "::test_a_table_closed_under_removing_parts_expands_only_its_parts"]),
    ("the first-row expansion forgets its memo", "src/prymbn/lagrangian.py",
     "if parts not in memo:",
     "if True:",
     ["tests/test_cli.py::TestVerify::test_run_all_expands_each_partition_once"]),
    ("eval_identity flips the sign of each pair factor", "src/prymbn/lagrangian.py",
     "num = math.prod(x - y for x, y in pairs)",
     "num = math.prod(y - x for x, y in pairs)",
     ["tests/test_lagrangian.py::TestEvalIdentity::test_examples"]),
    ("_double_factorials multiplies the odd numbers, not their double factorials",
     "src/prymbn/formulas.py",
     "math.prod(accumulate(range(1, 2 * n, 2), mul))",
     "math.prod(range(1, 2 * n, 2))",
     ["tests/test_lagrangian.py::TestShiftedTableaux::test_twisted_count_at_dimension_zero"]),
    ("twisted_pointed_class divides by a_i + a_j + 1", "src/prymbn/formulas.py",
     "math.prod(ai + aj + 2 for aj, ai in pairs)",
     "math.prod(ai + aj + 1 for aj, ai in pairs)",
     ["tests/test_formulas.py::TestTwistedPointedClass::test_examples"]),
    ("the class rule ignores the locus's ratio", "src/prymbn/verify.py",
     "entry.ratio(v)",
     "1",
     ["tests/test_cli.py::TestVerify::test_run_all_expands_each_partition_once"]),
    ("the case rule catches only an invariant violation", "src/prymbn/verify.py",
     "except PrymBNError as exc:",
     "except limit_series.InvariantViolationError as exc:",
     ["tests/test_cli.py::TestInvariantViolationExits::test_failed_suite_exits_one"]),
    ("a counterexample drops its case label", "src/prymbn/verify.py",
     'f"{label.format(*args)}: {failure}"',
     "str(failure)",
     ["tests/test_cli.py::TestInvariantViolationExits::test_failed_suite_exits_one"]),
    ("the count rule skips its dimension refusal", "src/prymbn/verify.py",
     "if rep.value != 0:",
     "if False:",
     ["tests/test_cli.py::TestCount::test_nonzero_dimension_refused"]),
    ("the count rule builds its torsor one genus up", "src/prymbn/verify.py",
     "make_space(locus.torsor, g, k)",
     "make_space(locus.torsor, g + 1, k)",
     ["tests/test_cli.py::TestCount::test_counts",
      "tests/test_cli.py::TestVerify::test_small_bounds_pass"]),
    ("the Laplace oracle drops the alternating sign", "tests/test_lagrangian.py",
     "(-1) ** (i - 1)",
     "(-1) ** i",
     ["tests/test_lagrangian.py::TestLaplaceOracle::test_zero_leading_pivot_is_fixed_up",
      "tests/test_lagrangian.py::TestPfaffian::test_integer_matrix_matches_laplace_expansion"]),
    ("the naive oracle drops the x+y gap rule", "tests/test_limit_series.py",
     "if any(y - x < 2 for x, y in zip(entries, entries[1:])):",
     "if any(y - x < 1 for x, y in zip(entries, entries[1:])):",
     ["tests/test_limit_series.py::TestEnumerate::test_matches_naive_walk"]),
]


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into)


def _pytest(where: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    # No PYTHONPATH, so that only the copy's src (from pyproject.toml) is importable first.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *nodes],
        cwd=where, env=env, capture_output=True, text=True)


def _mutate(where: Path, path: str, snippet: str, replacement: str) -> str | None:
    """Apply one mutant to the copy; an error text if the snippet is not matched once."""
    target = where / path
    source = target.read_text()
    found = source.count(snippet)
    if found != 1:
        return f"snippet found {found} times in {path}: {snippet!r}"
    target.write_text(source.replace(snippet, replacement))
    return None


def _kill(where: Path, path: str, snippet: str, replacement: str, named: list[str]) -> str | None:
    """Run one mutant in a fresh copy at where; None if its tests fail, else the error."""
    _copy(where)
    error = _mutate(where, path, snippet, replacement)
    if error is None:
        done = _pytest(where, named)
        if done.returncode == 0:
            error = "survived"
        elif done.returncode != 1:  # not "tests failed": a bad node id, an import error
            error = f"pytest exited {done.returncode}\n{done.stdout}{done.stderr}"
    shutil.rmtree(where)
    return error


def main() -> int:
    failures, workers = [], os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        start = time.perf_counter()
        clean = Path(tmp) / "clean"
        _copy(clean)
        nodes = list(dict.fromkeys(node for *_, named in MUTANTS for node in named))
        done = _pytest(clean, nodes)
        if done.returncode != 0:
            print(done.stdout + done.stderr)
            print(f"mutants: pytest exited {done.returncode} on the unchanged code, not 0")
            return 1
        with ThreadPoolExecutor(workers) as pool:
            errors = pool.map(lambda i: _kill(Path(tmp) / f"mutant{i}", *MUTANTS[i][1:]),
                              range(len(MUTANTS)))
            for (what, *_), error in zip(MUTANTS, errors):
                print(f"{'killed  ' if error is None else 'FAILED  '}{what}")
                if error is not None:
                    failures.append(f"{what}: {error}")
        elapsed = time.perf_counter() - start
    for failure in failures:
        print(f"mutants: {failure}")
    print(f"mutants: {len(MUTANTS) - len(failures)} of {len(MUTANTS)} killed in {elapsed:.1f} s"
          f" on {workers} workers")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
