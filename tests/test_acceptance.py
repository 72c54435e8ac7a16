"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``; the
verbose test id carries the same information under ``pytest -v``) and
enforces the stated time budget where one applies.
"""

import io
import shlex
import time
from contextlib import redirect_stdout
from pathlib import Path

from prymbn import cli, verify
from prymbn.formulas import chern_series_W, twisted_class
from prymbn.lagrangian import q_tilde, staircase
from prymbn.limit_series import (
    UNRAMIFIED_DELTA1,
    LimitProblem,
    enumerate_candidates,
    solve_unique,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(number, description, passed):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_engine_matches_oracle_to_weight_24():
    start = time.monotonic()
    res = verify.suite_engine_oracle(verify.engine_classes(24))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"Pfaffian engine equals product oracle on {res.cases} strict "
        f"partitions of weight <= 24 in {elapsed:.2f}s",
        res.passed and res.cases > 0 and elapsed < 10.0,
    )


def test_criterion_2_pointed_classes_agree_to_weight_24():
    res = verify.suite_pointed_equivalence(verify.engine_classes(24))
    _report(
        2,
        f"pointed Pfaffian class equals closed form on {res.cases} "
        "vanishing sequences with |a| + r + 1 <= 24",
        res.passed and res.cases > 0,
    )


def test_criterion_3_unramified_classes_reproduced_to_rank_8():
    res = verify.suite_unramified_reproduction(8)
    _report(
        3,
        "P-tilde staircase evaluation reproduces the norm-omega locus "
        f"class for ranks 1..8 ({res.cases} cases)",
        res.passed and res.cases == 8,
    )


def test_criterion_4_point_counts_and_integrality():
    start = time.monotonic()
    counts = []
    for g, k, r in ((3, 1, 1), (6, 1, 2), (2, 2, 1)):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["count", "--g", str(g), "--k", str(k), "--r", str(r)])
        counts.append((code, buf.getvalue()))
    ok = (
        all(code == 0 for code, _ in counts)
        and '"count": 2' in counts[0][1]
        and '"count": 16' in counts[1][1]
        and '"count": 1' in counts[2][1]
    )
    res = verify.suite_count_integrality(5)
    elapsed = time.monotonic() - start
    _report(
        4,
        f"counts 2/16/1 and integrality over {res.cases} zero-dimensional "
        f"loci in {elapsed:.2f}s",
        ok and res.passed and elapsed < 1.0,
    )


def test_criterion_5_staircase_doubling_relation_to_rank_6():
    ok = True
    for r in range(7):
        lam = staircase(r + 1)
        engine = q_tilde(lam, chern_series_W(lam.weight))
        ok = ok and engine.coeff == 2 ** (r + 1) * twisted_class(r).coeff
    _report(
        5,
        "Q-tilde on the staircase carries the 2^(r+1) factor over the "
        "unpointed coefficient for r <= 6",
        ok,
    )


def test_criterion_6_limit_solver_unique_to_g12_r4():
    start = time.monotonic()
    res = verify.suite_limit_solver(12, 4)
    g5 = enumerate_candidates(LimitProblem(UNRAMIFIED_DELTA1, 5, 1))
    survivor = solve_unique(LimitProblem(UNRAMIFIED_DELTA1, 5, 1))
    elapsed = time.monotonic() - start
    _report(
        6,
        f"limit solver unique over {res.cases} cases with g <= 12, r <= 4 "
        f"in {elapsed:.2f}s; g=5 r=1 candidates pruned to (3,5)",
        res.passed
        and g5 == [(0, 8), (1, 7), (2, 6), (3, 5)]
        and all(type(a) is tuple for a in g5)
        and survivor.entries == (3, 5)
        and elapsed < 5.0,
    )


def test_criterion_7_dimension_identities_to_g30_r6():
    res_w = verify.suite_w_consistency(30, 6)
    res_deg = verify.suite_degree_table(30)
    _report(
        7,
        "pointed-rho dimension identity and torsor degree table hold for "
        f"g <= 30, r <= 6 ({res_w.cases} + {res_deg.cases} cases)",
        res_w.passed and res_deg.passed and res_w.cases > 0 and res_deg.cases > 0,
    )


def test_criterion_8_cli_golden_outputs_and_verify():
    commands = GOLDEN.joinpath("commands.txt").read_text().splitlines()
    ok = len(commands) == 20
    for i, line in enumerate(commands, 1):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(shlex.split(line))
        expected = GOLDEN.joinpath("expected", f"{i:02d}.out").read_text()
        ok = ok and code == 0 and buf.getvalue() == expected
    with redirect_stdout(io.StringIO()):
        verify_code = cli.main(["verify"])
    _report(
        8,
        "20 golden CLI outputs byte-identical and `pbn verify` exits 0",
        ok and verify_code == 0,
    )
