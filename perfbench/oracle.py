"""Response oracles: decide whether one CLI response is correct.

A response is the exit code and the stdout text of ``cli.main``.  Every
output format is first flattened to the same key -> string map the md and
csv renderers print, so one set of checks covers json, csv and md.  The
expected values come from the library's closed forms and from case counts
derived here from the ``verify`` bounds.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Dict, List, Optional

from prymbn import bn_numerics, formulas, limit_series, theta_ring
from workloads import Request

USAGE_ERROR = 2

_DIM = {
    "V": lambda p: bn_numerics.expected_dim_V(p["g"], p["k"], p["r"]),
    "V_eta": lambda p: bn_numerics.expected_dim_V_eta(p["g"], p["k"], p["r"]),
    "V_eta_pointed": lambda p: bn_numerics.expected_dim_V_eta_pointed(
        p["g"], p["k"], bn_numerics.VanishingSequence(p["a"])),
    "V_div": lambda p: bn_numerics.expected_dim_V_divisor(p["g"], p["k"], p["r"], p["d"]),
    "V_eta_div": lambda p: bn_numerics.expected_dim_V_eta_divisor(p["g"], p["k"], p["r"], p["d"]),
}

_CLASS = {
    "V_eta": lambda p: formulas.twisted_class(p["r"]),
    "V_unramified": lambda p: formulas.unramified_class(p["r"]),
    "V_eta_pointed": lambda p: formulas.twisted_pointed_class(bn_numerics.VanishingSequence(p["a"])),
}

SUITES = ("engine_oracle", "pointed_equivalence", "staircase_relation", "unramified_reproduction",
          "count_integrality", "limit_solver", "w_consistency", "degree_table")


class Mismatch(Exception):
    """The response differs from what the oracle expects."""


def flatten(stdout: str, fmt: str) -> Dict[str, str]:
    """Parse one rendered record into dotted keys with string values.

    Raises ``ValueError`` when the text is not a record in ``fmt``.
    """
    if fmt == "json":
        flat: Dict[str, str] = {}

        def walk(value, key: str) -> None:
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(value, list):
                flat[key] = json.dumps(value, sort_keys=True, separators=(",", ":"))
            else:
                flat[key] = "" if value is None else str(value)

        record = json.loads(stdout)
        if not isinstance(record, dict):
            raise ValueError("json output is not an object")
        walk(record, "")
        return flat
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise ValueError("csv output is not one header row and one value row")
        return dict(zip(rows[0], rows[1]))
    lines = stdout.splitlines()
    if lines[:2] != ["| key | value |", "| --- | --- |"]:
        raise ValueError("md output has no key/value table header")
    flat = {}
    for line in lines[2:]:
        if not (line.startswith("| ") and line.endswith(" |")) or " | " not in line[2:-2]:
            raise ValueError(f"md row {line!r} is malformed")
        key, value = line[2:-2].split(" | ", 1)
        flat[key] = value
    return flat


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _expect(flat: Dict[str, str], key: str, want: object) -> None:
    got = flat.get(key)
    if got != str(want):
        raise Mismatch(f"{key} is {got!r}, expected {str(want)!r}")


def _expect_class(flat: Dict[str, str], prefix: str, cls: theta_ring.ThetaClass) -> None:
    _expect(flat, f"{prefix}.coeff", _rat(cls.coeff))
    _expect(flat, f"{prefix}.exponent", cls.exponent)
    _expect(flat, f"{prefix}.generator", "theta'" if cls.generator == theta_ring.THETA_PRIME else "xi")


def strict_partition_count(max_weight: int) -> int:
    """Number of strict partitions of weight 1..max_weight."""
    ways = [1] + [0] * max_weight
    for part in range(1, max_weight + 1):
        for total in range(max_weight, part - 1, -1):
            ways[total] += ways[total - part]
    return sum(ways[1:])


def verify_case_counts(max_weight: int, max_g: int, max_r: int) -> List[int]:
    """Cases each suite must check at these bounds, in ``SUITES`` order."""
    strict = strict_partition_count(max_weight)
    tri = [r * (r + 1) // 2 for r in range(max_r + 1)]
    return [
        strict,
        strict,
        max_r + 1,
        max(max_r, 1),
        sum(1 for k in (1, 2) for r in range(max_r + 1) if (r + 1) * (r + 2) // 2 + 1 - k >= 2),
        sum(1 for g in range(2, max_g + 1) for r in range(max_r + 1)
            for base in (g - 1, g) if base - tri[r] >= 0),
        sum(1 for g in range(2, max_g + 1) for r in range(max_r + 1) if r <= g - 1),
        3 * max(max_g - 1, 0),
    ]


def _check_dim(p, flat) -> None:
    rep = _DIM[p["locus"]](p)
    _expect(flat, "result.value", rep.value)
    _expect(flat, "result.exactness", rep.exactness)
    _expect(flat, "result.emptiness", rep.emptiness)


def _check_class(p, flat) -> None:
    closed = _CLASS[p["locus"]](p)
    _expect_class(flat, "result.class", closed)
    if not p.get("engine"):
        return
    _expect(flat, "result.engine.exponent", closed.exponent)
    if p["locus"] == "V_eta":
        # The engine deliberately reports the 2^(r+1) normalisation of
        # staircases against the unpointed closed form.
        _expect(flat, "result.engine_ratio", 2 ** (p["r"] + 1))
    else:
        _expect(flat, "result.engine_agrees", True)


def _check_count(p, flat) -> None:
    space = theta_ring.make_space(theta_ring.RAMIFIED_TWISTED, p["g"], p["k"])
    _expect(flat, "result.count", theta_ring.degree(formulas.twisted_class(p["r"]), space))
    _expect(flat, "result.theta_top", space.theta_top)


def _check_limits(p, flat) -> None:
    g, r = p["g"], p["r"]
    if p["flavor"] == "unramified":
        degree, total, solution = 2 * g - 2, (r + 1) * (g - 1), limit_series.prym_limit_vanishing(g, r)
    else:
        degree, total, solution = 2 * g, (r + 1) * g, limit_series.prym_limit_vanishing_ramified(g, r)
    _expect(flat, "result.empty", False)
    _expect(flat, "result.solution", json.dumps(list(solution.entries), separators=(",", ":")))
    if not p.get("show_candidates"):
        return
    candidates = json.loads(flat.get("result.candidates", "null"))
    if not isinstance(candidates, list) or list(solution.entries) not in candidates:
        raise Mismatch("candidates do not include the solution")
    for a in candidates:
        ok = (len(a) == r + 1 and sum(a) == total and 0 <= a[0] and a[-1] <= degree
              and all(x < y for x, y in zip(a, a[1:])))
        if p["flavor"] == "unramified":
            ok = ok and len({x % 2 for x in a}) == 1
        else:
            ok = ok and all(y - x >= 2 for x, y in zip(a, a[1:]))
        if not ok:
            raise Mismatch(f"candidate {a} breaks the sum, range or parity/gap constraints")


def _check_verify(p, flat) -> None:
    bounds = (p.get("max_weight", 24), p.get("max_g", 12), p.get("max_r", 4))
    _expect(flat, "result.all_passed", True)
    suites = json.loads(flat.get("result.suites", "null"))
    got = [(s.get("name"), s.get("cases"), s.get("passed")) for s in suites or []]
    want = [(name, cases, True) for name, cases in zip(SUITES, verify_case_counts(*bounds))]
    if got != want:
        raise Mismatch(f"suites {got}, expected {want}")


_CHECKS = {
    "dim": _check_dim,
    "class": _check_class,
    "count": _check_count,
    "limits": _check_limits,
    "verify": _check_verify,
}


def check(req: Request, code: Optional[int], stdout: str) -> Optional[str]:
    """None when the response is correct, else the reason it is not.

    A request made invalid on purpose is correct only when it exits 2.
    Any other request fails on a non-zero exit code, an output that does not
    parse, or a value that differs from the oracle.
    """
    if req.kind == "invalid":
        return None if code == USAGE_ERROR else f"exit code {code}, expected {USAGE_ERROR}"
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        flat = flatten(stdout, req.fmt)
    except ValueError as exc:
        return f"unparseable {req.fmt} output: {exc}"
    try:
        _expect(flat, "command", req.kind)
        _CHECKS[req.kind](req.params, flat)
    except Mismatch as exc:
        return str(exc)
    return None


def describe(req: Request, reason: str) -> str:
    return f"pbn {' '.join(req.argv)}: {reason}"
