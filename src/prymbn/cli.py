"""Command line front end: the ``pbn`` tool.

Subcommands expose the dimension reports, class formulas, point counts,
limit-series solver and the cross-module verification suites.  Output is a
canonical machine-readable record (json, csv or md): keys sorted, rationals
serialized as reduced "p/q" strings, integers unquoted.  Exit codes: 0 for
success (including proven-empty loci), 1 for invariant violations, 2 for
usage errors.  No configuration files and no environment variables, so a
fixed command line always reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import bn_numerics, formulas, lagrangian, theta_ring, verify
from .bn_numerics import VanishingSequence
from .errors import InvariantViolationError, ParameterError, PrymBNError
from .limit_series import (
    RAMIFIED_X_PLUS_Y,
    UNRAMIFIED_DELTA1,
    LimitProblem,
    enumerate_candidates,
    solve_unique,
)
from .theta_ring import ThetaClass

USAGE_ERROR = 2
INVARIANT_ERROR = 1


def _rat(x) -> Any:
    """Canonical rational: an integer, or a Fraction rendered as "p/q"."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _theta_json(c: ThetaClass) -> Dict[str, Any]:
    return {"coeff": _rat(c.coeff), "exponent": c.exponent, "generator": c.generator}


def _parse_sequence(text: str) -> VanishingSequence:
    try:
        return VanishingSequence(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:  # also the ParameterError of a bad sequence
        raise ParameterError(f"invalid vanishing sequence {text!r}: {exc}") from exc


def _locus_args(args, flags: Sequence[str], params: Dict[str, Any]) -> List[Any]:
    """The values of the locus flags ``flags``, in order, also put in ``params``.

    A flag of ``flags`` that is missing, or one of --r/--d/--a that is given
    but not in ``flags``, is a usage error naming the flag.
    """
    for flag in ("r", "d", "a"):
        if flag not in flags and getattr(args, flag, None) is not None:
            raise ParameterError(f"--{flag} is not used by locus {args.locus}")
    values = []
    for flag in flags:
        value = getattr(args, flag)
        if value is None:
            raise ParameterError(f"--{flag} is required for locus {args.locus}")
        if flag == "a":
            value = _parse_sequence(value)
            params["a"] = list(value.entries)
        else:
            params[flag] = value
        values.append(value)
    return values


# The library functions in both tables are looked up on their modules when
# called, so that a wrapper put there (a monkeypatch, a tracer) sees the call.

# locus -> (flags it takes besides --g/--k, expected-dimension function);
# the citation is the report's source.
_DIM_LOCI = {
    "V": (("r",), lambda *v: bn_numerics.expected_dim_V(*v)),
    "V_eta": (("r",), lambda *v: bn_numerics.expected_dim_V_eta(*v)),
    "V_eta_pointed": (("a",), lambda *v: bn_numerics.expected_dim_V_eta_pointed(*v)),
    "V_div": (("r", "d"), lambda *v: bn_numerics.expected_dim_V_divisor(*v)),
    "V_eta_div": (("r", "d"), lambda *v: bn_numerics.expected_dim_V_eta_divisor(*v)),
}

_P_TILDE = "P-tilde Pfaffian evaluation at c_i = theta'^i/i!"
_Q_TILDE = "Q-tilde Pfaffian evaluation at c_i = theta'^i/i!"

# locus -> (flags it takes, closed form, citation, engine, engine citation)
_CLASS_LOCI = {
    "V_unramified": (("r",), lambda r: formulas.unramified_class(r),
                     "closed-form class of the norm-omega locus on P+/P-",
                     lambda r: lagrangian.lagrangian_class_unramified(r), _P_TILDE),
    "V_eta": (("r",), lambda r: formulas.twisted_class(r),
              "closed-form class of the twisted locus",
              lambda r: lagrangian.lagrangian_class_twisted(r), _Q_TILDE),
    "V_eta_pointed": (("a",), lambda a: formulas.twisted_pointed_class(a),
                      "closed-form class of the pointed twisted locus",
                      lambda a: lagrangian.lagrangian_class_pointed(a), _Q_TILDE),
}


# What a command returns: (params, result, citations); main makes the record.
_Reply = Tuple[Dict[str, Any], Dict[str, Any], List[str]]


def _cmd_dim(args) -> _Reply:
    flags, expected_dim = _DIM_LOCI[args.locus]
    params: Dict[str, Any] = {"locus": args.locus, "g": args.g, "k": args.k}
    rep = expected_dim(args.g, args.k, *_locus_args(args, flags, params))
    result = {"value": rep.value, "exactness": rep.exactness, "emptiness": rep.emptiness}
    return params, result, [rep.source]


def _cmd_class(args) -> _Reply:
    flags, closed_form, citation, engine_class, engine_citation = _CLASS_LOCI[args.locus]
    params: Dict[str, Any] = {"locus": args.locus}
    values = _locus_args(args, flags, params)
    cls = closed_form(*values)
    result: Dict[str, Any] = {"class": _theta_json(cls)}
    citations = [citation]
    if args.engine:
        params["engine"] = True
        engine = engine_class(*values)
        citations.append(engine_citation)
        result["engine"] = _theta_json(engine)
        result["engine_agrees"] = engine == cls
        if engine.exponent == cls.exponent and cls.coeff != 0:
            result["engine_ratio"] = _rat(engine.coeff / cls.coeff)
    return params, result, citations


def _cmd_count(args) -> _Reply:
    params = {"g": args.g, "k": args.k, "r": args.r}
    if args.k not in (1, 2):
        raise ParameterError("counts are only calibrated for k = 1 or 2")
    rep = bn_numerics.expected_dim_V_eta(args.g, args.k, args.r)
    if rep.value != 0:
        raise ParameterError(f"expected dimension is {rep.value}, not 0; no finite count")
    space = theta_ring.make_space(theta_ring.RAMIFIED_TWISTED, args.g, args.k)
    n = formulas.count_points(formulas.twisted_class(args.r), space)
    result = {"count": n, "theta_top": space.theta_top}
    return params, result, ["cardinality of the zero-dimensional twisted locus"]


_FLAVOR_MAP = {"unramified": UNRAMIFIED_DELTA1, "ramified": RAMIFIED_X_PLUS_Y}


def _cmd_limits(args) -> _Reply:
    params: Dict[str, Any] = {"flavor": args.flavor, "g": args.g, "r": args.r}
    problem = LimitProblem(_FLAVOR_MAP[args.flavor], args.g, args.r)
    citations = ["vanishing orders of aspects of Prym limit linear series"]
    if problem.s < 0:
        return params, {"empty": True, "s": problem.s}, citations
    candidates = enumerate_candidates(problem) if args.show_candidates else None
    solution = solve_unique(problem, candidates)
    result = {"empty": False, "s": problem.s, "solution": list(solution.entries)}
    if args.show_candidates:
        params["show_candidates"] = True
        result["candidates"] = [list(a.entries) for a in candidates]
    return params, result, citations


def _cmd_verify(args) -> _Reply:
    params = {"max_weight": args.max_weight, "max_g": args.max_g, "max_r": args.max_r}
    if min(params.values()) < 0:
        raise ParameterError("verification bounds must be non-negative")
    results = verify.run_all(args.max_weight, args.max_g, args.max_r)
    suites = [{k: v for k, v in asdict(res).items() if v is not None} for res in results]
    all_passed = all(res.passed for res in results)
    return params, {"suites": suites, "all_passed": all_passed}, ["cross-module identity suites"]


def _flatten_record(record: Dict[str, Any]) -> Dict[str, str]:
    flat: Dict[str, str] = {}

    def walk(value: Any, key: str) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            flat[key] = json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            flat[key] = "" if value is None else str(value)

    walk(record, "")
    return flat


def _render(record: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True, indent=2, default=str) + "\n"
    flat = _flatten_record(record)
    keys = sorted(flat)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow([flat[k] for k in keys])
        return buf.getvalue()
    # md
    lines = ["| key | value |", "| --- | --- |"]
    lines += [f"| {k} | {flat[k]} |" for k in keys]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbn",
        description="Exact numerical invariants of Prym-Brill-Noether loci.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "md"), default="json",
        help="output format (default: json)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_dim = sub.add_parser("dim", help="expected-dimension report for a locus")
    p_dim.add_argument("--locus", required=True, choices=tuple(_DIM_LOCI))
    p_dim.add_argument("--g", type=int, required=True)
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--r", type=int)
    p_dim.add_argument("--d", type=int)
    p_dim.add_argument("--a", help="comma-separated vanishing sequence, e.g. 0,2")
    p_dim.set_defaults(func=_cmd_dim)

    p_class = sub.add_parser("class", help="cohomology class as a theta multiple")
    p_class.add_argument("--locus", required=True, choices=tuple(_CLASS_LOCI))
    p_class.add_argument("--r", type=int)
    p_class.add_argument("--a", help="comma-separated vanishing sequence")
    p_class.add_argument(
        "--engine", action="store_true",
        help="also run the Pfaffian engine and report agreement",
    )
    p_class.set_defaults(func=_cmd_class)

    p_count = sub.add_parser("count", help="point count of a zero-dimensional locus")
    p_count.add_argument("--g", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.set_defaults(func=_cmd_count)

    p_limits = sub.add_parser("limits", help="limit-series vanishing orders")
    p_limits.add_argument(
        "--flavor", required=True, choices=tuple(_FLAVOR_MAP),
    )
    p_limits.add_argument("--g", type=int, required=True)
    p_limits.add_argument("--r", type=int, required=True)
    p_limits.add_argument("--show-candidates", action="store_true")
    p_limits.set_defaults(func=_cmd_limits)

    p_verify = sub.add_parser("verify", help="run the cross-module identity suites")
    p_verify.add_argument("--max-weight", type=int, default=24)
    p_verify.add_argument("--max-g", type=int, default=12)
    p_verify.add_argument("--max-r", type=int, default=4)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, result, citations = args.func(args)
    except InvariantViolationError as exc:
        print(f"pbn: invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except PrymBNError as exc:
        print(f"pbn: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    record = {"command": args.subcommand, "params": params, "result": result,
              "citations": citations}
    # Exact coefficients from about rank 68 on have more digits than the
    # default int-to-str limit (absent before Python 3.10.7): lift it while
    # rendering only.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = _render(record, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text)
    if args.subcommand == "verify" and not result["all_passed"]:
        return INVARIANT_ERROR
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
