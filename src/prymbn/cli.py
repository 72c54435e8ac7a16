"""Command line front end: the ``pbn`` tool.

Subcommands expose the dimension reports, class formulas, point counts,
limit-series solver and the cross-module verification suites.  Each locus
and limit flavor, with its flags and library functions, is read from
``verify.LOCI`` and ``verify.LIMIT_FLAVORS``.  Output is a canonical record
(json, csv or md): keys sorted, rationals as reduced "p/q" strings, integers
unquoted.  JSON is written by one renderer, ``_json``, whose test oracle is
``json.dumps(..., sort_keys=True, indent=2, default=str)``.  Exit codes: 0
for success (including proven-empty loci), 1 for invariant violations, 2 for
usage errors.  No configuration files and no environment variables, so a
fixed command line always reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import formulas, theta_ring, verify
from .bn_numerics import VanishingSequence
from .errors import InvariantViolationError, ParameterError, PrymBNError, _at_least
from .limit_series import LimitProblem, enumerate_candidates, solve_unique
from .theta_ring import ThetaClass

USAGE_ERROR = 2
INVARIANT_ERROR = 1


def _rat(f: Fraction) -> Any:
    """Canonical rational: an integer, or a Fraction rendered as "p/q"."""
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


# What a command returns: (params, result, citations); main makes the record.
_Reply = Tuple[Dict[str, Any], Dict[str, Any], List[str]]


def _cmd_dim(args) -> _Reply:
    locus = verify.LOCI[args.locus]
    params: Dict[str, Any] = {"locus": args.locus, "g": args.g, "k": args.k}
    rep = locus.dim(args.g, args.k, *_locus_args(args, locus.flags, params))
    result = {"value": rep.value, "exactness": rep.exactness, "emptiness": rep.emptiness}
    return params, result, [rep.source]


def _cmd_class(args) -> _Reply:
    locus = verify.LOCI[args.locus]
    params: Dict[str, Any] = {"locus": args.locus}
    values = _locus_args(args, locus.flags, params)
    cls = locus.closed_form(*values)
    result: Dict[str, Any] = {"class": _theta_json(cls)}
    citations = [locus.citation]
    if args.engine:
        params["engine"] = True
        engine = locus.engine(*values)
        citations.append(locus.engine_citation)
        result["engine"] = _theta_json(engine)
        result["engine_agrees"] = engine == cls
        if engine.exponent == cls.exponent and cls.coeff != 0:
            result["engine_ratio"] = _rat(engine.coeff / cls.coeff)
    return params, result, citations


def _cmd_count(args) -> _Reply:
    params = {"g": args.g, "k": args.k, "r": args.r}
    locus = verify.LOCI["V_eta"]
    rep = locus.dim(args.g, args.k, args.r)
    if rep.value != 0:
        raise ParameterError(f"expected dimension is {rep.value}, not 0; no finite count"
                             f" at g={args.g}, k={args.k}, r={args.r}")
    space = theta_ring.make_space(theta_ring.RAMIFIED_TWISTED, args.g, args.k)
    n = formulas.count_points(locus.closed_form(args.r), space)
    result = {"count": n, "theta_top": space.theta_top}
    return params, result, ["cardinality of the zero-dimensional twisted locus"]


def _cmd_limits(args) -> _Reply:
    params: Dict[str, Any] = {"flavor": args.flavor, "g": args.g, "r": args.r}
    problem = LimitProblem(verify.LIMIT_FLAVORS[args.flavor][0], args.g, args.r)
    result: Dict[str, Any] = {"empty": problem.s < 0, "s": problem.s}
    candidates = enumerate_candidates(problem) if args.show_candidates else None
    if candidates is not None:  # [] on an empty locus (s < 0)
        params["show_candidates"] = True
        result["candidates"] = [a.entries for a in candidates]
    if problem.s >= 0:
        result["solution"] = solve_unique(problem, candidates).entries
    return params, result, ["vanishing orders of aspects of Prym limit linear series"]


def _cmd_verify(args) -> _Reply:
    params = {"max_weight": args.max_weight, "max_g": args.max_g, "max_r": args.max_r}
    _at_least("verification bounds must be non-negative", (0, 0, 0), **params)
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
        elif isinstance(value, (list, tuple)):
            flat[key] = json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            flat[key] = "" if value is None else str(value)

    walk(record, "")
    return flat


def _json(value: Any, pad: str = "\n") -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2, default=str)``; ``pad`` is
    the newline and indent ``value`` sits at.  A tuple holds vanishing orders: one join."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        return _quote(str(value))
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, tuple):
        return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]"
    if isinstance(value, list):
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + pad + "]"
    items = (f"{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value))
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def _render(record: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json(record) + "\n"
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
    # md: a "|" inside a cell is escaped, so that GFM reads every row as two cells
    lines = ["| key | value |", "| --- | --- |"]
    lines += ["| " + k + " | " + flat[k].replace("|", r"\|") + " |" for k in keys]
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
    p_dim.add_argument("--locus", required=True,
                       choices=tuple(n for n, l in verify.LOCI.items() if l.dim))
    p_dim.add_argument("--g", type=int, required=True)
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--r", type=int)
    p_dim.add_argument("--d", type=int)
    p_dim.add_argument("--a", help="comma-separated vanishing sequence, e.g. 0,2")
    p_dim.set_defaults(func=_cmd_dim)

    p_class = sub.add_parser("class", help="cohomology class as a theta multiple")
    p_class.add_argument("--locus", required=True,
                         choices=tuple(n for n, l in verify.LOCI.items() if l.closed_form))
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
    p_limits.add_argument("--flavor", required=True, choices=tuple(verify.LIMIT_FLAVORS))
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
