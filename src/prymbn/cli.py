"""Command line front end: the ``pbn`` tool.

One command table builds the parser: each subcommand with its help, handler and
flags.  dim and class take the ``_LOCUS_FLAGS`` their loci in ``verify.LOCI`` use,
and limits the flavors of ``verify.LIMIT_FLAVORS``.  A subcommand's parser, a
``_Command``, adds its flags on its first parse, so a request adds the flags of only
the subcommand it runs; help and usage errors come after them.  A handler returns
the result and citations; ``params`` echoes each parsed flag that is not None or
False.  Output is a canonical record (json, csv or md): keys sorted, rationals as
reduced "p/q" strings, integers unquoted.  JSON is written by one renderer,
``_json``, whose test oracle is ``json.dumps(..., sort_keys=True, indent=2,
default=str)``.  Exit codes: 0 for success (including proven-empty loci), 1 for
invariant violations, 2 for usage errors.  No configuration files and no
environment variables, so a fixed command line always reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import verify
from .bn_numerics import VanishingSequence
from .errors import InvariantViolationError, ParameterError, PrymBNError, _at_least
from .limit_series import LimitProblem, enumerate_candidates, solve_unique
from .theta_ring import ThetaClass

USAGE_ERROR = 2
INVARIANT_ERROR = 1


def _rat(f: Fraction) -> object:
    """Canonical rational: an integer, or a Fraction rendered as "p/q"."""
    return int(f) if f.denominator == 1 else f


def _theta_json(c: ThetaClass) -> dict[str, object]:
    return {"coeff": _rat(c.coeff), "exponent": c.exponent, "generator": c.generator}


def _parse_sequence(text: str) -> VanishingSequence:
    try:
        return VanishingSequence(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:  # also the ParameterError of a bad sequence
        raise ParameterError(f"invalid vanishing sequence {text!r}: {exc}") from exc


# Each locus flag besides dim's --g/--k, with its argparse keywords, in the order
# dim and class list them; a subcommand gets the flags its loci use in verify.LOCI.
_LOCUS_FLAGS = {
    "r": {"type": int},
    "d": {"type": int},
    "a": {"help": "comma-separated vanishing sequence, e.g. 0,2"},
}


def _locus_args(args, flags: Sequence[str]) -> list[object]:
    """The values of the locus flags ``flags``, in order; --a's parsed orders go back
    to ``args`` for the echo.  A flag of ``flags`` that is missing, or a locus flag
    that is given but not in ``flags``, is a usage error naming the flag."""
    for flag in _LOCUS_FLAGS:
        if flag not in flags and getattr(args, flag, None) is not None:
            raise ParameterError(f"--{flag} is not used by locus {args.locus}")
    values = []
    for flag in flags:
        value = getattr(args, flag)
        if value is None:
            raise ParameterError(f"--{flag} is required for locus {args.locus}")
        if flag == "a":
            value = _parse_sequence(value)
            args.a = value.entries
        values.append(value)
    return values


# What a command returns: (result, citations); main makes the record.
_Reply = tuple[dict[str, object], list[str]]


def _cmd_dim(args) -> _Reply:
    locus = verify.LOCI[args.locus]
    rep = locus.dim(args.g, args.k, *_locus_args(args, locus.flags))
    result = {"value": rep.value, "exactness": rep.exactness, "emptiness": rep.emptiness}
    return result, [rep.source]


def _cmd_class(args) -> _Reply:
    locus = verify.LOCI[args.locus]
    values = _locus_args(args, locus.flags)
    cls = locus.closed_form(*values)
    result: dict[str, object] = {"class": _theta_json(cls)}
    citations = [locus.citation]
    if args.engine:
        engine = locus.engine(*values)
        citations.append(locus.engine_citation)
        result["engine"] = _theta_json(engine)
        result["engine_agrees"] = engine == cls
        if engine.exponent == cls.exponent and cls.coeff != 0:
            result["engine_ratio"] = _rat(engine.coeff / cls.coeff)
    return result, citations


def _cmd_count(args) -> _Reply:
    n, space = verify.count(args.g, args.k, args.r)
    result = {"count": n, "theta_top": space.theta_top}
    return result, ["cardinality of the zero-dimensional twisted locus"]


def _cmd_limits(args) -> _Reply:
    problem = LimitProblem(verify.LIMIT_FLAVORS[args.flavor], args.g, args.r)
    result: dict[str, object] = {"empty": problem.s < 0, "s": problem.s}
    if args.show_candidates:  # [] on an empty locus (s < 0)
        result["candidates"] = enumerate_candidates(problem)
    if problem.s >= 0:  # the solver walks only what its filter keeps
        result["solution"] = solve_unique(problem).entries
    return result, ["vanishing orders of aspects of Prym limit linear series"]


def _cmd_verify(args) -> _Reply:
    _at_least("verification bounds must be non-negative", (0, 0, 0), max_weight=args.max_weight,
              max_g=args.max_g, max_r=args.max_r)
    results = verify.run_all(args.max_weight, args.max_g, args.max_r)
    suites = [{k: v for k, v in res._fields().items() if v is not None} for res in results]
    all_passed = all(res.passed for res in results)
    return {"suites": suites, "all_passed": all_passed}, ["cross-module identity suites"]


def _flatten_record(record: dict[str, object]) -> dict[str, str]:
    flat: dict[str, str] = {}

    def walk(value: object, key: str) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, (list, tuple)):
            flat[key] = json.dumps(value, sort_keys=True, separators=(",", ":"))
        else:
            flat[key] = "" if value is None else str(value)

    walk(record, "")
    return flat


def _int_rows(rows: Sequence[tuple[int, ...]], pad: str) -> str:
    """``rows``, tuples of one length m >= 1, each rendered at ``pad`` and joined by
    "," + pad: one row template of m ``%d``, repeated and filled by a single ``%``.
    Anything but an int entry is a TypeError, never printed truncated."""
    flat = tuple(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int}:
        raise TypeError("a tuple holds vanishing orders: int entries only")
    inner = pad + "  "
    row = "[" + inner + ("," + inner).join(["%d"] * len(rows[0])) + pad + "]"
    return ("," + pad).join([row] * len(rows)) % flat


def _json(value: object, pad: str = "\n") -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2, default=str)``; ``pad`` is
    the newline and indent ``value`` sits at.  A tuple holds vanishing orders, so its
    entries must be ints (a TypeError otherwise, also for bool).  A list whose elements are
    all tuples of one length m >= 1, a candidate block, renders through ``_int_rows``: one
    row template for every row, one ``%`` for the block.  Every other list renders element
    by element."""
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
        return _int_rows((value,), pad)
    if isinstance(value, list):
        if set(map(type, value)) == {tuple} and len(set(map(len, value))) == 1 and value[0]:
            return "[" + inner + _int_rows(value, inner) + pad + "]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in value) + pad + "]"
    items = (f"{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value))
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def _render(record: dict[str, object], fmt: str) -> str:
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


def _locus_arguments(fact: str, *between) -> list[tuple[str, dict[str, object]]]:
    """--locus over the loci that have ``fact``, then ``between``, then the flags of
    ``_LOCUS_FLAGS`` that those loci use."""
    names = tuple(n for n, l in verify.LOCI.items() if getattr(l, fact))
    used = {flag for n in names for flag in verify.LOCI[n].flags}
    return [("--locus", {"required": True, "choices": names}), *between,
            *((f"--{flag}", kw) for flag, kw in _LOCUS_FLAGS.items() if flag in used)]


class _Command(argparse.ArgumentParser):
    """A subcommand's parser.  It keeps its ``(flag, argparse keywords)`` list from the
    command table and adds those flags on its first parse, before argparse reads the
    argv, prints help or reports a usage error."""

    def __init__(self, *, flags: Sequence[tuple[str, dict[str, object]]] = (), **kwargs):
        super().__init__(**kwargs)
        self._unadded = list(flags)

    def parse_known_args(self, args=None, namespace=None):
        for flag, keywords in self._unadded:
            self.add_argument(flag, **keywords)
        self._unadded = []
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # A fixed width: argparse would otherwise size help and usage errors from COLUMNS.
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="pbn", description="Exact numerical invariants of Prym-Brill-Noether loci.",
        formatter_class=formatter)
    parser.add_argument("--format", choices=("json", "csv", "md"), default="json",
                        help="output format (default: json)")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Command)
    needed = {"type": int, "required": True}
    commands = [  # (name, help, handler, [(flag, argparse keywords)])
        ("dim", "expected-dimension report for a locus", _cmd_dim,
         _locus_arguments("dim", ("--g", needed), ("--k", needed))),
        ("class", "cohomology class as a theta multiple", _cmd_class, [
            *_locus_arguments("closed_form"),
            ("--engine", {"action": "store_true",
                          "help": "also run the Pfaffian engine and report agreement"})]),
        ("count", "point count of a zero-dimensional locus", _cmd_count,
         [("--g", needed), ("--k", needed), ("--r", needed)]),
        ("limits", "limit-series vanishing orders", _cmd_limits, [
            ("--flavor", {"required": True, "choices": tuple(verify.LIMIT_FLAVORS)}),
            ("--g", needed), ("--r", needed), ("--show-candidates", {"action": "store_true"})]),
        ("verify", "run the cross-module identity suites", _cmd_verify,
         [("--max-weight", {"type": int, "default": 24}),
          ("--max-g", {"type": int, "default": 12}), ("--max-r", {"type": int, "default": 4})]),
    ]
    for name, help_text, handler, flags in commands:
        sub.add_parser(name, help=help_text, formatter_class=formatter,
                       flags=flags).set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact values may exceed the int-to-str digit limit: lift it here.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        result, citations = args.func(args)
        # params: each subcommand flag that was given or has a default, as parsed
        params = {k: v for k, v in vars(args).items() if v is not None and v is not False
                  and k not in ("format", "subcommand", "func")}
        text = _render({"command": args.subcommand, "params": params, "result": result,
                        "citations": citations}, args.format)
    except InvariantViolationError as exc:
        print(f"pbn: invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except PrymBNError as exc:
        print(f"pbn: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        sys.set_int_max_str_digits(limit)
    sys.stdout.write(text)
    return INVARIANT_ERROR if args.subcommand == "verify" and not result["all_passed"] else 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
