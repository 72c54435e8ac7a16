"""Contract sweep: one md5 over the exit code, stdout and stderr of every argv of a deck,
and one over the result or exception of every call of a library deck.

Run from the repository root, with ``src`` importable::

    PYTHONPATH=src python tools/sweep.py          # compare with PIN and LIBRARY_PIN; exit 1
                                                  # on a mismatch
    PYTHONPATH=src python tools/sweep.py --list   # one md5 and argv or call per line

The deck is built from ``verify.LOCI`` and ``verify.LIMIT_FLAVORS`` and a
literal list of usage errors, so it grows with the command table:

- ``dim`` on every locus with a report, over g in [-1, 12], k in [-1, 3],
  r in [-1, 5], d in [-1, 1] and the pointed sequences below;
- ``class`` on every locus with a closed form, with and without ``--engine``,
  for r in [-1, 13] and the same sequences;
- ``count`` over the g, k, r grid of ``dim``;
- ``limits`` on every flavor, with and without ``--show-candidates``, for
  g in [-1, 12] and r in [-1, 4];
- ``verify`` at 27 small bounds;
- every 7th argv again, in csv and md by turns.

The pointed sequences are every increasing a >= 0 whose rank partition (a_i + 1)
has weight 1..9, and some malformed texts.  Each argv runs through in-process
``cli.main``.  A changed byte anywhere changes the digest; ``--list`` on this
checkout and on another one, diffed, names the argvs that changed.  argparse's
messages differ between Python versions, so the pin holds for Python 3.11.

The CLI fixes c_i = theta'^i/i! and reaches only part of the library, so the
library deck calls every name of ``prymbn.__all__``, and ``q_tilde_table``, on
small grids of arguments, valid and not:

- the dimension reports, rho and the records over small g, k, r, d;
- every pointed sequence above, and every strict partition of weight 1..9,
  the staircases to length 10 and three long partitions, with malformed parts;
- the Q-tilde classes on four Chern series: theta'^i/i!, small rational
  denominators, a sparse series with zero pivots, and denominators
  (i!)^4, large enough that the long partitions take the Fraction rule;
  tables of several partitions, closed under removing parts and not; and
  the rule form, ``chern_series_W`` itself, for one partition and a table;
- the theta ring on every torsor, and every limit flavor, ``RAMIFIED_DUAL``
  included, with ``enumerate_candidates`` unfiltered and under both
  exactness filters.

Each call is recorded as its name and the ``repr`` of its arguments, then the
``repr`` of its result or the type and text of its exception.  A function among
the arguments is recorded by name: its address is cut from the ``repr``.
Standard library only.
"""

import contextlib
import hashlib
import io
import itertools
import math
import re
import sys
from fractions import Fraction

import prymbn
from prymbn import cli, lagrangian, limit_series, theta_ring, verify

PIN = "9ba0440697b10e426597adec8d568d9a"  # md5 of the whole deck on Python 3.11
LIBRARY_PIN = "5d0159d22acb99a09778e8f88a4670b6"  # md5 of the whole library deck on Python 3.11

_G, _K = range(-1, 13), range(-1, 4)
_VALUES = {"r": range(-1, 6), "d": range(-1, 2)}
_CLASS_R = range(-1, 14)
_MALFORMED = ["", "x", "1,0", "0,0", "-1", "0,,1", "1.5", "0, 2"]

_USAGE = [  # argparse errors, abbreviations, help texts and refusals outside the grids
    [], ["--help"], ["frob"], ["--format", "xml", "verify"],
    *([sub, "--help"] for sub in ("dim", "class", "count", "limits", "verify")),
    ["dim"], ["dim", "--locus", "X", "--g", "1", "--k", "0"],
    ["dim", "--locus", "V", "--g", "x", "--k", "0", "--r", "1"],
    ["dim", "--loc", "V", "--g", "3", "--k", "0", "--r", "1"],
    ["dim", "--locus", "V_eta", "--g", "3", "--k", "0"],
    ["dim", "--locus", "V_eta", "--g", "3", "--k", "0", "--r", "1", "--d", "1"],
    ["dim", "--locus", "V_eta", "--g", "3", "--k", "0", "--r", "1", "--a", "0,1"],
    ["class", "--locus", "V", "--r", "1"], ["class", "--locus", "V_eta"],
    ["class", "--locus", "V_eta", "--r", "1", "--eng"],
    ["class", "--locus", "V_eta", "--r", "1", "--engine", "--engine"],
    ["class", "--locus", "V_eta_pointed", "--a", "0,1", "--r", "1"],
    ["count", "--g", "1"], ["count", "--g", "4", "--k", "0", "--r", "1", "--x"],
    ["limits", "--flavor", "both", "--g", "1", "--r", "1"],
    ["limits", "--flavor", "ram", "--g", "3", "--r", "1"],
    ["limits", "--flavor", "unramified", "--g", "3", "--r", "1", "--show"],
    ["verify", "--max-weight", "-1"], ["verify", "--max-g", "-1"], ["verify", "--max-r", "-1"],
    ["verify", "--max-w", "3", "--max-g", "1", "--max-r", "0"],
    ["verify", "--max-weight", "2.5"],
]


def _sequences() -> list[str]:
    """Each increasing a >= 0 with sum(a_i + 1) <= 9, as --a text, then the malformed texts."""
    seqs = [a for length in range(1, 5) for a in itertools.combinations(range(9), length)
            if sum(a) + length <= 9]
    return [",".join(map(str, a)) for a in seqs] + _MALFORMED


def _locus_argvs(sub: str, fact: str, grids: dict, *extra: list[str]) -> list[list[str]]:
    """``sub`` on every locus with ``fact``, over the product of its flags' grids."""
    argvs = []
    for name, locus in verify.LOCI.items():
        if getattr(locus, fact) is None:
            continue
        flags = [*(("g", "k") if sub == "dim" else ()), *locus.flags]
        for values in itertools.product(*(grids[flag] for flag in flags)):
            for tail in extra or ([],):
                argvs.append([sub, "--locus", name, *itertools.chain.from_iterable(
                    (f"--{flag}", str(v)) for flag, v in zip(flags, values)), *tail])
    return argvs


def deck() -> list[list[str]]:
    seqs = _sequences()
    argvs = _locus_argvs("dim", "dim", {"g": _G, "k": _K, "a": seqs, **_VALUES})
    argvs += _locus_argvs("class", "closed_form", {"r": _CLASS_R, "a": seqs}, [], ["--engine"])
    argvs += [["count", "--g", str(g), "--k", str(k), "--r", str(r)]
              for g in _G for k in _K for r in _VALUES["r"]]
    argvs += [["limits", "--flavor", flavor, "--g", str(g), "--r", str(r), *tail]
              for flavor in verify.LIMIT_FLAVORS for g in _G for r in range(-1, 5)
              for tail in ([], ["--show-candidates"])]
    argvs += [["verify", "--max-weight", str(w), "--max-g", str(g), "--max-r", str(r)]
              for w in (0, 5, 10) for g in (0, 3, 6) for r in (0, 1, 3)]
    argvs += _USAGE
    return argvs + [["--format", ("csv", "md")[i % 2], *argv]
                    for i, argv in enumerate(argvs[::7])]


def library_deck() -> list[tuple[object, tuple]]:
    """(function or class, arguments) per call, over the grids of the module docstring."""
    vs, sp, grid = prymbn.VanishingSequence, prymbn.StrictPartition, itertools.product
    entries = [tuple(map(int, a.split(","))) for a in _sequences()[: -len(_MALFORMED)]]
    seqs = list(map(vs, entries))
    lams = [*map(lagrangian.partition_for, seqs), *map(prymbn.staircase, range(7, 11)),
            sp((19, 13, 8, 5, 3, 2, 1)), sp((30, *range(9, 0, -1))), sp((40, 1))]
    series = [prymbn.chern_series_W(39),
              prymbn.ChernSeries((1, *(Fraction(3 * i % 7 - 3, i % 4 + 1) for i in range(1, 40)))),
              prymbn.ChernSeries(tuple(int(i in (0, 4, 9)) for i in range(40))),
              prymbn.ChernSeries(tuple(Fraction((-1) ** i, math.factorial(i) ** 4)
                                       for i in range(40)))]
    tables = [[], lams[:1], lams[: len(seqs)], lams[len(seqs) : -1],
              [sp(p) for k in range(8) for p in itertools.combinations(range(7, 0, -1), k)]]
    classes = [prymbn.twisted_class(1), prymbn.unramified_class(2), prymbn.twisted_class(0),
               prymbn.ThetaClass(Fraction(1, 7), 3), prymbn.ThetaClass(0, 2)]
    spaces = [prymbn.make_space(flavor, g, k) for g in range(2, 7)
              for flavor, k in [(theta_ring.UNRAMIFIED_PM, 0),
                                *((theta_ring.RAMIFIED_TWISTED, k) for k in range(3))]]
    problems = [limit_series.LimitProblem(flavor, g, r)
                for flavor in limit_series.FLAVORS for g in range(1, 8) for r in range(3)]
    ints, ks, ranks = range(-1, 9), range(-1, 4), range(-1, 5)
    rows = [
        (vs, [(e,) for e in [*entries, (), (1, 0), (0, 0), (-1,), (0, 1.5), ("0",)]]),
        (sp, [(p,) for p in [*(lam.parts for lam in lams), (), (1, 1), (0,), (2.0,)]]),
        (prymbn.staircase, [(m,) for m in [*range(-1, 12), "3"]]),
        (prymbn.chern_series_W, [(n,) for n in range(-1, 10)]),
        (prymbn.ChernSeries, [(c,) for c in [(), (2,), (1, 0.5), (1, "x"), (1, Fraction(1, 2))]]),
        (prymbn.DimReport, [(1, "e", "x", "s"), (1.0, "e", "x", "s")]),
        (prymbn.AdditivityReport, [(1, (0, 1), -1, True), (1, (0, 0.5), 0, False)]),
        (prymbn.rho, grid(ints, ks, ints)),
        (prymbn.rho_pointed, grid(range(6), range(3), (0, 2, 5, 8), seqs)),
        (prymbn.expected_dim_V, grid(ints, ks, ranks)),
        (prymbn.expected_dim_V_eta, grid(ints, ks, ranks)),
        (prymbn.expected_dim_V_divisor, grid(ints, ks, range(-1, 3), range(-1, 3))),
        (prymbn.expected_dim_V_eta_divisor, grid(ints, ks, range(-1, 3), range(-1, 3))),
        (prymbn.expected_dim_V_eta_pointed, grid(ints, ks, seqs)),
        (prymbn.twisted_class, [(r,) for r in range(-1, 14)]),
        (prymbn.unramified_class, [(r,) for r in range(-1, 14)]),
        (prymbn.twisted_pointed_class, [(a,) for a in seqs]),
        (prymbn.lagrangian_class_pointed, [(a,) for a in seqs]),
        (prymbn.eval_identity, [(lam,) for lam in lams]),
        (prymbn.q_tilde, grid(lams, series)),
        (prymbn.q_tilde, grid(lams, [prymbn.chern_series_W])),
        (prymbn.p_tilde, grid(lams, series)),
        (prymbn.q_two, grid(range(-1, 13), range(-1, 7), series)),
        (lagrangian.q_tilde_table, grid(tables, series)),
        (lagrangian.q_tilde_table, grid(tables, [prymbn.chern_series_W])),
        (prymbn.ThetaClass, [(Fraction(1, 2), 1, "xi"), (1, -1), (1, 1.0), (0.5, 1), (1, 1, "e")]),
        (prymbn.PrymSpace, [(theta_ring.UNRAMIFIED_PM, 3, 0, 2, 2), ("x", 3, 0, 2, 2.0)]),
        (prymbn.make_space, grid([theta_ring.UNRAMIFIED_PM, theta_ring.RAMIFIED_TWISTED, "x"],
                                 range(-1, 7), ks)),
        (prymbn.multiply, grid(classes, classes)),
        (prymbn.substitute_theta_prime_as_2xi, [(c,) for c in classes]),
        (prymbn.degree, grid(classes, spaces)),
        (prymbn.count_points, grid(classes, spaces)),
        (prymbn.LimitProblem, grid([*limit_series.FLAVORS, "x"], range(-1, 9), ks)),
        (prymbn.enumerate_candidates, [(p,) for p in problems]),
        (prymbn.enumerate_candidates, grid(problems, [limit_series._endpoint_filter_unramified,
                                                      limit_series._endpoint_filter_ramified])),
        (prymbn.solve_unique, [(p,) for p in problems]),
        (prymbn.prym_limit_vanishing, grid(range(-1, 12), ranks)),
        (prymbn.prym_limit_vanishing_ramified, grid(range(-1, 12), ranks)),
        (prymbn.prym_limit_vanishing_dual, grid(range(-1, 12), ranks)),
        (prymbn.complementary_vanishing, grid(range(-1, 10), seqs)),
        (prymbn.additivity_report, [(g, a.r, a, b) for g in range(1, 8)
                                    for a, b in grid(seqs[:12], seqs[:12]) if a.r == b.r]),
        (prymbn.w_locus_expected_dim, grid(ints, (0, 3, 8), seqs)),
    ]
    return [(fn, tuple(args)) for fn, calls in rows for args in calls]


def call(fn: object, args: tuple) -> bytes:
    """Name and arguments of one library call, then its result or exception, as bytes."""
    try:
        outcome = repr(fn(*args))
    except Exception as exc:  # a refusal is part of the record
        outcome = f"raised {type(exc).__name__}: {exc}"
    name = re.sub(r" at 0x[0-9a-f]+", "", f"{fn.__name__}{args!r}")
    return "\0".join([name, outcome, ""]).encode()


def run(argv: list[str]) -> bytes:
    """argv, exit code, stdout and stderr of one in-process ``cli.main``, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception as exc:  # a crash is part of the record, not the end of the sweep
            code = f"raised {type(exc).__name__}: {exc}"
    return "\0".join([" ".join(argv), str(code), out.getvalue(), err.getvalue(), ""]).encode()


def main(args: list[str]) -> int:
    listing = args == ["--list"]
    if args and not listing:
        print("usage: sweep.py [--list]", file=sys.stderr)
        return 2
    failed = False
    for what, records, pin in [
        ("argvs", (run(argv) for argv in deck()), PIN),
        ("library calls", (call(fn, args) for fn, args in library_deck()), LIBRARY_PIN),
    ]:
        total, count = hashlib.md5(), 0
        for record in records:
            total.update(record)
            count += 1
            if listing:
                print(hashlib.md5(record).hexdigest(), record.split(b"\0")[0].decode())
        if listing:
            continue
        print(f"sweep: {count} {what}, md5 {total.hexdigest()}")
        if total.hexdigest() != pin:
            print(f"sweep: the pin is {pin}; diff --list against the parent checkout",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
