"""Contract sweep: one md5 over the exit code, stdout and stderr of every argv of a deck.

Run from the repository root, with ``src`` importable::

    PYTHONPATH=src python tools/sweep.py          # compare with PIN; exit 1 on a mismatch
    PYTHONPATH=src python tools/sweep.py --list   # one md5 and argv per line

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
Standard library only.
"""

import contextlib
import hashlib
import io
import itertools
import sys

from prymbn import cli, verify

PIN = "9ba0440697b10e426597adec8d568d9a"  # md5 of the whole deck on Python 3.11

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
    total = hashlib.md5()
    argvs = deck()
    for argv in argvs:
        record = run(argv)
        total.update(record)
        if listing:
            print(hashlib.md5(record).hexdigest(), *argv)
    digest = total.hexdigest()
    if listing:
        return 0
    print(f"sweep: {len(argvs)} argvs, md5 {digest}")
    if digest != PIN:
        print(f"sweep: the pin is {PIN}; diff --list against the parent checkout", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
