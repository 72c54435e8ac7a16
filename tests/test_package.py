import ast
import inspect
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import prymbn
from prymbn.errors import ParameterError

ROOT = Path(__file__).parent.parent

_FLOAT_MATH = {"sqrt", "log", "exp", "pow", "fsum"}


def test_star_import_binds_only_package_objects():
    namespace = {}
    exec("from prymbn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == prymbn.__all__
    for name, obj in namespace.items():
        assert not isinstance(obj, types.ModuleType), name
        assert obj.__module__.startswith("prymbn."), name


def test_package_source_is_float_free():
    # Arithmetic stays exact: no float or complex literal, no float()/complex(),
    # and none of the math functions that return floats.
    sources = sorted(Path(prymbn.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            elif isinstance(node, ast.Name):
                assert node.id not in ("float", "complex"), where
            elif isinstance(node, ast.Attribute):
                assert node.attr not in _FLOAT_MATH, where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert not {a.name for a in node.names} & _FLOAT_MATH, where


def test_readme_locus_table_matches_the_registry():
    # README's `command | locus | flags` table, one row per locus.
    from prymbn import verify

    readme = (ROOT / "README.md").read_text()
    rows = set()
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in ("`dim`", "`class`"):
            for locus in cells[1].split(", "):
                rows.add((cells[0].strip("`"), locus.strip("`"), cells[2].strip("`")))
    want = set()
    for name, locus in verify.LOCI.items():
        flags = " ".join(f"--{f}" for f in locus.flags)
        if locus.dim:
            want.add(("dim", name, f"--g --k {flags}"))
        if locus.closed_form:
            want.add(("class", name, flags))
    assert rows == want


def test_verify_bounds_have_no_defaults():
    # pbn verify's parser holds the only default bounds.
    from prymbn import verify

    suites = [getattr(verify, n) for n in dir(verify) if n.startswith("suite_")]
    assert len(suites) == 8
    for fn in [verify.run_all, *suites]:
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__


# One valid call of each public callable that takes an int, by keyword; each int
# parameter is then replaced in turn by a non-integer.
_A = prymbn.VanishingSequence.of(3, 5)
_VALID_CALLS = {
    "rho": dict(g=10, r=1, d=5),
    "rho_pointed": dict(g=4, r=1, d=8, a=_A),
    "expected_dim_V": dict(g=10, k=1, r=2),
    "expected_dim_V_divisor": dict(g=10, k=0, r=1, d=2),
    "expected_dim_V_eta": dict(g=3, k=1, r=1),
    "expected_dim_V_eta_divisor": dict(g=6, k=1, r=1, d=1),
    "expected_dim_V_eta_pointed": dict(g=5, k=1, a=prymbn.VanishingSequence.of(0, 2)),
    "chern_series_W": dict(n=3),
    "twisted_class": dict(r=1),
    "unramified_class": dict(r=2),
    "staircase": dict(m=3),
    "q_two": dict(a=3, b=1, c=prymbn.chern_series_W(4)),
    "ThetaClass": dict(coeff=Fraction(1, 3), exponent=5),
    "make_space": dict(flavor="ramified_twisted", g=5, k=1),
    "LimitProblem": dict(flavor="unramified_delta1", g=5, r=1),
    "additivity_report": dict(g=5, r=1, a=_A, b=_A),
    "complementary_vanishing": dict(d=8, a=_A),
    "prym_limit_vanishing": dict(g=5, r=1),
    "prym_limit_vanishing_ramified": dict(g=5, r=1),
    "prym_limit_vanishing_dual": dict(g=6, r=1),
    "w_locus_expected_dim": dict(g_y=4, d=8, a=_A),
}
# Result records: the library fills them from ints it has already read.
_RECORDS = {"AdditivityReport", "DimReport", "PrymSpace"}


def _int_parameters(obj):
    return [n for n, p in inspect.signature(obj).parameters.items() if p.annotation == "int"]


def test_every_public_int_parameter_is_in_the_gate_table():
    takes_int = {n for n in prymbn.__all__
                 if callable(getattr(prymbn, n)) and _int_parameters(getattr(prymbn, n))}
    assert takes_int == set(_VALID_CALLS) | _RECORDS


@pytest.mark.parametrize("bad", [2.0, "2", Fraction(4, 2)], ids=["float", "str", "fraction"])
@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_every_public_int_parameter_refuses_non_integers(name, bad):
    fn, valid = getattr(prymbn, name), _VALID_CALLS[name]
    fn(**valid)
    for param in _int_parameters(fn):
        with pytest.raises(ParameterError) as info:
            fn(**{**valid, param: bad})
        message = str(info.value)
        assert re.search(rf"\b{param}\b", message) and repr(bad) in message, (param, message)


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Explaining a Hypothesis failure imports libcst, which warns on import; the
    # session's warning filters must let that report through.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert re.search(r"\b1 failed in ", done.stdout), done.stdout[-2000:]
