import ast
import copy
import hashlib
import importlib.util
import inspect
import os
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import prymbn
from prymbn import errors
from prymbn.errors import ParameterError
from prymbn.verify import SuiteResult

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
    "DimReport": dict(value=1, exactness="theorem_exact", emptiness="nonempty", source="s"),
    "PrymSpace": dict(flavor="ramified_twisted", g=2, k=1, dim=2, theta_top=8),
    "AdditivityReport": dict(lhs=-1, aspect_rhos=(3, 3), bridge_rho=-1, equality=False),
}


def _int_parameters(obj):
    return [n for n, p in inspect.signature(obj).parameters.items() if p.annotation == "int"]


def test_every_public_int_parameter_is_in_the_gate_table():
    takes_int = {n for n in prymbn.__all__
                 if callable(getattr(prymbn, n)) and _int_parameters(getattr(prymbn, n))}
    assert takes_int == set(_VALID_CALLS)


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


def test_records_read_their_other_integer_fields():
    # theta_top (Optional[int]) and aspect_rhos (a pair) are not plain int parameters.
    with pytest.raises(ParameterError, match=r"theta_top, got 8\.0"):
        prymbn.degree(prymbn.ThetaClass(1, 2),
                      prymbn.PrymSpace("ramified_twisted", 2, 1, 2, 8.0))
    with pytest.raises(ParameterError, match=r"aspect_rhos, got 3\.0"):
        prymbn.AdditivityReport(-1, (3, 3.0), -1, False)
    space = prymbn.PrymSpace("unramified_pm", 2, 0, True, None)
    assert (space.dim, type(space.dim), space.theta_top) == (1, int, None)


class _IndexRaises:
    """Has __index__, but it refuses."""

    def __index__(self):
        raise TypeError("not an index")

    def __repr__(self):
        return "_IndexRaises()"


def test_integer_gate_refuses_a_value_whose_index_raises():
    message = "expected an integer for {}, got _IndexRaises()"
    with pytest.raises(ParameterError, match=re.escape(message.format("x"))):
        errors._integers("x", 1, _IndexRaises())
    with pytest.raises(ParameterError, match=re.escape(message.format("g"))):
        errors._at_least("need g >= 1", (1, 0), g=_IndexRaises(), r=1)
    with pytest.raises(ParameterError, match=re.escape(message.format("vanishing orders"))):
        prymbn.VanishingSequence((0, _IndexRaises()))


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


# One record of each value type, with its fields in order, each as the record stores it.
_RECORDS = [
    (prymbn.VanishingSequence, ((1, 2),)),
    (prymbn.StrictPartition, ((2, 1),)),
    (prymbn.ChernSeries, ((Fraction(1), Fraction(1, 2)),)),
    (prymbn.ThetaClass, (Fraction(1, 3), 5, "theta'")),
    (prymbn.PrymSpace, ("ramified_twisted", 2, 1, 2, 8)),
    (prymbn.DimReport, (1, "theorem_exact", "nonempty", "s")),
    (prymbn.LimitProblem, ("unramified_delta1", 5, 1)),
    (prymbn.AdditivityReport, (-1, (3, 3), -1, False)),
    (SuiteResult, ("engine_oracle", 3, True, None, None)),
]


@pytest.mark.parametrize("cls,fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_immutable_values_of_their_own_class(cls, fields):
    rec, names = cls(*fields), list(inspect.signature(cls).parameters)
    assert rec == cls(*fields) and hash(rec) == hash(cls(*fields))
    # Equal only to a record of the same class: never to its fields, never across classes.
    assert rec != fields and fields != rec
    for other_cls, other_fields in _RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_fields) and other_cls(*other_fields) != rec
    assert prymbn.VanishingSequence((3,)) != prymbn.StrictPartition((3,))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, fields)) + ")"
    if cls is prymbn.ThetaClass:
        assert repr(rec) == "ThetaClass(coeff=Fraction(1, 3), exponent=5, generator=\"theta'\")"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # A cold pbn process pays for every module it imports; these five serve no request.
    # A module the stdlib that cli imports already loads on some Python is not charged.
    heavy = ("typing", "dataclasses", "inspect", "ast", "dis")
    stdlib = "argparse, collections.abc, fractions, functools, json, math, numbers, operator"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, {stdlib}; base = set(sys.modules); import prymbn.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules and m not in base])"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _tool(name):
    """The module tools/<name>.py, imported from the file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_sweep_calls_every_public_name():
    # A public name that the library deck never calls would change unswept.
    called = {fn.__name__ for fn, _ in _tool("sweep").library_deck()}
    assert set(prymbn.__all__) - called == set()


def test_library_deck_matches_its_pin():
    # The library deck reads no argparse text, so its pin holds on every Python version.
    sweep = _tool("sweep")
    total = hashlib.md5()
    for fn, args in sweep.library_deck():
        total.update(sweep.call(fn, args))
    assert total.hexdigest() == sweep.LIBRARY_PIN


def test_each_mutant_snippet_occurs_once_in_its_file():
    # The gate refuses a snippet that matches no place or several; this finds it in seconds.
    for what, path, snippet, *_ in _tool("mutants").MUTANTS:
        assert (ROOT / path).read_text().count(snippet) == 1, what
