import ast
import types
from pathlib import Path

import prymbn

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

    readme = (Path(__file__).parent.parent / "README.md").read_text()
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
