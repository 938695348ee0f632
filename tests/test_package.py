"""Rules on the package as a whole: no assert in the library, no sympy
at import, and the field's tables and digit layout known to the field
alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_has_no_assert():
    # python -O strips assert statements: an input guard raises, and a
    # mathematical claim is a named verify check
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "mfblocks").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_tables_are_the_fields_own():
    # whether a field has exp/log tables is decided in field.py; every
    # other module calls the vector kernels, which work at any order
    private = {"_exp", "_log", "_frob_table", "_TABLE_LIMIT",
               "_require_tables"}
    found = []
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name in private:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_digit_layout_is_the_fields_own():
    # the packed base-ell layout is written once, in field.py: other
    # modules call its codec and kernels.  linalg also reads ell and d
    # for its exactness bound and the shape of its F_ell-linear product
    private = {"digit_plane", "pack_planes", "_merge", "_digits"}
    found = []
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name in private:
                found.append(f"{path.name}:{node.lineno} {name}")
            # ctx.ell, P.ctx.d: the field's own ell and d
            if path.name != "linalg.py" and isinstance(node, ast.Attribute) \
                    and node.attr in ("ell", "d") \
                    and "ctx" in (getattr(node.value, "id", None),
                                  getattr(node.value, "attr", None)):
                found.append(f"{path.name}:{node.lineno} ctx.{node.attr}")
    assert found == []


def test_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import mfblocks, sys; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
