"""Rules on the package as a whole: no assert in the library, and no
sympy at import."""

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


def test_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import mfblocks, sys; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
