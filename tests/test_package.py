"""Rules on the package as a whole: a bound on its lines that only goes
down, no assert in the library, no sympy at import, the field's tables
and digit layout known to the field alone, no field table but exp and
log, one small digit-sum table per ell held by no field, no
relabelling table per unit, the side product and the field sum of
colliding keys written once, no product table but trans and scale,
no scalar group law under the label constants, one power table per
root of unity, no cached iota matrix, equality written only for the
array-holding elements, one block budget, and a library or CLI caller
for every function."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mfblocks
from mfblocks import make_char, params_make, run_checks
from mfblocks.field import FieldContext, _sum_table, field_make, is_prime
from mfblocks.groupalg import _mul_lanes, _tables
from mfblocks.groups import Params, l_fourier
from mfblocks.twisted import _iota_table

SRC = Path(__file__).resolve().parents[1] / "src"

# The functions that only the tests call, as references.  The list may
# only shrink: a function leaves it when the library calls it, when it
# moves to tests/reference.py or when it is deleted, and none joins it.
TEST_ONLY = {"field.FieldContext.digit_plane"}

# The most lines src/ may hold.  The bound may only go down: lower it
# to the new count whenever a change shrinks src/.
SRC_LINES = 3920


def test_src_lines_do_not_grow():
    lines = sum(len(path.read_text().splitlines())
                for path in sorted(SRC.rglob("*.py")))
    assert lines <= SRC_LINES


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
    private = {"_exp", "_log", "_TABLE_LIMIT",
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


def test_field_tables_are_exp_and_log_alone():
    # the Frobenius is ell - 1 products: no table but exp and log has an
    # entry per field element
    ctx = field_make(2, 10)
    found = {name for name, value in vars(ctx).items()
             if isinstance(value, np.ndarray) and value.size >= ctx.order}
    assert found == {"_exp", "_log"}


def test_relabelling_caches_no_table_per_unit():
    # s -> s u is the slot gather on the digit rows it moves: rescaling
    # by every unit leaves the product tables and one power table of
    # F_{2^20} in the cache of a fresh Params, beside the label field's
    # power table and Fourier matrix that Params builds
    P = Params(2, 11, 5)
    (row,) = run_checks(P, make_char(P, "Z", 1), suite="quick",
                        names=["isomorphisms"]).rows
    assert row.status == "pass"
    assert set(P._cache) == {"ga_tables", ("root_powers", 2 ** 20, 5),
                             ("root_powers", 16, 5), ("l_fourier", 16)}


def test_side_product_is_written_once():
    # the D ⋊ P product is groupalg._mul_lanes, with group_mul as its
    # scalar reference: no other code reads the action tables that
    # _tables builds, so no second copy of the product can grow
    private = {"trans", "scale"}
    found = []
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {id(node) for fn in tree.body
                 if path.name == "groupalg.py"
                 and isinstance(fn, ast.FunctionDef)
                 and fn.name in ("_mul_lanes", "_tables")
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and id(node) not in owned \
                    and isinstance(node.slice, ast.Constant) \
                    and node.slice.value in private:
                found.append(f"{path.name}:{node.lineno} {node.slice.value}")
    assert found == []


@pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
def test_product_tables_are_trans_and_scale(cfg):
    # the D-addition and the x-scaling run on the lanes, through
    # field.digit_sum and g0^s x mod p: no dsz^2 or r x p table
    assert set(_tables(params_make(*cfg))) == {"trans", "scale"}


def test_digit_sum_tables_are_small_cached_and_held_by_no_field():
    # field.digit_sum at ell > 2 gathers from one block table per ell,
    # cached by field._sum_table: for every prime ell <= 59 it has at
    # most 2^16 entries in its narrowest type, a second round of sums
    # builds none, and neither a FieldContext nor a Params holds it;
    # the lanes that add through it leave the product tables trans and
    # scale, as test_product_tables_are_trans_and_scale has it
    primes = [ell for ell in range(2, 60) if is_prime(ell)]
    tables = {ell: _sum_table(ell) for ell in primes}
    misses = _sum_table.cache_info().misses
    for ell in primes:
        k, table = tables[ell]
        assert table.size == ell ** (2 * k) <= 2 ** 16 < ell ** (2 * k + 2)
        assert table.dtype == np.min_scalar_type(ell ** k - 1)
        ctx = field_make(ell, 2)
        x = np.arange(ctx.order)
        assert ctx.vadd(x, ctx.vneg(x)).tolist() == [0] * ctx.order
        assert _sum_table(ell)[1] is table
        assert all(value is not table for value in
                   [*vars(ctx).values(), *vars(FieldContext).values()])
    P = Params(3, 5, 2)
    keys = np.arange(0, 405 * 405 * 8, 9973)
    _mul_lanes(P, keys[:, None], keys)
    assert _sum_table.cache_info().misses == misses
    assert set(_tables(P)) == {"trans", "scale"}
    assert all(value is not tables[3][1] for value in P._cache.values())


def test_label_constants_use_no_scalar_group_law():
    # twisted forms c_tab from the h-elements' H-coordinates, and the
    # scalar commutator route is verify's: no function of twisted,
    # morita or characters names commutator or group_mul
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted((SRC / "mfblocks").glob("*.py"))
             if path.stem in ("twisted", "morita", "characters")
             for node in ast.walk(ast.parse(path.read_text()))
             for name in [getattr(node, "id", None)
                          or getattr(node, "attr", None)
                          or getattr(node, "name", None)]
             if name in ("commutator", "group_mul")]
    assert found == []


def test_product_tables_are_read_by_the_lane_builder_alone():
    # groupalg._mul_lanes reads _tables itself: no other module imports,
    # builds or passes the action tables
    found = []
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        if path.name == "groupalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name == "_tables":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_block_budget_is_groupalgs_own():
    # every block-bounded kernel cuts its blocks with groupalg._lane_runs
    # under the one budget groupalg._LANES: no other module sets a lane,
    # chunk or entry bound of its own
    found = [f"{path.name}:{node.lineno} {target.id}"
             for path in sorted((SRC / "mfblocks").glob("*.py"))
             if path.name != "groupalg.py"
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for top in (node.targets if isinstance(node, ast.Assign)
                         else [node.target])
             for target in ast.walk(top)
             if isinstance(target, ast.Name)
             and target.id.endswith(("_LANES", "_CHUNK", "_ENTRIES"))]
    assert found == []


def test_field_sum_of_keys_is_written_once():
    # colliding keys are summed by groupalg._key_sums, for the group
    # algebra and the label models alike: it is bin_sum's one caller
    found = [f"{path.name}:{fn.name}"
             for path in sorted((SRC / "mfblocks").glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "bin_sum"]
    assert found == ["groupalg.py:_key_sums"]


def test_value_types_are_named_tuples():
    # equality and hashing are written out only for the elements that
    # hold arrays; every other value type is a named tuple
    found = {node.name for path in sorted((SRC / "mfblocks").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(fn, ast.FunctionDef)
                     and fn.name in ("__eq__", "__hash__")
                     for fn in node.body)}
    assert found == {"GAElem", "QuivAElem", "TTElem"}


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


_MA_CHILD = """
import contextlib, io, json, sys
from mfblocks.cli import main
seen = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.suppress(SystemExit):
        main(argv.split())
    seen.append([argv, "numpy.ma" in sys.modules])
print(json.dumps(seen))
"""


def test_cli_runs_do_not_load_numpy_ma():
    # a plain np.unique or np.union1d imports numpy.ma (about 13 ms and
    # 1.3 MB per process): quick verify at the desk blocks, quiver and
    # recover must not reach it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runs = [f"verify --ell {ell} --p {p} --r {r} --theta 1 --suite quick"
            for ell, p, r in ((2, 7, 3), (3, 5, 2), (2, 11, 5))]
    runs += ["quiver --ell 2 --p 7 --r 3 --theta 1 --out json",
             "quiver --ell 3 --p 5 --r 2 --theta 1 --out json",
             "recover --ell 2 --p 7 --r 3 --theta 1",
             "recover --ell 2 --p 19 --r 9 --theta 2"]
    out = subprocess.run([sys.executable, "-c", _MA_CHILD, *runs], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[argv, False] for argv in runs]


def test_roots_of_unity_are_read_by_root_powers_alone():
    # every power of zeta_r or zeta_p is a lookup in the one table that
    # groups.root_powers builds; Params sets the roots, and no other code
    # reads them, so none calls pow on them
    found, tables = [], 0
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for fn in ast.walk(tree):
            if path.name == "groups.py" and isinstance(fn, ast.FunctionDef) \
                    and fn.name == "root_powers":
                tables += 1
                inside |= {id(node) for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("zeta_r", "zeta_p")
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in inside]
    assert tables == 1
    assert found == []


def _arrays(obj):
    """The numpy arrays held by obj, through dicts, lists, tuples and
    slotted elements."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            yield from _arrays(getattr(obj, name, None))


def test_no_cache_entry_holds_an_iota_matrix():
    # the corner routes build their columns on demand: after the two
    # checks that use them most, no cached array, nested ones included,
    # has the r n^2 entries of a stored iota matrix (n = dsz p)
    P = params_make(2, 7, 3)
    theta = make_char(P, "Z", 1)
    rows = run_checks(P, theta, suite="quick",
                      names=["corner_maps", "product_gate"]).rows
    assert [row.status for row in rows] == ["pass", "pass"]
    assert "iota_basis" not in P._cache
    n = P.dsz * P.p
    assert max(a.size for a in _arrays(P._cache)) < P.r * n * n
    # both sides mix their columns with the one cached Fourier matrix
    for side in (1, 2):
        assert _iota_table(P, theta, side)["mix"] is l_fourier(P, P.ctx)


def _names(node) -> Counter:
    return Counter(getattr(sub, "id", None) or getattr(sub, "attr", None)
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _functions(mod: str, tree):
    """Module-level functions and class methods, with their owner."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield mod, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{mod}.{node.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


# The label layer: recover, quiver and the label checks run it over the
# label field P.lctx.  It never reads P.ctx, whose first read builds the
# group algebra's field F_{ell^d}
LABEL_LAYER = {"_mul_chunk", "head_batch", "head_algebra", "ext_dim",
               "commutation_pairing", "recover_theta"}


def test_label_layer_never_reads_the_group_algebra_field():
    # every function the tt_* products, _mul_chunk and morita's head,
    # Ext, pairing and recover_theta reach by name, through any depth of
    # calls, is free of P.ctx
    defs: dict = {}
    for path in sorted((SRC / "mfblocks").glob("*.py")):
        for _, fn in _functions(path.stem, ast.parse(path.read_text())):
            defs.setdefault(fn.name, []).append((path.stem, fn))
    roots = LABEL_LAYER | {name for name, owners in defs.items()
                           if name.startswith("tt_")
                           and any(mod == "twisted" for mod, _ in owners)}
    reached, todo = set(), sorted(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        todo += [sub for _, fn in defs[name] for sub in _names(fn)]
    assert roots <= reached and {"_merge_terms", "_tt_consts"} <= reached
    found = [f"{mod}.{fn.name}:{node.lineno}" for name in sorted(reached)
             for mod, fn in defs[name] for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "ctx"
             and getattr(node.value, "id", None) == "P"]
    assert found == []


def test_every_function_has_a_library_or_cli_caller():
    # a function is called when code outside its own body names it.  A
    # decorated function is reached through its decorator (a CLI command,
    # a property), a dunder through Python, and a name in __all__ is the
    # package's API
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "mfblocks").glob("*.py"))}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = {f"{owner}.{fn.name}" for mod, tree in trees.items()
                for owner, fn in _functions(mod, tree)
                if not fn.decorator_list and not fn.name.startswith("__")
                and fn.name not in mfblocks.__all__
                and total[fn.name] == _names(fn)[fn.name]}
    assert uncalled == TEST_ONLY
