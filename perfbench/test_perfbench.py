"""Tests of the benchmark itself: every checker accepts a real output
and rejects a corrupted one; the workloads and BENCHMARK.json agree.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import copy
import json
from pathlib import Path

import pytest

import checks
import run

# `mfblocks quiver --ell 3 --p 5 --r 2 --out json`
QUIVER_352 = {
    "params": {"ell": 3, "p": 5, "r": 2, "theta": 1},
    "vertices": ["(1,1)", "(phi1,1)", "(phi2,1)", "(phi3,1)", "(phi4,1)",
                 "(1,psi1)", "(1,psi2)", "(1,psi3)", "(1,psi4)",
                 "([phi1],[psi1])", "([phi1],[psi2])", "([phi2],[psi1])",
                 "([phi2],[psi2])"],
    "matrix": [
        [0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],
        [1, 0, 1, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0],
        [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 2, 2],
        [1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2, 2],
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 2, 2, 0, 0],
        [1, 0, 0, 0, 0, 0, 1, 1, 1, 2, 0, 2, 0],
        [1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 2, 0, 2],
        [1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 2, 0, 2],
        [1, 0, 0, 0, 0, 1, 1, 1, 0, 2, 0, 2, 0],
        [0, 2, 0, 0, 2, 2, 0, 0, 2, 8, 8, 8, 0],
        [0, 2, 0, 0, 2, 0, 2, 2, 0, 8, 8, 0, 8],
        [0, 0, 2, 2, 0, 2, 0, 0, 2, 8, 0, 8, 8],
        [0, 0, 2, 2, 0, 0, 2, 2, 0, 0, 8, 8, 8],
    ],
}

# `mfblocks recover --ell 2 --p 7 --r 3` (values packed in F_64)
RECOVER_273 = {
    "params": {"ell": 2, "p": 7, "r": 3, "theta": 1},
    "pairing": [{"chi": e, "eta": f, "value": v} for (e, f), v in {
        (0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 58,
        (1, 2): 59, (2, 0): 1, (2, 1): 59, (2, 2): 58}.items()],
    "recovered": [1, 2],
}


def _rows(ell, p, r, statuses):
    params = {"ell": ell, "p": p, "r": r, "theta": 1}
    out = []
    for name, status in zip(checks.CHECK_NAMES, statuses):
        row = {"params": params, "check": name, "status": status, "ms": 1.0}
        if status == "skip":
            row["witness"] = {"reason": "tables do not fit"}
        out.append(json.dumps(row))
    return "\n".join(out) + "\n"


# -- quiver ----------------------------------------------------------------

def test_quiver_accepts_real_output():
    assert checks.check_quiver(json.dumps(QUIVER_352), 3, 5, 2, 1) == []


@pytest.mark.parametrize("i, j", [(1, 2), (2, 2), (1, 6), (9, 9)])
def test_quiver_rejects_flipped_entry(i, j):
    doc = copy.deepcopy(QUIVER_352)
    doc["matrix"][i][j] = 0 if doc["matrix"][i][j] else 1
    assert checks.check_quiver(json.dumps(doc), 3, 5, 2, 1)


def test_quiver_rejects_missing_vertex():
    doc = copy.deepcopy(QUIVER_352)
    doc["vertices"].pop()
    assert checks.check_quiver(json.dumps(doc), 3, 5, 2, 1)


def test_quiver_vertex_census():
    for ell, p, r in ((2, 7, 3), (3, 5, 2), (2, 11, 5), (2, 19, 9)):
        names = checks.quiver_vertices(p, r)
        assert len(names) == 2 * p - 1 + ((p - 1) // r) ** 2


# -- recover ---------------------------------------------------------------

def test_recover_accepts_real_output():
    assert checks.check_recover(json.dumps(RECOVER_273), 2, 7, 3, 1) == []


def test_recover_rejects_swapped_pairing_entry():
    doc = copy.deepcopy(RECOVER_273)
    entries = {(x["chi"], x["eta"]): x for x in doc["pairing"]}
    a, b = entries[(1, 1)], entries[(1, 2)]
    a["value"], b["value"] = b["value"], a["value"]
    assert checks.check_recover(json.dumps(doc), 2, 7, 3, 1)


def test_recover_rejects_degenerate_pairing():
    doc = copy.deepcopy(RECOVER_273)
    for x in doc["pairing"]:
        x["value"] = 1
    assert checks.check_recover(json.dumps(doc), 2, 7, 3, 1)


def test_recover_rejects_wrong_exponents():
    doc = copy.deepcopy(RECOVER_273)
    doc["recovered"] = [1]
    assert checks.check_recover(json.dumps(doc), 2, 7, 3, 1)


# -- mf --------------------------------------------------------------------

def test_mf_accepts_real_outputs():
    assert checks.check_mf('{"ell": 2, "r": 7, "mf": 3}', 2, r=7) == []
    assert checks.check_mf('{"ell": 2, "n": 3, "r": 9, "p": 19, "mf": 3}',
                           2, n=3) == []


def test_mf_rejects_wrong_value():
    assert checks.check_mf('{"ell": 2, "r": 7, "mf": 2}', 2, r=7)
    assert checks.check_mf('{"ell": 2, "n": 3, "r": 9, "p": 19, "mf": 2}',
                           2, n=3)
    assert checks.check_mf('{"ell": 2, "n": 3, "r": 9, "p": 37, "mf": 3}',
                           2, n=3)


def test_brute_force_arithmetic():
    assert checks.brute_mf(2, 2 ** 5 + 1) == 5
    assert checks.recipe(2, 3) == (9, 19)
    assert checks.recipe(2, 2) == (5, 11)
    assert [n for n in range(30) if checks.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- verify rows -----------------------------------------------------------

def test_verify_accepts_all_pass():
    text = _rows(2, 7, 3, ["pass"] * 12)
    assert checks.check_verify(text, 2, 7, 3, 1) == ([], [], 0)


def test_verify_accepts_skips_where_tables_do_not_fit():
    may = checks.allowed_skips(2, 11, 5)
    assert may == set(checks.EMBED_CHECKS) | set(checks.KERNEL_CHECKS)
    statuses = ["skip" if n in may else "pass" for n in checks.CHECK_NAMES]
    problems, failures, skips = checks.check_verify(
        _rows(2, 11, 5, statuses), 2, 11, 5, 1)
    assert (problems, failures, skips) == ([], [], 5)


@pytest.mark.parametrize("config, check", [
    ((2, 7, 3), "ext_quiver"),
    ((3, 5, 2), "embed_multiplicative"),
    ((2, 11, 5), "dimensions"),
])
def test_verify_rejects_unexpected_skip(config, check):
    statuses = ["skip" if n == check else "pass" for n in checks.CHECK_NAMES]
    _, failures, _ = checks.check_verify(_rows(*config, statuses), *config, 1)
    assert failures


def test_verify_rejects_fail_row_and_missing_row():
    statuses = ["fail"] + ["pass"] * 11
    assert checks.check_verify(_rows(2, 7, 3, statuses), 2, 7, 3, 1)[1]
    text = _rows(2, 7, 3, ["pass"] * 11)
    assert checks.check_verify(text, 2, 7, 3, 1)[0]


# -- workloads and BENCHMARK.json -------------------------------------------

def test_ops_depend_only_on_seed():
    for workload in run.WORKLOADS:
        assert run.make_ops(workload, 3) == run.make_ops(workload, 3)
    assert len({json.dumps(run.make_ops("label-invariants", s))
                for s in range(6)}) > 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better)
            for name, (unit, better, _, _) in run.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS


# -- children and the tracer -------------------------------------------------

def test_judge_counts_a_crash_as_failed():
    op = run._cli_op("quiver", 2, 7, 3, 1, "--out", "json")
    res = {"exit": 1, "error": "Traceback (most recent call last): ..."}
    failed, problems, _ = run.judge(op, res)
    assert failed and problems


def test_traced_child_counts_calls_in_every_namespace():
    op = run._cli_op("recover", 2, 7, 3, 1)
    res = run.Runner().spawn(op, trace=True)
    assert run.judge(op, res) == (False, [], 0)
    tr = res["trace"]
    # the CLI calls commutation_pairing through its own imported binding
    assert tr["calls"]["morita.commutation_pairing"] == 1
    assert tr["calls"]["twisted.tt_mul"] > 0
    assert tr["seconds"]["twisted.tt_mul"] <= \
        tr["seconds"]["morita.commutation_pairing"]
    assert tr["cache"][0] > 0
    # self times partition the body plus the traced part of set-up
    assert sum(tr["self_s"].values()) == pytest.approx(
        res["compute_s"] + tr["seconds"]["groups.params_make"], rel=0.05)
