"""The named-check registry: statuses, skips, streaming, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mfblocks.groupalg as galg
from mfblocks.characters import make_char
from mfblocks.groupalg import _tables, _table_entries
from mfblocks.groups import Params, params_make
from mfblocks.linalg import gf_matmul
from mfblocks.morita import PairingTable
from mfblocks.quiver import (
    _embed_tables, embed_columns, label_to_dict, qa_basis, qa_embed, qa_labels,
)
from mfblocks.twisted import tt_zero
from mfblocks.verify import (
    CHECK_STATEMENTS, CheckRow, SkipCheck, VerifyReport, _need_group_algebra,
    check_names, run_checks,
)
from reference import _embed_want, f_add, side_inv_index, side_mul_table

FAST = ["dimensions", "group_relations", "simple_census",
        "radical_powers", "pairing_recovery", "isomorphisms"]


def desk(ell=2, p=7, r=3, e=1):
    P = params_make(ell, p, r)
    return P, make_char(P, "Z", e)


def _budgets(monkeypatch):
    """Set the block budget to the default, then to one at which each
    block-cut site of embed_multiplicative and corner_maps at (3,5,2)
    cuts several blocks: two of the n = 405 labels or rows a block, and
    one corner label."""
    for budget in (galg._LANES, 1 << 10):
        monkeypatch.setattr(galg, "_LANES", budget)
        yield budget


class TestRegistry:
    def test_every_check_has_a_statement(self):
        assert set(check_names()) == set(CHECK_STATEMENTS)
        for text in CHECK_STATEMENTS.values():
            assert len(text) > 40

    def test_names_are_stable(self):
        assert check_names() == check_names()
        assert len(set(check_names())) == len(check_names()) == 12

    def test_unknown_name_rejected(self):
        P, theta = desk()
        with pytest.raises(ValueError, match="unknown check"):
            run_checks(P, theta, names=["no_such_check"])
        # every name is known before any check runs and emits its row
        rows = []
        with pytest.raises(ValueError, match="unknown check: typo"):
            run_checks(P, theta, names=["dimensions", "typo"],
                       emit=rows.append)
        assert rows == []


class TestRunChecks:
    def test_fast_checks_pass_quick(self):
        P, theta = desk()
        rep = run_checks(P, theta, suite="quick", names=FAST)
        assert [row.check for row in rep.rows] == FAST
        assert all(row.status == "pass" for row in rep.rows)
        assert all(row.ms >= 0 for row in rep.rows)
        assert rep.passed

    def test_fast_checks_pass_full_other_desk(self):
        P, theta = desk(3, 5, 2)
        rep = run_checks(P, theta, suite="full", names=FAST)
        assert all(row.status == "pass" for row in rep.rows)

    @pytest.mark.parametrize("cfg", [(5, 3, 2), (7, 3, 2)])
    def test_quick_suite_passes_at_p_three(self, cfg):
        # at p = 3 the isomorphisms check scales by the unit 2 alone
        P, theta = desk(*cfg)
        rep = run_checks(P, theta, suite="quick")
        assert len(rep.rows) == 12
        assert [row.check for row in rep.rows
                if row.status != "pass"] == []

    def test_params_echo(self):
        P, theta = desk(e=2)
        rep = run_checks(P, theta, names=["dimensions"])
        assert rep.params == {"ell": 2, "p": 7, "r": 3, "theta": 2}
        assert rep.suite == "quick" and rep.seed == 0

    def test_bad_suite_rejected(self):
        P, theta = desk()
        with pytest.raises(ValueError, match="quick or full"):
            run_checks(P, theta, suite="nightly")

    def test_non_faithful_theta_rejected(self):
        P = params_make(2, 19, 9)
        with pytest.raises(ValueError, match="faithful"):
            run_checks(P, make_char(P, "Z", 3), names=["dimensions"])

    def test_emit_streams_every_row(self):
        P, theta = desk()
        seen = []
        rep = run_checks(P, theta, names=FAST[:3], emit=seen.append)
        assert seen == rep.row_dicts()
        assert seen[0]["check"] == FAST[0]
        assert set(seen[0]) == {"params", "check", "status", "ms"}


class TestSkips:
    def test_large_parameters_skip_gated_checks(self):
        # F_{2^20} has no exp/log tables, and head and Ext run anyway;
        # the side dimension 11264 is past the embedding tables
        P = params_make(2, 11, 5)
        theta = make_char(P, "Z", 1)
        names = ["embed_multiplicative", "corner_maps", "product_gate",
                 "idempotent_head", "ext_quiver", "pairing_recovery"]
        rep = run_checks(P, theta, names=names)
        status = {row.check: row.status for row in rep.rows}
        for name in names[3:]:
            assert status[name] == "pass"
        for name in names[:3]:
            assert status[name] == "skip"
            row = next(r for r in rep.rows if r.check == name)
            assert "reason" in row.witness
        assert rep.passed

    def test_isomorphisms_pass_without_the_family_past_the_tables(
            self, monkeypatch):
        # the side dimension 11264 of (2,11,5) is past the embedding
        # tables: the idempotent family is not formed, the row passes on
        # the maps' other claims, and its statement says so
        import mfblocks.verify as V

        def no_family(*args):
            raise AssertionError("b0_pi_inv ran")

        monkeypatch.setattr(V, "b0_pi_inv", no_family)
        P = params_make(2, 11, 5)
        (row,) = run_checks(P, make_char(P, "Z", 1), suite="quick",
                            names=["isomorphisms"]).rows
        assert row.status == "pass"
        assert "where the embedding tables fit" in \
            CHECK_STATEMENTS["isomorphisms"]

    def test_product_tables_past_their_bound_skip(self):
        # at (5,11,2) the keys fit in 57 bits, but trans and scale would
        # hold 2.3e8 entries, and at (3,17,2) 1.5e9; the skip comes
        # before any allocation
        for cfg in ((5, 11, 2), (3, 17, 2)):
            P = params_make(*cfg)
            t0 = time.perf_counter()
            (row,) = run_checks(P, make_char(P, "Z", 1),
                                names=["isomorphisms"]).rows
            assert time.perf_counter() - t0 < 1.0
            assert row.status == "skip"
            assert f"{_table_entries(P)} entries" in row.witness["reason"]
            with pytest.raises(ValueError, match="over the bound"):
                _tables(P)

    @pytest.mark.parametrize("cfg", [
        (3, 11, 2), (3, 11, 5), (3, 11, 10), (3, 13, 2), (3, 13, 4),
        (5, 7, 2), (5, 7, 3), (5, 7, 6)])
    def test_isomorphisms_pass_within_the_table_bound(self, cfg):
        # with no dsz^2 addition table, trans and scale fit under the
        # bound at these triples, and quick isomorphisms runs and passes
        P = params_make(*cfg)
        t0 = time.perf_counter()
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["isomorphisms"]).rows
        assert row.status == "pass", row.witness
        assert time.perf_counter() - t0 < 2.0

    def test_group_keys_past_int64_skip(self):
        # at (5,13,3) a group key needs dsz^2 p^2 r^3 - 1 < 2^68
        P = params_make(5, 13, 3)
        theta = make_char(P, "Z", 1)
        rep = run_checks(P, theta, names=["isomorphisms"])
        (row,) = rep.rows
        assert row.status == "skip"
        assert "68 bits" in row.witness["reason"]

    def test_radical_chains_past_their_bound_skip(self, monkeypatch):
        # (p-1)^(ell-1) = 42^6 chains at (7,43,3): the skip names the
        # count and comes before any arrow is built or multiplied
        import mfblocks.verify as V

        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(V, "tt_arrow", no_chain)
        monkeypatch.setattr(V, "tt_mul", no_chain)
        P = params_make(7, 43, 3)
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["radical_powers"]).rows
        assert row.status == "skip"
        assert row.witness["reason"] == (
            f"(p-1)^(ell-1) = {42 ** 6} arrow chains are over the bound"
            f" {V._CHAINS_LIMIT}")
        assert 42 ** 6 > V._CHAINS_LIMIT > 20736

    def test_mf_four_block_runs_the_label_checks(self):
        # at (2,103,17) F_{ell^d}, d = 408, is refused: each check that
        # needs it skips and names d before anything is built, and the
        # label checks pass over F_256.  idempotent_head and ext_quiver
        # skip on d too, dimensions on its label rows
        P = Params(2, 103, 17)
        t0 = time.perf_counter()
        rep = run_checks(P, make_char(P, "Z", 3), suite="quick")
        assert time.perf_counter() - t0 < 60.0
        assert "ctx" not in vars(P)
        status = {row.check: row.status for row in rep.rows}
        assert {name for name, s in status.items() if s == "pass"} == {
            "group_relations", "simple_census", "radical_powers",
            "pairing_recovery"}
        reasons = {row.check: row.witness["reason"] for row in rep.rows
                   if row.status == "skip"}
        field = {"embed_multiplicative", "corner_maps", "product_gate",
                 "idempotent_head", "ext_quiver", "frobenius_mf",
                 "isomorphisms"}
        assert set(reasons) == field | {"dimensions"}
        for name in field:
            assert reasons[name] == "extension degree d = 408 outside" \
                " [1, 24]"
        assert str(2 ** 102) in reasons["dimensions"]
        assert rep.passed

    @pytest.mark.parametrize("cfg", [(7, 11, 5), (2, 73, 3)])
    def test_frobenius_twist_needs_only_the_field(self, cfg):
        # F_{7^20} and F_{2^18} build, though the product tables of
        # (7,11,5) and the group keys of (2,73,3) do not fit: the twist
        # needs neither, so the check runs
        P = Params(*cfg)
        with pytest.raises(SkipCheck):
            _need_group_algebra(P)
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["frobenius_mf"]).rows
        assert row.status == "pass"

    def test_frobenius_sweep_stays_below_2_to_40(self, monkeypatch):
        # mf_number factors ell^n + 1: the sweep keeps n <= 20 at ell = 2
        # and n <= 12 at ell = 3, 5, 7, and takes only the n with
        # 67^n + 1 < 2^40, n <= 6, at (67,3,2)
        import mfblocks.verify as V
        seen, real = [], V.mf_number
        monkeypatch.setattr(V, "mf_number",
                            lambda ell, r: seen.append((ell, r)) or
                            real(ell, r))
        for ell, p, r, top in [(2, 7, 3, 20), (3, 5, 2, 12), (5, 3, 2, 12),
                               (7, 3, 2, 12), (67, 3, 2, 6)]:
            seen.clear()
            t0 = time.perf_counter()
            P = params_make(ell, p, r)
            (row,) = run_checks(P, make_char(P, "Z", 1),
                                names=["frobenius_mf"]).rows
            assert row.status == "pass"
            assert time.perf_counter() - t0 < 10.0
            assert sorted({n for n in range(1, 40)
                           if (ell, ell ** n + 1) in seen}) == \
                list(range(1, top + 1))

    def test_radical_powers_runs_all_chains_at_five(self):
        # 20,736 chains of five one-arrow products at (5,13,3), one
        # batched product per step
        P = params_make(5, 13, 3)
        t0 = time.perf_counter()
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["radical_powers"]).rows
        assert row.status == "pass"
        assert time.perf_counter() - t0 < 30.0

    def test_skip_rows_keep_witness_in_dicts(self):
        P = params_make(2, 11, 5)
        theta = make_char(P, "Z", 1)
        rep = run_checks(P, theta, names=["embed_multiplicative"])
        (d,) = rep.row_dicts()
        assert d["status"] == "skip" and "witness" in d


class TestReport:
    def test_fail_row_fails_the_report(self):
        rep = VerifyReport(params={}, suite="quick", seed=0, rows=[
            CheckRow("a", "pass", 1.0),
            CheckRow("b", "fail", 1.0, {"defect": "x"}),
        ])
        assert not rep.passed
        assert rep.row_dicts()[1]["witness"] == {"defect": "x"}

    def test_skip_does_not_fail_the_report(self):
        rep = VerifyReport(params={}, suite="quick", seed=0, rows=[
            CheckRow("a", "skip", 0.0, {"reason": "r"}),
        ])
        assert rep.passed

    def test_non_central_idempotent_is_a_defect(self, monkeypatch):
        # a nonzero commutator e x - x e must be reported, not asserted:
        # with the products x e taken as 0 it is e x, which is nonzero
        # in the first row
        import mfblocks.verify as V
        P, theta = desk(3, 5, 2)
        real = V.head_batch
        monkeypatch.setattr(V, "head_batch", lambda P, theta: real(
            P, theta)._replace(XE=tt_zero(theta, P.lctx)))
        rep = run_checks(P, theta, names=["idempotent_head"])
        assert rep.rows[0].status == "fail"
        assert rep.rows[0].witness == {"label": "(1,1)",
                                       "defect": "not central in the head"}

    def test_crash_becomes_fail_witness(self):
        import mfblocks.verify as V
        P, theta = desk()
        original = V._CHECKS["dimensions"]
        V._CHECKS["dimensions"] = lambda *a: 1 // 0
        try:
            rep = run_checks(P, theta, names=["dimensions"])
        finally:
            V._CHECKS["dimensions"] = original
        assert rep.rows[0].status == "fail"
        assert "ZeroDivisionError" in rep.rows[0].witness["error"]


def _embed_rows(P, theta):
    """The embed_multiplicative row of the quick and of the full suite."""
    return [run_checks(P, theta, suite=suite,
                       names=["embed_multiplicative"]).rows[0]
            for suite in ("quick", "full")]


def _bent_no_carry(monkeypatch):
    import mfblocks.quiver as Q
    monkeypatch.setattr(Q, "_no_carry", lambda P_, a, b: (
        a + b < P_.ell - 1).all(axis=1))


def _bent_h_elements(P, theta):
    """The label constants with the side-1, character-1 h-element
    replaced by the character-0 one, so that an iota route built from
    them disagrees with the closed route."""
    from mfblocks.twisted import _tt_consts
    consts = _tt_consts(P, P.lctx, theta)
    h1 = list(consts["h1"])
    h1[1] = h1[0]
    return dict(consts, h1=h1)


_BENT_CHILD = """
import json, sys
from mfblocks.characters import make_char
from mfblocks.groups import params_make
from mfblocks.verify import run_checks
sys.path.insert(0, sys.argv[1])
from test_verify import _bent_h_elements
P = params_make(3, 5, 2)
theta = make_char(P, "Z", 1)
P._cache[("tt_consts", P.lctx.order, 1)] = _bent_h_elements(P, theta)
(row,) = run_checks(P, theta, names=["corner_maps"]).row_dicts()
print(json.dumps({"optimize": sys.flags.optimize, "row": row}))
"""


class TestInjectedDefects:
    def test_corner_route_disagreement_is_reported(self, monkeypatch):
        # the first disagreeing label is the second, which the small
        # budget puts in a block of its own
        P, theta = desk(3, 5, 2)
        monkeypatch.setitem(P._cache, ("tt_consts", P.lctx.order, theta.e),
                            _bent_h_elements(P, theta))
        for side in (1, 2):  # iota routes built before the bend
            monkeypatch.delitem(P._cache, ("iota", theta.e, side),
                                raising=False)
        for _ in _budgets(monkeypatch):
            (row,) = run_checks(P, theta, names=["corner_maps"]).rows
            assert row.status == "fail"
            assert row.witness == {"routes_disagree_at": label_to_dict(
                qa_labels(P, 1)[1])}

    def test_corner_route_disagreement_survives_stripped_asserts(self):
        # python -O strips every assert; the check must still see it
        import mfblocks
        src = str(Path(mfblocks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BENT_CHILD,
             str(Path(__file__).resolve().parent)],
            env=env, capture_output=True, text=True, timeout=120,
            check=True)
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert got["optimize"] == 1
        assert got["row"]["status"] == "fail"
        assert "routes_disagree_at" in got["row"]["witness"]

    @pytest.mark.parametrize("cfg,entry", [
        ((3, 5, 2), (0, 0)), ((3, 5, 2), (0, 1)), ((3, 5, 2), (1, 0)),
        ((3, 5, 2), (1, 1)),
        ((2, 7, 3), (0, 0)), ((2, 7, 3), (1, 0)), ((2, 7, 3), (1, 1)),
        ((2, 7, 3), (2, 0)), ((2, 7, 3), (2, 2)),
        ((2, 7, 3), (0, 1)), ((2, 7, 3), (0, 2)), ((2, 7, 3), (1, 2)),
        ((2, 7, 3), (2, 1)),
    ])
    def test_product_gate_sees_a_bent_weight(self, monkeypatch, cfg, entry):
        # one W entry plus one: the folded oracle must still tell the
        # twisted product from the group-algebra one; the gate runs the
        # product over F_{ell^d}
        from mfblocks.twisted import _tt_consts
        P, theta = desk(*cfg)
        consts = _tt_consts(P, P.ctx, theta)
        W = consts["W"].copy()
        W[entry] = f_add(P.ctx, int(W[entry]), P.ctx.one)
        monkeypatch.setitem(P._cache, ("tt_consts", P.ctx.order, theta.e),
                            dict(consts, W=W))
        (row,) = run_checks(P, theta, names=["product_gate"]).rows
        assert row.status == "fail"
        assert set(row.witness) == {"left", "right"}

    def test_wrong_h_element_closed_form_is_reported(self, monkeypatch):
        # a closed form off by one generator power for chi_1 on side 1;
        # the model is rebuilt from it and the search in
        # pairing_recovery names the entry
        import mfblocks.twisted as T
        from mfblocks.characters import h_element
        from mfblocks.groups import group_mul, h_elem
        P, theta = desk()

        def bent(P_, theta_, chi, i):
            h = h_element(P_, theta_, chi, i)
            if i == 1 and chi.e == 1:
                h = group_mul(P_, h, h_elem(P_, 0, 1, 0))
            return h
        monkeypatch.setattr(T, "h_element", bent)
        monkeypatch.setitem(P._cache, ("tt_consts", P.lctx.order, theta.e),
                            None)
        (row,) = run_checks(P, theta, names=["pairing_recovery"]).rows
        assert row.status == "fail"
        assert row.witness == {"j": 1, "h_element_disagrees":
                               {"side": 1, "chi": 1}}

    def test_pairing_defect_is_reported(self, monkeypatch):
        # a table off the commutator values by one entry
        import mfblocks.verify as V
        P, theta = desk()
        table = V.commutation_pairing(P, theta)
        bent = dict(table.entries)
        bent[(1, 2)] = (bent[(1, 2)] + 1) % P.r
        monkeypatch.setattr(V, "commutation_pairing",
                            lambda *a, **k: PairingTable(P.r, bent))
        (row,) = run_checks(P, theta, names=["pairing_recovery"]).rows
        assert row.status == "fail"
        assert row.witness == {"j": 1, "at": [1, 2], "defect": "extracted"
                               " scalar disagrees with the character route"}

    def test_isomorphisms_see_int8_digit_sums(self, monkeypatch):
        # a D-addition on int8 digits wraps the sums v + w past 127: at
        # (67,3,2) the swap and the scaling maps bend alike under it, so
        # only the comparison with the normal-form product sees it, on
        # the pair of all-(ell - 1) D-digits
        import mfblocks.groupalg as galg
        from mfblocks.field import digits, undigits

        def int8_sum(a, b, ell, n):
            a, b = np.broadcast_arrays(a, b)
            return undigits((digits(a, ell, n, axis=0, dtype=np.int8)
                             + digits(b, ell, n, axis=0, dtype=np.int8))
                            % ell, ell, axis=0)
        P = params_make(67, 3, 2)
        theta = make_char(P, "Z", 1)
        (row,) = run_checks(P, theta, names=["isomorphisms"]).rows
        assert row.status == "pass"
        monkeypatch.setattr(galg, "digit_sum", int8_sum)
        (row,) = run_checks(P, theta, names=["isomorphisms"]).rows
        assert row.status == "fail"
        top = {"v1": [0, 66, 66], "x1": 0, "v2": [0, 66, 66], "x2": 0,
               "h": [0, 0, 0]}
        assert row.witness == {
            "x": [top], "y": [top],
            "defect": "packed product is not the normal-form product"}

    def test_embed_sees_a_bent_label_rule(self, monkeypatch):
        # the library's no-carry test off by one: the products that
        # verify predicts through the leg join must stop matching the
        # group convolution on the sampled arrow rows
        P, theta = desk()
        _bent_no_carry(monkeypatch)
        (row,) = run_checks(P, theta, names=["embed_multiplicative"]).rows
        assert row.status == "fail"
        assert set(row.witness) == {"side", "u", "v"}


class TestFactoredEmbed:
    """embed_multiplicative multiplies through the Kronecker factors of
    the embedding, once for both sides: the full suite on every arrow
    row, the quick suite on the rows of sampled labels, behind the same
    gates."""

    @pytest.mark.parametrize("cfg,e", [
        ((2, 7, 3), 2), ((3, 5, 2), 1), ((5, 3, 2), 1), ((7, 3, 2), 1)])
    def test_both_suites_pass(self, cfg, e):
        # at ell = 5 and 7 the product kernel adds D-vectors digit by
        # digit in field.digit_sum
        P, theta = desk(*cfg, e)
        for row in _embed_rows(P, theta):
            assert row.status == "pass", row.witness

    def test_full_suite_holds_no_dense_embedding(self):
        # (3,5,2), n = 405: the dense E and the n x n side table were
        # 1.3 MB each, and the full check traced 10.4 MB; E is now gated
        # a block of columns at a time and the side table is kept as its
        # D-parts at y' = 0, so the check stays under 7 MB
        import tracemalloc
        P, theta = desk(3, 5, 2)
        _embed_tables(P)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            (row,) = run_checks(P, theta, suite="full",
                                names=["embed_multiplicative"]).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.status == "pass", row.witness
        assert peak < 7e6, peak

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_sides_share_the_dense_data(self, cfg):
        # one dense pass covers both sides only while this holds
        import mfblocks.verify as V
        P, _ = desk(*cfg)
        one, two = (V._embed_side_data(P, side) for side in (1, 2))
        assert np.array_equal(one["slot"], two["slot"])
        # E = embed_columns(P, js) is built for both sides at once: the
        # columns of qa_embed are its columns on either side's keys
        E, keys = embed_columns(P, np.arange(P.dsz * P.p)), [
            _embed_tables(P)["gkeys"][side - 1].ravel() for side in (1, 2)]
        for j in range(0, P.dsz * P.p, 7):
            for side, lab in zip((1, 2), (one, two)):
                got = qa_embed(P, qa_basis(P, lab["labels"][j]))
                nz = np.flatnonzero(E[:, j])
                assert np.array_equal(got.keys, keys[side - 1][nz])
                assert np.array_equal(got.coeffs, E[nz, j])
        for c1, c2 in zip(one["cols"], two["cols"]):
            assert np.array_equal(c1, c2)
        assert [(lab.psi, lab.m) for lab in one["labels"]] == \
            [(lab.psi, lab.m) for lab in two["labels"]]

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_blocks_match_the_gather_route(self, cfg):
        # the gather C_u[k, h] = E[k h^-1, u] times E is the group
        # convolution of u with every label, term by term; each D-vector
        # x of a product expands to the dense column x ⊗ F[:, b_v]
        import mfblocks.verify as V
        P, _ = desk(*cfg)
        data = V._embed_side_data(P, 1)
        E = embed_columns(P, np.arange(P.dsz * P.p))
        table, inv = side_mul_table(P), side_inv_index(P)
        delta = table[inv].reshape(P.dsz, P.p, P.dsz, P.p)[..., 0] // P.p
        F, n = _embed_tables(P)["F"], P.dsz * P.p
        b = data["slot"] % P.p
        # the first five a_u (arrow rows with one and two nonzero
        # digits), and on the k-th the label u = k dsz + k of vertex k
        seen = set()
        for k, (us, got) in enumerate(itertools.islice(
                V._embed_products(P, data, delta, np.arange(P.dsz)), 5)):
            seen.update(us.tolist())
            u = us[k]
            dense = P.ctx.vmul(got[k].T[:, None, :], F[None, :, b])
            want = gf_matmul(P.ctx, E[:, u][table[:, inv]], E)
            assert np.array_equal(dense.reshape(n, n), want), u
        assert len(seen) == 5 * P.p

    def test_a_bent_embedded_column_fails_the_full_suite(self, monkeypatch):
        import mfblocks.verify as V
        P, theta = desk(3, 5, 2)
        true = V.embed_columns

        def bent(P_, js):
            # entry 7 of label 11's column, in whichever block holds it
            E = true(P_, js).copy()
            for k in np.flatnonzero(js == 11):
                E[7, k] = f_add(P_.ctx, int(E[7, k]), P_.ctx.one)
            return E
        monkeypatch.setattr(V, "embed_columns", bent)
        for _ in _budgets(monkeypatch):
            for row in _embed_rows(P, theta):
                assert row.status == "fail"
                assert row.witness == {
                    "side": 1, "u": label_to_dict(qa_labels(P, 1)[11]),
                    "defect": "embedded column is not S ⊗ F"}

    @pytest.mark.parametrize("swap", [(10, 17), (10, 15), (11, 16)])
    def test_a_bent_side_table_fails_the_shape_gate(self, monkeypatch,
                                                    swap):
        # (3,5,2): index d p + y; the swaps of two products 3 v change
        # the P-part, the D-part read at y' = 0, and the D-part at y' = 1.
        # The first entry off the shape is the first swapped one, or the
        # next (y' = 1) where the swap moved the D-part read at y' = 0
        first = {(10, 17): 10, (10, 15): 11, (11, 16): 11}[swap]
        import mfblocks.verify as V
        P, theta = desk(3, 5, 2)
        true, g = V._mul_lanes, _embed_tables(P)["gkeys"][0].ravel()

        def bent(P_, gk, hk):
            keys = true(P_, gk, hk).copy()
            at = np.ix_(gk[:, 0] == g[3], swap)
            keys[at] = keys[at][:, ::-1]
            return keys
        monkeypatch.setattr(V, "_mul_lanes", bent)
        for _ in _budgets(monkeypatch):
            for row in _embed_rows(P, theta):
                assert row.status == "fail"
                # the entry g^-1 g' sits at [g, g'], so the bent row is
                # g = 3^-1
                assert row.witness == {
                    "at": [side_inv_index(P)[3], first],
                    "defect": "side table is not D ⋊ P"}

    def test_a_product_off_the_side_fails_its_gate(self, monkeypatch):
        # one product of two side-1 keys moved by the central gz
        import mfblocks.verify as V
        P, theta = desk(3, 5, 2)
        true, g = V._mul_lanes, _embed_tables(P)["gkeys"][0].ravel()

        def bent(P_, gk, hk):
            keys = true(P_, gk, hk).copy()
            keys[gk[:, 0] == g[6], 9] += 1
            return keys
        monkeypatch.setattr(V, "_mul_lanes", bent)
        for _ in _budgets(monkeypatch):
            for row in _embed_rows(P, theta):
                assert row.witness == {"at": [6, 9], "defect":
                                       "side product leaves D ⋊ P"}

    def test_a_bent_label_rule_fails_the_full_suite(self, monkeypatch):
        P, theta = desk(3, 5, 2)
        _bent_no_carry(monkeypatch)
        for row in _embed_rows(P, theta):
            assert row.status == "fail"
            assert set(row.witness) == {"side", "u", "v"}

    def test_a_bent_character_table_fails_the_shift_gate(self,
                                                         monkeypatch):
        # E is built from the same bent F, so only the shift gate sees it
        P, theta = desk(3, 5, 2)
        tabs, p = _embed_tables(P), P.p
        F = tabs["F"].copy()
        F[2, 3] = f_add(P.ctx, int(F[2, 3]), P.ctx.one)
        monkeypatch.setitem(tabs, "F", F)
        for row in _embed_rows(P, theta):
            assert row.status == "fail"
            assert row.witness["defect"] == \
                "F does not diagonalize the P-shifts"
            y1, y0, bu, bv = row.witness["at"]
            assert P.ctx.mul(int(F[(y1 - y0) % p, bv]), int(F[y0, bu])) != \
                P.ctx.mul(int(F[y1, bv]), int(F[y0, (bu - bv) % p]))

    def test_a_singular_inverse_fails_the_inverse_gate(self, monkeypatch):
        P, theta = desk(3, 5, 2)
        tabs = _embed_tables(P)
        Finv = tabs["Finv"].copy()
        Finv[1] = 0
        monkeypatch.setitem(tabs, "Finv", Finv)
        for row in _embed_rows(P, theta):
            assert row.status == "fail"
            assert row.witness == {"defect": "F is not invertible"}

    def test_a_product_label_on_another_vertex_is_a_mismatch(
            self, monkeypatch):
        # the rule's labels moved one vertex on keep their D-part, so
        # only b_w != b_v tells them apart; the first pair that survives
        # the rule is e_0 e_0, and the quick suite draws its row a_u = 0
        import mfblocks.verify as V
        P, theta = desk(3, 5, 2)
        true = V._label_index
        monkeypatch.setattr(V, "_label_index", lambda P_, psi, m: true(
            P_, (psi + 1) % P_.p, m))
        e0 = label_to_dict(qa_labels(P, 1)[0])
        for row in _embed_rows(P, theta):
            assert row.witness == {"side": 1, "u": e0, "v": e0}

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_a_bent_label_rule_names_the_first_dense_mismatch(
            self, monkeypatch, cfg):
        # the witness is the first pair, in (a_u, u, v) order over the
        # arrow rows the suite checks, where the gather route and the
        # bent rule's dense want differ
        import mfblocks.verify as V
        P, theta = desk(*cfg)
        _bent_no_carry(monkeypatch)
        checked, true = [], V._embed_products

        def spy(P_, data, delta, rows):
            checked.append(rows)
            return true(P_, data, delta, rows)
        monkeypatch.setattr(V, "_embed_products", spy)
        got = _embed_rows(P, theta)
        assert len(checked[1]) == P.dsz > len(checked[0])
        data = V._embed_side_data(P, 1)
        E = embed_columns(P, np.arange(P.dsz * P.p))
        table, inv = side_mul_table(P), side_inv_index(P)
        n, a = P.dsz * P.p, data["slot"] // P.p
        labels = qa_labels(P, 1)
        for row, rows in zip(got, checked):
            for u in np.lexsort((np.arange(n), a)).tolist():
                if a[u] not in rows:
                    continue
                dense = gf_matmul(P.ctx, E[:, u][table[:, inv]], E)
                diff = np.flatnonzero(
                    (dense != _embed_want(P, data, u, np.arange(n))).any(
                        axis=0))
                if len(diff):
                    break
            assert row.witness == {"side": 1, "u": label_to_dict(labels[u]),
                                   "v": label_to_dict(labels[diff[0]])}


class TestDimensions:
    def test_recipe_block_counts_without_labels(self):
        # (2,19,9): 19 * 2^18 labels a side, counted from the digit
        # matrix; building them all took 47.5 s and 1.3 GB on 2 cores
        P = params_make(2, 19, 9)
        t0 = time.perf_counter()
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["dimensions"]).rows
        assert row.status == "pass"
        assert time.perf_counter() - t0 < 10.0

    def test_over_the_table_limit_skips(self):
        P = params_make(3, 23, 2)
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["dimensions"]).rows
        assert row.status == "skip"
        assert "table limit" in row.witness["reason"]


class TestBruteMf:
    def test_matches_the_loop_per_modulus(self):
        # the array sweep of frobenius_mf against one modulus at a time
        from mfblocks.verify import _brute_mf
        for ell in (2, 3, 5):
            rs = np.array([r for r in range(2, 3000) if math.gcd(ell, r) == 1])
            want = []
            for r in rs.tolist():
                x, m = ell % r, 1
                while x not in (1, r - 1):
                    x, m = x * ell % r, m + 1
                want.append(m)
            assert _brute_mf(ell, rs).tolist() == want
