"""CLI surface: JSON shapes, exit codes, config files, determinism."""

import json
import re

import pytest
from click.testing import CliRunner

from mfblocks.cli import main


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def parse_dot(text):
    """Vertex labels in order plus the dense multiplicity matrix."""
    names = re.findall(r'^\s*v(\d+) \[label="([^"]+)"\]', text, re.M)
    names = [n for _, n in sorted(names, key=lambda t: int(t[0]))]
    size = len(names)
    matrix = [[0] * size for _ in range(size)]
    for i, j, m in re.findall(r'v(\d+) -> v(\d+) \[label="(\d+)"\]', text):
        matrix[int(i)][int(j)] = int(m)
    return names, matrix


class TestMf:
    def test_recipe_mode(self):
        res = run("mf", "--ell", "2", "--n", "3")
        assert res.exit_code == 0
        assert json.loads(res.output) == {"ell": 2, "n": 3, "r": 9,
                                          "p": 19, "mf": 3}

    def test_direct_mode(self):
        res = run("mf", "--ell", "2", "--r", "7")
        assert res.exit_code == 0
        assert json.loads(res.output) == {"ell": 2, "r": 7, "mf": 3}

    def test_gcd_error(self):
        res = run("mf", "--ell", "2", "--r", "4")
        assert res.exit_code != 0
        assert "coprime" in res.output

    def test_non_prime_ell_error(self):
        # the message params_for_target gives, in both modes
        for ell in ("4", "1", "0", "-2"):
            for mode in (("--r", "7"), ("--n", "2")):
                res = run("mf", "--ell", ell, *mode)
                assert res.exit_code == 1
                assert res.output.splitlines() == [
                    f"Error: ell must be prime, got {ell}"]

    def test_mode_flags_are_exclusive(self):
        assert run("mf", "--ell", "2").exit_code != 0
        assert run("mf", "--ell", "2", "--n", "1", "--r", "3").exit_code != 0


class TestVerify:
    def test_quick_suite_streams_and_passes(self):
        res = run("verify", "--ell", "3", "--p", "5", "--r", "2",
                  "--suite", "quick")
        assert res.exit_code == 0
        rows = [json.loads(line) for line in res.output.splitlines()]
        assert len(rows) == 12
        for row in rows:
            assert row["params"] == {"ell": 3, "p": 5, "r": 2, "theta": 1}
            assert row["status"] == "pass"
            assert isinstance(row["ms"], float)

    def test_invalid_params_error(self):
        res = run("verify", "--ell", "2", "--p", "7", "--r", "2")
        assert res.exit_code != 0
        assert "coprime" in res.output

    def test_field_past_int64_error(self):
        # the label field F_{101^10} of (101,23,11) is refused up front
        res = run("verify", "--ell", "101", "--p", "23", "--r", "11")
        assert res.exit_code == 1
        assert "101^10" in res.output and "2^63" in res.output

    def test_group_algebra_past_int64_skips(self):
        # at (101,11,5) the labels compute over F_101 and only the group
        # algebra needs F_{101^10}: its checks skip and name d, and so do
        # idempotent_head and ext_quiver, which run only where it builds
        res = run("verify", "--ell", "101", "--p", "11", "--r", "5")
        assert res.exit_code == 0
        rows = [json.loads(line) for line in res.output.splitlines()]
        refused = {row["check"] for row in rows if "2^63" in
                   (row.get("witness") or {}).get("reason", "")}
        assert refused == {"embed_multiplicative", "corner_maps",
                           "product_gate", "idempotent_head", "ext_quiver",
                           "frobenius_mf", "isomorphisms"}
        assert all("101^10" in row["witness"]["reason"] and "d = 10" in
                   row["witness"]["reason"] for row in rows
                   if row["check"] in refused)
        assert {row["check"] for row in rows if row["status"] == "pass"} == {
            "group_relations", "simple_census", "pairing_recovery"}

    def test_non_faithful_theta_error(self):
        res = run("verify", "--ell", "2", "--p", "19", "--r", "9",
                  "--theta", "3")
        assert res.exit_code != 0
        assert "faithful" in res.output

    def test_failing_check_exits_nonzero(self, monkeypatch):
        import mfblocks.verify as V
        monkeypatch.setitem(
            V._CHECKS, "dimensions", lambda *a: {"defect": "forced"})
        res = run("verify", "--ell", "3", "--p", "5", "--r", "2")
        assert res.exit_code == 1
        rows = [json.loads(line) for line in res.output.splitlines()]
        row = next(r for r in rows if r["check"] == "dimensions")
        assert row["status"] == "fail"
        assert row["witness"] == {"defect": "forced"}


class TestQuiver:
    def test_formats_encode_the_same_matrix(self):
        dot = run("quiver", "--ell", "3", "--p", "5", "--r", "2")
        js = run("quiver", "--ell", "3", "--p", "5", "--r", "2",
                 "--out", "json")
        assert dot.exit_code == 0 and js.exit_code == 0
        names, matrix = parse_dot(dot.output)
        data = json.loads(js.output)
        assert data["vertices"] == names
        assert data["matrix"] == matrix
        assert len(names) == 13

    def test_deterministic(self):
        a = run("quiver", "--ell", "3", "--p", "5", "--r", "2")
        b = run("quiver", "--ell", "3", "--p", "5", "--r", "2")
        assert a.output == b.output

    def test_output_file(self, tmp_path):
        dest = tmp_path / "q.json"
        res = run("quiver", "--ell", "3", "--p", "5", "--r", "2",
                  "--out", "json", "--output", str(dest))
        assert res.exit_code == 0 and res.output == ""
        data = json.loads(dest.read_text())
        assert data["params"] == {"ell": 3, "p": 5, "r": 2, "theta": 1}


class TestRecover:
    def test_desk_sets(self):
        one = run("recover", "--ell", "2", "--p", "11", "--r", "5")
        two = run("recover", "--ell", "2", "--p", "11", "--r", "5",
                  "--theta", "2")
        assert one.exit_code == 0 and two.exit_code == 0
        d1, d2 = json.loads(one.output), json.loads(two.output)
        assert d1["recovered"] == [1, 4]
        assert d2["recovered"] == [2, 3]
        assert len(d1["pairing"]) == 25
        assert {e["value"] for e in d1["pairing"]} != \
            {1} and d1["pairing"] != d2["pairing"]

    def test_recipe_blocks_past_the_field_bound(self):
        # F_{ell^d} is refused at the mf 4 block (2,103,17), d = 408; the
        # labels compute over F_256 = F_2(zeta_17)
        res = run("recover", "--ell", "2", "--p", "103", "--r", "17",
                  "--theta", "3")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["recovered"] == [3, 14]
        assert len(doc["pairing"]) == 17 * 17
        assert max(e["value"] for e in doc["pairing"]) < 256

    @pytest.mark.slow
    def test_mf_five_recipe_block(self):
        # (2,67,33), d = 330: recover reads {5, 28} over F_{2^10}
        res = run("recover", "--ell", "2", "--p", "67", "--r", "33",
                  "--theta", "5")
        assert res.exit_code == 0
        assert json.loads(res.output)["recovered"] == [5, 28]

    def test_recover_builds_the_label_field_alone(self, monkeypatch):
        # recover at (2,19,9) computes over F_64 and never builds F_{2^18}
        import mfblocks.cli as C
        import mfblocks.groups as G
        calls, real = [], G.field_make
        monkeypatch.setattr(G, "field_make",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(C, "params_make", G.Params)
        res = run("recover", "--ell", "2", "--p", "19", "--r", "9",
                  "--theta", "2")
        assert json.loads(res.output)["recovered"] == [2, 7]
        assert calls == [(2, 6)]

    def test_non_faithful_theta_error(self):
        res = run("recover", "--ell", "2", "--p", "7", "--r", "3",
                  "--theta", "3")
        assert res.exit_code != 0
        assert "faithful" in res.output


class TestConfig:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=3\np=5\nr=2\n# a comment\ntheta=1\nout=json\n")
        res = run("quiver", "--config", str(cfg))
        assert res.exit_code == 0
        assert json.loads(res.output)["params"]["p"] == 5

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=2\nr=7\n")
        res = run("mf", "--config", str(cfg), "--r", "9")
        assert json.loads(res.output) == {"ell": 2, "r": 9, "mf": 3}

    def test_recipe_flag_beats_config_r(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=2\np=7\nr=3\n")
        res = run("mf", "--config", str(cfg), "--n", "1")
        assert json.loads(res.output) == {"ell": 2, "n": 1, "r": 3,
                                          "p": 7, "mf": 1}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell 2\n")
        res = run("mf", "--config", str(cfg), "--r", "3")
        assert res.exit_code != 0
        assert "key=value" in res.output

    def test_missing_required_parameter(self):
        res = run("verify", "--ell", "2", "--p", "7")
        assert res.exit_code != 0
        assert "--r" in res.output
