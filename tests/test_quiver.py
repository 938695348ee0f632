"""Label arithmetic of the side algebras, checked against the group algebra."""

import random

import numpy as np
import pytest

from mfblocks.characters import char_idempotent, make_char
from mfblocks.groups import (
    conjugate, d_elem, d_pack, group_mul, h_elem, p_elem, params_make,
)
from mfblocks.groupalg import ga_add, ga_from_terms, ga_mul
from mfblocks.linalg import _rref, gf_rank
from mfblocks.quiver import (
    QuivLabel, label_make, label_phi, label_to_dict, qa_add, qa_basis,
    qa_embed, qa_isotypic, qa_labels, qa_mul, qa_zero,
)
from mfblocks.quiver import _embed_tables, embed_columns
from mfblocks.groups import GroupElem, pack_key
from mfblocks.field import root_of_unity
from reference import (
    char_conjugate, char_eval, d_unpack, f_add, ga_conjugate, qa_degree,
    qa_embed_terms, qa_L_action, qa_scale, qa_unit, qa_vertex,
)


def arrow(P, side, psi, s):
    """The single arrow s_{psi,phi_s} as a one-term element."""
    m = [0] * (P.p - 1)
    m[s - 1] = 1
    return qa_basis(P, label_make(P, side, psi, m))


def random_label(P, side, rng):
    return label_make(P, side, rng.randrange(P.p),
                      d_unpack(P, rng.randrange(P.dsz))[1:])


def random_qa(P, side, rng, nterms):
    u = qa_zero(side)
    for _ in range(nterms):
        c = rng.randrange(1, P.ctx.order)
        u = qa_add(P, u, qa_basis(P, random_label(P, side, rng), c))
    return u


def sparse_qa(P, side, rng, nterms):
    """Random terms of at most two arrows, so that products survive."""
    u = qa_zero(side)
    for _ in range(nterms):
        m = [0] * (P.p - 1)
        for _ in range(rng.randrange(3)):
            s = rng.randrange(P.p - 1)
            m[s] = min(m[s] + 1, P.ell - 1)
        lab = label_make(P, side, rng.randrange(P.p), m)
        u = qa_add(P, u, qa_basis(P, lab, rng.randrange(1, P.ctx.order)))
    return u


def dict_mul(P, u, v):
    """The label rule as a loop over term pairs: the reference for the
    column product."""
    ctx, out = P.ctx, {}
    for lu, cu in u.terms.items():
        gate = (lu.psi + sum(s * t for s, t in enumerate(lu.m, 1))) % P.p
        for lv, cv in v.terms.items():
            m = tuple(a + b for a, b in zip(lu.m, lv.m))
            if lv.psi == gate and max(m) < P.ell:
                lab = QuivLabel(u.side, lu.psi, m)
                out[lab] = f_add(ctx, out.get(lab, 0), ctx.mul(cu, cv))
    return {lab: c for lab, c in out.items() if c}


def dict_act(P, u, t):
    """Every label moved by the t-th power of the L generator, slot by
    slot: exponents scale by g0^-t."""
    g = P._g0pow[-t % P.r]
    out = {}
    for lab, c in u.terms.items():
        m = [0] * (P.p - 1)
        for s in range(1, P.p):
            m[s * g % P.p - 1] = lab.m[s - 1]
        out[QuivLabel(u.side, lab.psi * g % P.p, tuple(m))] = c
    return out


class TestLabels:
    def test_count_is_group_order(self):
        P = params_make(2, 7, 3)
        labels = qa_labels(P, 1)
        assert len(labels) == P.p * P.ell ** (P.p - 1) == 448
        assert len(set(labels)) == 448
        Q = params_make(3, 5, 2)
        assert len(qa_labels(Q, 2)) == 5 * 81

    def test_radical_monomial_classes(self):
        # nonzero exponent patterns, one class per pattern
        P = params_make(2, 7, 3)
        classes = {lab.m for lab in qa_labels(P, 1) if sum(lab.m)}
        assert len(classes) == P.ell ** (P.p - 1) - 1

    def test_validation(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="side"):
            label_make(P, 3, 0, (0,) * 6)
        with pytest.raises(ValueError, match="slots"):
            label_make(P, 1, 0, (0,) * 5)
        with pytest.raises(ValueError, match="multiplicities"):
            label_make(P, 1, 0, (2,) + (0,) * 5)

    def test_phi(self):
        P = params_make(2, 7, 3)
        assert label_phi(P, (0,) * 6) == 0
        m = (1, 0, 1, 0, 0, 0)
        assert label_phi(P, m) == 4

    def test_phi_holds_no_int64_copy_of_the_arrows(self):
        # at (3,47,2) an int64 copy of the int8 (4879681, 46) arrow
        # matrix of the head is 1.67 GiB: the traced peak of label_phi
        # stays within two of its int64 outputs, and it equals the int64
        # product on a matrix and on one row
        import tracemalloc
        P = params_make(3, 47, 2)
        m = np.random.default_rng(47).integers(0, 3, size=(100000, 46),
                                               dtype=np.int8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            phi = label_phi(P, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.dtype == np.int64 and peak <= 2 * phi.nbytes
        want = m.astype(np.int64) @ np.arange(1, 47) % 47
        assert np.array_equal(phi, want)
        assert label_phi(P, m[7]) == want[7]


class TestMul:
    def test_vertex_idempotents(self):
        P = params_make(2, 7, 3)
        for psi in range(7):
            e = qa_vertex(P, 1, psi)
            assert qa_mul(P, e, e) == e
            for other in range(7):
                if other != psi:
                    assert qa_mul(P, e, qa_vertex(P, 1, other)) == qa_zero(1)

    def test_arrow_square_dies(self):
        # ell = 2: the same arrow twice overflows the multiplicity cap
        P = params_make(2, 7, 3)
        s = arrow(P, 1, 0, 1)
        t = arrow(P, 1, 1, 1)
        assert qa_mul(P, s, t) == qa_zero(1)

    def test_commutation_normal_form(self):
        P = params_make(2, 7, 3)
        lhs = qa_mul(P, arrow(P, 1, 0, 1), arrow(P, 1, 1, 2))
        rhs = qa_mul(P, arrow(P, 1, 0, 2), arrow(P, 1, 2, 1))
        assert lhs == rhs
        (lab,) = lhs.terms
        assert lab.psi == 0 and lab.m == (1, 1, 0, 0, 0, 0)

    def test_vertex_gate(self):
        # product survives only through the matching vertex
        P = params_make(2, 7, 3)
        s = arrow(P, 1, 0, 1)
        assert qa_mul(P, s, arrow(P, 1, 2, 3)) == qa_zero(1)
        assert qa_mul(P, s, arrow(P, 1, 1, 3)) != qa_zero(1)

    def test_unit(self):
        P = params_make(3, 5, 2)
        one = qa_unit(P, 1)
        rng = random.Random(0)
        u = random_qa(P, 1, rng, 6)
        assert qa_mul(P, one, u) == u
        assert qa_mul(P, u, one) == u

    def test_side_mismatch(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="side"):
            qa_mul(P, qa_vertex(P, 1, 0), qa_vertex(P, 2, 0))

    def test_associative(self):
        P = params_make(3, 5, 2)
        rng = random.Random(1)
        for _ in range(10):
            u, v, w = (random_qa(P, 1, rng, 3) for _ in range(3))
            assert qa_mul(P, qa_mul(P, u, v), w) == \
                qa_mul(P, u, qa_mul(P, v, w))

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2)])
    def test_matches_the_dict_loop(self, ell, p, r):
        P = params_make(ell, p, r)
        rng = random.Random(10 * ell + p)
        # two term pairs land on one label (0, s_1 + s_q), and cancel
        # at ell = 2
        q = p - 1
        u = qa_add(P, arrow(P, 1, 0, 1), arrow(P, 1, 0, q))
        v = qa_add(P, arrow(P, 1, 1, q), arrow(P, 1, q, 1))
        pairs = [(u, v)] + [
            (sparse_qa(P, side, rng, rng.randrange(1, 9)),
             sparse_qa(P, side, rng, rng.randrange(1, 9)))
            for side in [rng.choice((1, 2)) for _ in range(60)]]
        survived = 0
        for u, v in pairs:
            got = qa_mul(P, u, v)
            assert dict(got.terms) == dict_mul(P, u, v)
            keys = [(lab.psi, lab.m) for lab in got.terms]
            assert keys == sorted(keys)
            survived += len(got.terms)
        assert survived > 40


class TestDegree:
    def test_values(self):
        P = params_make(2, 7, 3)
        assert qa_degree(qa_vertex(P, 1, 3)) == 0
        assert qa_degree(arrow(P, 1, 0, 2)) == 1
        full = label_make(P, 1, 0, (1,) * 6)
        assert qa_degree(qa_basis(P, full)) == (P.ell - 1) * (P.p - 1)

    def test_top_degree_annihilates(self):
        P = params_make(2, 7, 3)
        top = qa_basis(P, label_make(P, 1, 0, (1,) * 6))
        for s in range(1, 7):
            gate = label_phi(P, (1,) * 6)
            assert qa_mul(P, top, arrow(P, 1, gate, s)) == qa_zero(1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            qa_degree(qa_zero(1))

    def test_min_over_support(self):
        P = params_make(2, 7, 3)
        u = qa_add(P, qa_vertex(P, 1, 2), arrow(P, 1, 0, 1))
        assert qa_degree(u) == 0


class TestEmbed:
    def test_vertex_is_character_idempotent(self):
        P = params_make(2, 7, 3)
        for side in (1, 2):
            for psi in range(7):
                got = qa_embed(P, qa_vertex(P, side, psi))
                want = char_idempotent(P, make_char(P, f"P{side}", psi))
                assert got == want

    def test_arrow_sum_formula(self):
        # vertex-summed arrow embeds as sum_g phi(g^-1) d^g
        P = params_make(2, 7, 3)
        for side in (1, 2):
            for s in (1, 4):
                total = qa_zero(side)
                for psi in range(7):
                    m = [0] * 6
                    m[s - 1] = 1
                    total = qa_add(
                        P, total, qa_basis(P, label_make(P, side, psi, m)))
                d1 = d_elem(P, side, 0)
                terms = []
                for g in range(7):
                    dg = conjugate(P, d1, p_elem(P, side, g))
                    terms.append((dg, P.ctx.pow(root_of_unity(P.ctx, 7),
                                                (-s * g) % 7)))
                want = ga_from_terms(P, terms)
                assert qa_embed(P, total) == want
                aug = 0
                for c in want.coeffs:
                    aug = f_add(P.ctx, aug, int(c))
                assert aug == 0

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2)])
    def test_homomorphism_random_pairs(self, ell, p, r):
        P = params_make(ell, p, r)
        rng = random.Random(p)
        for _ in range(200):
            side = rng.choice((1, 2))
            u = qa_basis(P, random_label(P, side, rng),
                         rng.randrange(1, P.ctx.order))
            v = qa_basis(P, random_label(P, side, rng),
                         rng.randrange(1, P.ctx.order))
            assert qa_embed(P, qa_mul(P, u, v)) == \
                ga_mul(P, qa_embed(P, u), qa_embed(P, v))

    def test_linear(self):
        P = params_make(2, 7, 3)
        rng = random.Random(2)
        u = random_qa(P, 1, rng, 5)
        v = random_qa(P, 1, rng, 5)
        assert qa_embed(P, qa_add(P, u, v)) == \
            ga_add(P, qa_embed(P, u), qa_embed(P, v))
        c = rng.randrange(2, P.ctx.order)
        from reference import ga_scale
        assert qa_embed(P, qa_scale(P, c, u)) == \
            ga_scale(P, c, qa_embed(P, u))

    def test_refused_when_large(self):
        P = params_make(2, 11, 5)
        with pytest.raises(ValueError, match="too large"):
            qa_embed(P, qa_vertex(P, 1, 0))


class TestEmbedColumns:
    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2)])
    def test_columns_are_the_per_label_embeddings(self, ell, p, r):
        P = params_make(ell, p, r)
        n = P.dsz * P.p
        E = embed_columns(P, np.arange(n))
        for side in (1, 2):
            keys = _embed_tables(P)["gkeys"][side - 1].ravel()
            for j, lab in enumerate(qa_labels(P, side)):
                img = qa_embed_terms(P, qa_basis(P, lab))
                col = np.zeros(n, dtype=np.int64)
                col[np.searchsorted(keys, img.keys)] = img.coeffs
                assert np.array_equal(E[:, j], col), lab

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2)])
    def test_fourier_factors_are_the_scalar_sums(self, ell, p, r):
        # F[y, xi] = p^-1 zeta_p^(-xi y) and Finv[xi, y] = zeta_p^(xi y)
        P = params_make(ell, p, r)
        ctx, tabs = P.ctx, _embed_tables(P)
        pinv, zeta_p = ctx.inv(ctx.from_int(p)), root_of_unity(ctx, p)
        for y in range(p):
            for xi in range(p):
                assert tabs["F"][y, xi] == ctx.mul(
                    pinv, ctx.pow(zeta_p, -xi * y % p))
                assert tabs["Finv"][xi, y] == ctx.pow(zeta_p, xi * y % p)

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2)])
    def test_side_keys_follow_pack_key(self, ell, p, r):
        P = params_make(ell, p, r)
        gkeys = _embed_tables(P)["gkeys"]
        z = (0,) * P.p
        for d in range(P.dsz):
            v = d_unpack(P, d)
            for y in range(P.p):
                assert gkeys[0, d, y] == pack_key(
                    P, GroupElem(v, y, z, 0, 0, 0, 0))
                assert gkeys[1, d, y] == pack_key(
                    P, GroupElem(z, 0, v, y, 0, 0, 0))


class TestLAction:
    def test_identity_fixes(self):
        P = params_make(2, 7, 3)
        rng = random.Random(4)
        u = random_qa(P, 1, rng, 5)
        assert qa_L_action(P, u, h_elem(P)) == u

    def test_vertex_matches_character_conjugation(self):
        P = params_make(2, 7, 3)
        g1 = h_elem(P, 1, 0, 0)
        for psi in range(7):
            got = qa_L_action(P, qa_vertex(P, 1, psi), g1)
            chi = char_conjugate(P, make_char(P, "P1", psi), g1)
            assert got == qa_vertex(P, 1, chi.e)

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2)])
    def test_embed_equivariant(self, ell, p, r):
        P = params_make(ell, p, r)
        rng = random.Random(5)
        for side in (1, 2):
            for t in range(r):
                w = h_elem(P, t, 0, 0) if side == 1 else h_elem(P, 0, t, 0)
                u = random_qa(P, side, rng, 4)
                assert qa_embed(P, qa_L_action(P, u, w)) == \
                    ga_conjugate(P, qa_embed(P, u), w)

    def test_is_action_by_automorphisms(self):
        P = params_make(2, 7, 3)
        rng = random.Random(6)
        w1, w2 = h_elem(P, 1, 0, 0), h_elem(P, 2, 0, 0)
        u = random_qa(P, 1, rng, 4)
        v = random_qa(P, 1, rng, 4)
        assert qa_L_action(P, qa_L_action(P, u, w1), w2) == \
            qa_L_action(P, u, group_mul(P, w1, w2))
        assert qa_L_action(P, qa_mul(P, u, v), w1) == \
            qa_mul(P, qa_L_action(P, u, w1), qa_L_action(P, v, w1))

    def test_rejects_outside_L(self):
        P = params_make(2, 7, 3)
        u = qa_vertex(P, 1, 0)
        with pytest.raises(ValueError, match="L1"):
            qa_L_action(P, u, h_elem(P, 0, 1, 0))
        with pytest.raises(ValueError, match="L1"):
            qa_L_action(P, u, p_elem(P, 1, 1))
        v = qa_vertex(P, 2, 0)
        with pytest.raises(ValueError, match="L2"):
            qa_L_action(P, v, h_elem(P, 1, 0, 0))


class TestIsotypic:
    def test_trivial_vertex_is_invariant(self):
        P = params_make(2, 7, 3)
        e1 = qa_vertex(P, 1, 0)
        assert qa_isotypic(P, e1, make_char(P, "L1", 0)) == e1
        assert qa_isotypic(P, e1, make_char(P, "L1", 1)) == qa_zero(1)

    def test_nontrivial_vertex_orbit_average(self):
        P = params_make(2, 7, 3)
        rinv = P.ctx.inv(P.ctx.from_int(3))
        got = qa_isotypic(P, qa_vertex(P, 1, 1), make_char(P, "L1", 0))
        orbit = qa_zero(1)
        for t in range(3):
            psi = (1 * P._g0pow[t]) % 7
            orbit = qa_add(P, orbit, qa_vertex(P, 1, psi))
        assert got == qa_scale(P, rinv, orbit)

    def test_completeness(self):
        P = params_make(3, 5, 2)
        rng = random.Random(7)
        for side in (1, 2):
            u = random_qa(P, side, rng, 6)
            total = qa_zero(side)
            for e in range(P.r):
                total = qa_add(
                    P, total, qa_isotypic(P, u, make_char(P, f"L{side}", e)))
            assert total == u

    def test_eigen_property(self):
        P = params_make(2, 7, 3)
        rng = random.Random(8)
        u = random_qa(P, 1, rng, 6)
        g = h_elem(P, 1, 0, 0)
        for e in range(3):
            chi = make_char(P, "L1", e)
            proj = qa_isotypic(P, u, chi)
            moved = qa_L_action(P, proj, g)
            assert moved == qa_scale(P, char_eval(P, chi, g), proj)

    def test_wrong_group_rejected(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="L1"):
            qa_isotypic(P, qa_vertex(P, 1, 0), make_char(P, "L2", 0))


class TestWideLabels:
    """At (2,73,3) ell^(p-1) = 2^72, so no label fits an int64 key."""

    def test_mul(self):
        P = params_make(2, 73, 3)
        full = label_make(P, 1, 5, (1,) * 72)  # gate 5 + 72*73/2 = 5
        high = (0,) * 70 + (1, 1)  # gate 71 + 72 = 70
        low = (1,) + (0,) * 71
        u = qa_add(P, qa_basis(P, label_make(P, 1, 0, high)),
                   qa_basis(P, full, 3))
        # (5, low) passes full's gate and dies by the carry in slot 1
        v = qa_add(P, qa_add(P, qa_basis(P, label_make(P, 1, 70, low)),
                             qa_basis(P, label_make(P, 1, 5, low))),
                   qa_vertex(P, 1, 5))
        got = qa_mul(P, u, v)
        want = {label_make(P, 1, 0, (1,) + (0,) * 69 + (1, 1)): 1, full: 3}
        assert dict(got.terms) == dict_mul(P, u, v) == want
        assert list(got.terms) == list(want)

    def test_L_action_and_isotypic(self):
        P = params_make(2, 73, 3)
        rng = random.Random(73)
        u = random_qa(P, 1, rng, 8)
        assert max(sum(lab.m) for lab in u.terms) > 0
        g = h_elem(P, 1, 0, 0)
        for t in range(P.r):
            got = qa_L_action(P, u, h_elem(P, t, 0, 0))
            assert dict(got.terms) == dict_act(P, u, t)
        total = qa_zero(1)
        for e in range(P.r):
            chi = make_char(P, "L1", e)
            proj = qa_isotypic(P, u, chi)
            assert qa_L_action(P, proj, g) == \
                qa_scale(P, char_eval(P, chi, g), proj)
            total = qa_add(P, total, proj)
        assert total == u


class TestRadicalFiltration:
    def test_degree_matches_augmentation_powers(self):
        """Degree >= k labels span exactly (aug kD)^k A for k <= 3."""
        P = params_make(2, 7, 3)
        ctx = P.ctx
        Dsz, p, r3 = P.dsz, P.p, P.r ** 3
        n, z = Dsz * p, (0,) * p

        def to_vec(x):
            vec = np.zeros(n, dtype=np.int64)
            flat = x.keys // (r3 * n)
            vec[flat] = x.coeffs
            return vec

        def aug_step(rows):
            """Products (d^g - 1) v over generators g and basis rows v."""
            out = []
            for g in range(p):
                dg = conjugate(P, d_elem(P, 1, 0), p_elem(P, 1, g))
                # d^g d(w) by the scalar group product, every packed w
                dw = [d_pack(P, group_mul(P, dg, GroupElem(
                    d_unpack(P, w), 0, z, 0, 0, 0, 0)).v1)
                    for w in range(Dsz)]
                perm = (np.array(dw)[:, None] * p
                        + np.arange(p)[None, :]).reshape(-1)
                for v in rows:
                    moved = np.zeros(n, dtype=np.int64)
                    moved[perm] = v
                    out.append(ctx.vadd(moved, ctx.vneg(v)))
            return np.array(out, dtype=np.int64)

        def basis_rows(mat):
            R, pivots = _rref(ctx, mat)
            return R[: len(pivots)]

        level = np.eye(n, dtype=np.int64)
        for k in (1, 2, 3):
            level = basis_rows(aug_step(level))
            span_k = np.array(
                [to_vec(qa_embed(P, qa_basis(P, lab)))
                 for lab in qa_labels(P, 1) if sum(lab.m) >= k],
                dtype=np.int64)
            ra = len(level)
            rb = gf_rank(ctx, span_k)
            rc = gf_rank(ctx, np.concatenate([level, span_k]))
            assert ra == rb == rc


class TestSerialization:
    def test_label_dict(self):
        P = params_make(2, 7, 3)
        lab = label_make(P, 2, 3, (1, 0, 1, 0, 0, 0))
        d = label_to_dict(lab)
        assert d == {"side": 2, "psi_exp": 3, "m": [1, 0, 1, 0, 0, 0]}
