"""Twisted tensor model of B_0, gated against group-algebra convolution."""

import itertools
import math
import random

import numpy as np
import pytest

from mfblocks.characters import (
    char_exponent, char_idempotent, h_element, make_char,
)
from mfblocks.field import root_of_unity
from mfblocks.groups import (
    Params, commutator, group_inv, h_elem, p_elem, params_make, root_powers,
)
from mfblocks.groupalg import (
    _theta_pow, block_idempotent, centralizes_block_H, ga_add, ga_basis,
    ga_from_terms, ga_mul, ga_zero,
)
from mfblocks.linalg import gf_matmul, gf_rank
from mfblocks.quiver import (
    label_make, qa_add, qa_basis, qa_embed, qa_isotypic, qa_mul, qa_zero,
)
from mfblocks.morita import commutation_pairing, recover_theta
from mfblocks.twisted import (
    b0_iota, b0_pi, b0_pi_inv, b0_pi_product, tt_add, tt_arrow, tt_eps,
    tt_batch, tt_cross, tt_from_terms, tt_is_zero, tt_loop_conjugates,
    tt_mul, tt_rows, tt_tilde, tt_to_json, tt_unit, tt_zero,
)
from mfblocks.twisted import _stage_b, _tt_consts
from mfblocks.twisted import (
    _iota_table, _route_cols, _route_elem, tt_from_columns,
)
from mfblocks.verify import _closed_route
from mfblocks.groupalg import (
    GAElem, _dedupe, block_fold, block_unfold, ga_sum,
)
from mfblocks.groups import d_digits, key_n, key_z, l_fourier
from mfblocks.linalg import gf_apply_axis
from mfblocks.quiver import (
    _act, _embed_tables, _label_cols, _label_index, label_phi, qa_labels,
)
import mfblocks.groupalg as galg
import mfblocks.twisted as twisted_mod
from reference import (
    f_add, ga_conjugate, ga_scale, qa_L_action, qa_vertex, random_ga,
    tt_over, tt_radical_degree, tt_scale,
)


def _corner_closed(P, theta, side):
    """verify's folded closed corner route of one side, unfolded, on
    side elements."""
    route = _closed_route(P, theta, side)
    return lambda a: block_unfold(P, theta, _route_elem(P, route, a))


def dense_pi_product(P, theta, x, y):
    """pi(x y) the long way: the honest product x y binned into the
    dense (Dsz p)^2 vector with its Z-parts as theta powers, then the
    full-tensor transform on every D-row."""
    tabs, ctx = _embed_tables(P), P.ctx
    xy = ga_mul(P, x, y)
    vals = ctx.vmul(xy.coeffs, _theta_pow(P, theta)[key_z(P, xy.keys)])
    T4 = ctx.bin_sum(key_n(P, xy.keys), (P.dsz * P.p) ** 2, vals).reshape(
        P.dsz, P.p, P.dsz, P.p)
    for M, axis in ((tabs["Finv"], 1), (tabs["Finv"], 3),
                    (tabs["Sinv"], 0), (tabs["Sinv"], 2)):
        T4 = gf_apply_axis(ctx, M, T4, axis)
    mk1, xi1, mk2, xi2 = np.nonzero(T4)
    m1, m2 = d_digits(P, mk1), d_digits(P, mk2)
    return tt_from_columns(P, theta, xi1 - label_phi(P, m1), m1,
                           xi2 - label_phi(P, m2), m2, T4[mk1, xi1, mk2, xi2],
                           ctx)


class Simple:
    """Bare (phi, psi) vertex-class holder for tt_eps."""

    def __init__(self, phi, psi):
        self.phi = phi
        self.psi = psi


def random_label(P, side, rng, max_deg):
    m = [0] * (P.p - 1)
    for _ in range(max_deg):
        s = rng.randrange(1, P.p)
        if m[s - 1] < P.ell - 1:
            m[s - 1] += 1
    return label_make(P, side, rng.randrange(P.p), m)


def random_tt(P, theta, rng, nterms=1, max_deg=1, ctx=None):
    """nterms random terms over ctx, by default the label field."""
    ctx = ctx or P.lctx
    items = [(random_label(P, 1, rng, max_deg),
              random_label(P, 2, rng, max_deg),
              rng.randrange(1, ctx.order)) for _ in range(nterms)]
    return tt_from_terms(P, theta, items, ctx)


def random_qa(P, side, rng, nterms, max_deg):
    u = qa_zero(side)
    for _ in range(nterms):
        c = rng.randrange(1, P.ctx.order)
        u = qa_add(P, u, qa_basis(P, random_label(P, side, rng, max_deg), c))
    return u


def vertex_label(P, side, e):
    return label_make(P, side, e, (0,) * (P.p - 1))


def arrow_tt(P, theta, side, psi, s):
    return tt_arrow(P, theta, side, make_char(P, f"P{side}", psi),
                    make_char(P, f"P{side}", s))


def all_eps(P, theta, ctx=None):
    reps = sorted({min((e * u) % P.p for u in P._g0pow)
                   for e in range(1, P.p)})
    labels = [Simple(0, 0)] + [Simple(e, 0) for e in range(1, P.p)]
    labels += [Simple(0, e) for e in range(1, P.p)]
    labels += [Simple(a, b) for a in reps for b in reps]
    return [tt_eps(P, theta, s, ctx) for s in labels]


class TestContext:
    def test_commutator_table_closed_form(self):
        # theta([h_{eta,2}, h_{chi,1}]) = zeta_r^{-e f / j} for theta_j
        for (ell, p, r), j in [((2, 7, 3), 1), ((2, 7, 3), 2),
                               ((3, 5, 2), 1), ((2, 11, 5), 3)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", j)
            jinv = pow(j, -1, r)
            for ctx in (P.lctx, P.ctx):
                c_tab = _tt_consts(P, ctx, theta)["c_tab"]
                for e in range(r):
                    for f in range(r):
                        assert int(c_tab[e, f]) == (-e * f * jinv) % r

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2), (2, 11, 5),
                                     (2, 19, 9)])
    def test_commutator_table_is_the_scalar_route(self, cfg):
        # c_tab from the h-elements' H-coordinates against the theta
        # exponents of the scalar commutators [h2[f], h1[e]], for every
        # faithful theta and over both fields; W is the table that the
        # scalar exponents give
        P = params_make(*cfg)
        for j in range(1, P.r):
            if math.gcd(j, P.r) != 1:
                continue
            theta = make_char(P, "Z", j)
            for ctx in (P.lctx, P.ctx):
                consts = _tt_consts(P, ctx, theta)
                want = np.array([[char_exponent(P, theta, commutator(P, g, h))
                                  for g in consts["h2"]]
                                 for h in consts["h1"]])
                assert np.array_equal(consts["c_tab"], want)
                D = l_fourier(P, ctx)
                W = gf_matmul(ctx, gf_matmul(
                    ctx, D.T, root_powers(P, ctx, P.r)[-want % P.r]), D)
                assert np.array_equal(consts["W"], W)

    def test_weight_table_closed_form(self):
        # W[t,t'] = r^{-1} zeta_r^{-j t t'}, the Fourier dual of c^{-1}
        for (ell, p, r), j in [((2, 7, 3), 1), ((3, 5, 2), 1),
                               ((2, 11, 5), 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", j)
            for ctx in (P.lctx, P.ctx):
                W = _tt_consts(P, ctx, theta)["W"]
                rinv, zeta = ctx.inv(ctx.from_int(r)), root_of_unity(ctx, r)
                for t in range(r):
                    for tq in range(r):
                        want = ctx.mul(rinv,
                                       ctx.pow(zeta, (-j * t * tq) % r))
                        assert int(W[t, tq]) == want

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2), (2, 11, 5)])
    def test_weight_table_is_the_scalar_sum(self, cfg):
        # W = D^T c_inv D against its defining r^4 scalar sum
        # W[t, t'] = r^-2 sum_{e,f} c_inv[e, f] zeta_r^-(e t + f t'),
        # c_inv the entrywise inverse of zeta_r^c_tab, over either field
        P = params_make(*cfg)
        r = P.r
        for ctx, j in itertools.product((P.lctx, P.ctx), range(1, r)):
            if np.gcd(j, r) != 1:
                continue
            rinv2 = ctx.inv(ctx.from_int(r * r))
            zeta = root_of_unity(ctx, r)
            tctx = _tt_consts(P, ctx, make_char(P, "Z", j))
            for t in range(r):
                for tq in range(r):
                    acc = 0
                    for e in range(r):
                        for f in range(r):
                            c = ctx.pow(zeta, int(tctx["c_tab"][e, f]))
                            acc = f_add(ctx, acc, ctx.mul(
                                ctx.inv(c),
                                ctx.pow(zeta, -(e * t + f * tq) % r)))
                    assert tctx["W"][t, tq] == ctx.mul(rinv2, acc)

    def test_weight_rows_sum_to_unit_indicator(self):
        # row sums delta_{t,0} make the full vertex sum a two-sided unit
        P = params_make(2, 7, 3)
        for ctx in (P.lctx, P.ctx):
            W = _tt_consts(P, ctx, make_char(P, "Z", 1))["W"]
            for t in range(P.r):
                acc = 0
                for tq in range(P.r):
                    acc = f_add(ctx, acc, int(W[t, tq]))
                assert acc == (ctx.one if t == 0 else 0)

    def test_theta_mismatch(self):
        P = params_make(2, 7, 3)
        t1 = tt_unit(P, make_char(P, "Z", 1))
        t2 = tt_unit(P, make_char(P, "Z", 2))
        with pytest.raises(ValueError, match="theta mismatch"):
            tt_mul(P, make_char(P, "Z", 1), t1, t2)
        with pytest.raises(ValueError, match="theta mismatch"):
            tt_add(P, t1, t2)

    def test_field_mismatch(self):
        # (2,7,3) computes labels over F_4 and kG over F_64; an element
        # of one field does not meet an element of the other
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        small = tt_unit(P, theta)
        big = tt_over(small, P.ctx)
        assert small.ctx.order == 4 and big.ctx.order == 64
        assert small != big
        for bad in (lambda: tt_mul(P, theta, small, big),
                    lambda: tt_add(P, big, small),
                    lambda: tt_batch(P, theta, [big, small]),
                    lambda: b0_pi_inv(P, theta, small)):
            with pytest.raises(ValueError, match="field mismatch"):
                bad()


class TestIota:
    def test_trivial_label_lands_on_projector(self):
        # e_1 has only a trivial isotypic part, so no h-element shows up
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            e_theta = block_idempotent(P, theta)
            for side in (1, 2):
                img = b0_iota(P, theta, qa_vertex(P, side, 0))
                want = ga_mul(P, ga_from_terms(
                    P, [(p_elem(P, side, y), P.ctx.inv(P.ctx.from_int(p)))
                        for y in range(p)]), e_theta)
                assert img == want

    def test_both_routes_agree_on_sample(self):
        # the library's h-element route against verify's closed route
        rng = random.Random(11)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for side in (1, 2):
                closed = _corner_closed(P, theta, side)
                for _ in range(6):
                    a = random_qa(P, side, rng, 2, 2)
                    assert b0_iota(P, theta, a) == closed(a)

    def test_closed_route_is_the_conjugate_average(self):
        # verify's one key map over the conjugators against r separate
        # conjugations summed one by one
        rng = random.Random(12)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for side in (1, 2):
                e_triv = char_idempotent(P, make_char(P, f"L{3 - side}", 0))
                closed = _corner_closed(P, theta, side)
                for _ in range(3):
                    a = random_qa(P, side, rng, 2, 2)
                    base = ga_mul(P, ga_mul(P, qa_embed(P, a), e_triv),
                                  block_idempotent(P, theta))
                    want = ga_zero()
                    for t in range(r):
                        g = h_elem(P, t, 0, 0) if side == 1 else \
                            h_elem(P, 0, t, 0)
                        want = ga_add(P, want, ga_conjugate(P, base, g))
                    assert closed(a) == want

    def test_homomorphism(self):
        rng = random.Random(5)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for side in (1, 2):
                for _ in range(8):
                    a = random_qa(P, side, rng, 2, 1)
                    b = random_qa(P, side, rng, 2, 1)
                    lhs = b0_iota(P, theta, qa_mul(P, a, b))
                    rhs = ga_mul(P, b0_iota(P, theta, a),
                                 b0_iota(P, theta, b))
                    assert lhs == rhs

    def test_images_centralize_block_H(self):
        rng = random.Random(3)
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 2)
        for side in (1, 2):
            for _ in range(4):
                img = b0_iota(P, theta, random_qa(P, side, rng, 2, 2))
                assert centralizes_block_H(P, theta, img)

    def test_unfaithful_theta_rejected(self):
        P = params_make(2, 19, 9)
        with pytest.raises(ValueError, match="faithful"):
            b0_iota(P, make_char(P, "Z", 3), qa_vertex(P, 1, 0))


def centralizes_by_products(P, theta, x):
    """The B_0 membership gate by seven group-algebra products:
    x e_theta = x, then x h = h x for the three generators of H."""
    e = block_idempotent(P, theta)
    if ga_mul(P, x, e) != x:
        raise ValueError("x does not lie in the block (x e_theta != x)")
    for h in (h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0), h_elem(P, 0, 0, 1)):
        hb = ga_basis(P, h)
        if ga_mul(P, x, hb) != ga_mul(P, hb, x):
            return False
    return True


class TestMembershipGate:
    """centralizes_block_H's key maps against the product definition."""

    @staticmethod
    def outcome(gate, P, theta, x):
        try:
            return gate(P, theta, x)
        except ValueError as err:
            return str(err)

    @pytest.mark.parametrize("ell,p,r,e", [(2, 7, 3, 1), (2, 7, 3, 2),
                                           (3, 5, 2, 1), (5, 3, 2, 1),
                                           (7, 3, 2, 1)])
    def test_matches_the_products(self, ell, p, r, e):
        rng = random.Random(f"gate:{ell}:{p}:{r}:{e}")
        P = params_make(ell, p, r)
        theta = make_char(P, "Z", e)
        block = block_idempotent(P, theta)
        members = [b0_iota(P, theta, random_qa(P, side, rng, 2, 1))
                   for side in (1, 2) for _ in range(3)]
        members += [b0_pi_inv(P, theta, random_tt(P, theta, rng, 2,
                                                  ctx=P.ctx))
                    for _ in range(3)]
        in_block = [ga_mul(P, random_ga(P, rng, 3), block)
                    for _ in range(4)]
        in_block += [ga_mul(P, ga_basis(P, h_elem(P, 1, 0, 0)), x)
                     for x in members[:2]]
        outside = [random_ga(P, rng, 3) for _ in range(3)]
        outside += [ga_add(P, members[0], ga_basis(P, h_elem(P, 0, 0, 0)))]
        kinds = {True: 0, False: 0, "raise": 0}
        for x in members + in_block + outside:
            want = self.outcome(centralizes_by_products, P, theta, x)
            assert self.outcome(centralizes_block_H, P, theta, x) == want
            kinds[want if isinstance(want, bool) else "raise"] += 1
        assert kinds[True] >= len(members) and kinds[False] >= 2
        assert kinds["raise"] == len(outside)


class TestPi:
    def test_unit(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            e_theta = block_idempotent(P, theta)
            one = tt_over(tt_unit(P, theta), P.ctx)
            assert b0_pi(P, theta, e_theta) == one
            assert b0_pi_inv(P, theta, one) == e_theta

    def test_product_folds_match_the_unfolded_collapse(self):
        # folding Z and the right factor's b before convolving leaves
        # the collapse of x y unchanged, also for x, y outside B_0
        rng = random.Random(29)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            for e in range(1, r):
                theta = make_char(P, "Z", e)
                for _ in range(3):
                    x, y = random_ga(P, rng, 30), random_ga(P, rng, 30)
                    f = block_fold(P, theta, ga_mul(P, x, y))
                    want = _stage_b(P, theta, _dedupe(
                        P, key_n(P, f.keys), f.coeffs))
                    assert not tt_is_zero(want)
                    assert b0_pi_product(P, theta, x, y) == want

    def test_pi_of_iota_product_is_pure_tensor(self):
        rng = random.Random(23)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            ctx = P.ctx
            for _ in range(5):
                a = random_qa(P, 1, rng, 2, 1)
                b = random_qa(P, 2, rng, 2, 1)
                x = ga_mul(P, b0_iota(P, theta, a), b0_iota(P, theta, b))
                want = tt_from_terms(
                    P, theta,
                    [(u, v, ctx.mul(cu, cv)) for u, cu in a.terms.items()
                     for v, cv in b.terms.items()], ctx)
                assert b0_pi(P, theta, x) == want

    def test_round_trip(self):
        rng = random.Random(29)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for _ in range(4):
                t = random_tt(P, theta, rng, nterms=2, max_deg=1, ctx=P.ctx)
                assert b0_pi(P, theta, b0_pi_inv(P, theta, t)) == t

    def test_rejects_non_members(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        e_theta = block_idempotent(P, theta)
        with pytest.raises(ValueError, match="block"):
            b0_pi(P, theta, ga_basis(P, h_elem(P, 1, 0, 0)))
        bad = ga_mul(P, ga_basis(P, h_elem(P, 1, 0, 0)), e_theta)
        with pytest.raises(ValueError, match="B_0"):
            b0_pi(P, theta, bad)

    def test_eps_as_group_algebra_element(self):
        # epsilon_(phi,1) = iota_1(e_phi) iota_2(e_1), via the pi routes
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        x = ga_mul(P, b0_iota(P, theta, qa_vertex(P, 1, 3)),
                   b0_iota(P, theta, qa_vertex(P, 2, 0)))
        eps = tt_eps(P, theta, Simple(3, 0), P.ctx)
        assert b0_pi(P, theta, x) == eps
        assert b0_pi_inv(P, theta, eps) == x


class TestTTMul:
    def test_unit_law(self):
        rng = random.Random(31)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for ctx in (P.lctx, P.ctx):
                one = tt_over(tt_unit(P, theta), ctx)
                for _ in range(4):
                    t = random_tt(P, theta, rng, nterms=2, max_deg=2, ctx=ctx)
                    assert tt_mul(P, theta, one, t) == t
                    assert tt_mul(P, theta, t, one) == t

    def test_matches_group_convolution(self):
        # the gate: label-level twisted product vs honest group product
        rng = random.Random(37)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            degs = [((0, 0), (0, 0))] * 4 + [((1, 0), (0, 0)),
                                             ((0, 0), (0, 1))]
            for d1, d2 in degs:
                t1 = tt_from_terms(
                    P, theta, [(random_label(P, 1, rng, d1[0]),
                                random_label(P, 2, rng, d1[1]),
                                rng.randrange(1, P.ctx.order))], P.ctx)
                t2 = tt_from_terms(
                    P, theta, [(random_label(P, 1, rng, d2[0]),
                                random_label(P, 2, rng, d2[1]),
                                rng.randrange(1, P.ctx.order))], P.ctx)
                gate = b0_pi_product(P, theta, b0_pi_inv(P, theta, t1),
                                     b0_pi_inv(P, theta, t2))
                assert tt_mul(P, theta, t1, t2) == gate

    def test_associative(self):
        rng = random.Random(41)
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for ctx in (P.lctx, P.ctx) * 3:
            a = random_tt(P, theta, rng, nterms=2, max_deg=2, ctx=ctx)
            b = random_tt(P, theta, rng, nterms=2, max_deg=1, ctx=ctx)
            c = random_tt(P, theta, rng, nterms=2, max_deg=2, ctx=ctx)
            lhs = tt_mul(P, theta, tt_mul(P, theta, a, b), c)
            rhs = tt_mul(P, theta, a, tt_mul(P, theta, b, c))
            assert lhs == rhs

    def test_homogeneous_commutation(self):
        # iota_1(a) iota_2(b) = theta([h_eta, h_chi]) iota_2(b) iota_1(a)
        rng = random.Random(43)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            c_tab = _tt_consts(P, P.ctx, theta)["c_tab"]
            zr = root_powers(P, P.ctx, r)
            for e in range(r):
                for f in range(r):
                    a = qa_isotypic(P, random_qa(P, 1, rng, 2, 1),
                                    make_char(P, "L1", e))
                    b = qa_isotypic(P, random_qa(P, 2, rng, 2, 1),
                                    make_char(P, "L2", f))
                    ia = b0_iota(P, theta, a)
                    ib = b0_iota(P, theta, b)
                    lhs = ga_mul(P, ia, ib)
                    rhs = ga_scale(P, int(zr[c_tab[e, f]]),
                                   ga_mul(P, ib, ia))
                    assert lhs == rhs

    def test_corner_identity(self):
        # pi intertwines sandwiching by iota-pairs with the tt product;
        # run only at the small configuration, the group route is heavy
        rng = random.Random(47)
        for ell, p, r in [(3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for _ in range(4):
                a1 = qa_isotypic(P, random_qa(P, 1, rng, 1, 1),
                                 make_char(P, "L1", rng.randrange(r)))
                b1 = qa_isotypic(P, random_qa(P, 2, rng, 1, 0),
                                 make_char(P, "L2", rng.randrange(r)))
                a2 = qa_isotypic(P, random_qa(P, 1, rng, 1, 0),
                                 make_char(P, "L1", rng.randrange(r)))
                b2 = qa_isotypic(P, random_qa(P, 2, rng, 1, 1),
                                 make_char(P, "L2", rng.randrange(r)))
                if any(not x.terms for x in (a1, b1, a2, b2)):
                    continue
                w = random_tt(P, theta, rng, nterms=1, max_deg=1, ctx=P.ctx)
                left = ga_mul(P, b0_iota(P, theta, a1),
                              b0_iota(P, theta, b1))
                right = ga_mul(P, b0_iota(P, theta, a2),
                               b0_iota(P, theta, b2))
                mid = ga_mul(P, ga_mul(P, left, b0_pi_inv(P, theta, w)),
                             right)
                tt = tt_mul(P, theta, tt_mul(P, theta,
                                             b0_pi(P, theta, left), w),
                            b0_pi(P, theta, right))
                assert b0_pi(P, theta, mid) == tt


class TestColumns:
    def test_terms_view_round_trip(self):
        rng = random.Random(61)
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 19, 9)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            elems = [random_tt(P, theta, rng, nterms=rng.randrange(1, 7),
                               max_deg=rng.randrange(3)) for _ in range(6)]
            elems.append(tt_unit(P, theta))
            elems.append(tt_tilde(P, theta, 2, make_char(P, "P2", 1),
                                  make_char(P, "L2", 1)))
            for t in elems:
                items = [(u, v, c) for (u, v), c in t.terms.items()]
                assert tt_from_terms(P, theta, items) == t

    def test_terms_view_is_read_only(self):
        P = params_make(2, 7, 3)
        t = tt_unit(P, make_char(P, "Z", 1))
        key = next(iter(t.terms))
        with pytest.raises(TypeError):
            t.terms[key] = 0

    def test_batched_sandwich_rows_match_single_products(self):
        # row i of eps_a (batch of the terms w_i of span) eps_b is
        # eps_a (w_i eps_b) computed one at a time, over F_{ell^d}
        rng = random.Random(67)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            eps = all_eps(P, theta, P.ctx)
            hits = 0
            for _ in range(6):
                span = random_tt(P, theta, rng, nterms=40, max_deg=1,
                                 ctx=P.ctx)
                ea, eb = rng.choice(eps), rng.choice(eps)
                ws = [tt_from_terms(P, theta, [(u, v, c)], P.ctx)
                      for (u, v), c in span.terms.items()]
                images = [tt_mul(P, theta, ea, tt_mul(P, theta, w, eb))
                          for w in ws]
                got = tt_mul(P, theta, ea, tt_mul(
                    P, theta, tt_rows(span), eb))
                assert got == tt_batch(P, theta, images)
                hits += sum(not tt_is_zero(img) for img in images)
            assert hits > 0

    def test_labels_are_not_capped_by_int64(self):
        # ell^(p-1) = 2^72 at (2,73,3)
        P = params_make(2, 73, 3)
        pairing = commutation_pairing(P, make_char(P, "Z", 1))
        assert recover_theta(pairing, P) == {1, 2}


def random_rows(P, theta, rng, n):
    """n (left, right) row pairs of mixed shapes: empty rows, rows whose
    product is 0, one-term rows and rows of up to 30 terms."""
    eps = all_eps(P, theta)
    rows = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            left = tt_zero(theta, P.lctx)
            right = random_tt(P, theta, rng, 3, 1)
        elif kind == 1:
            # two different orthogonal idempotents
            a, b = rng.sample(range(len(eps)), 2)
            left, right = eps[a], eps[b]
        elif kind == 2:
            left = random_tt(P, theta, rng, 1, 1)
            right = random_tt(P, theta, rng, 30, 2)
        else:
            left = random_tt(P, theta, rng, rng.randrange(1, 30), 2)
            right = random_tt(P, theta, rng, rng.randrange(1, 4), 1)
        rows.append((left, right))
    return rows


class TestBatches:
    CFGS = [(2, 7, 3), (3, 5, 2), (2, 11, 5)]

    @pytest.mark.parametrize("cfg", CFGS)
    def test_batch_rows_equal_single_products(self, cfg):
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        rng = random.Random(sum(cfg))
        rows = random_rows(P, theta, rng, 20)
        lefts, rights = zip(*rows)
        got = tt_mul(P, theta, tt_batch(P, theta, lefts),
                     tt_batch(P, theta, rights))
        want = [tt_mul(P, theta, a, b) for a, b in rows]
        assert got == tt_batch(P, theta, want)
        assert any(tt_is_zero(w) for w in want)
        assert sum(not tt_is_zero(w) for w in want) >= 8
        # an element without rows meets every row, on either side
        one = random_tt(P, theta, rng, 6, 1)
        assert tt_mul(P, theta, one, tt_batch(P, theta, rights)) == \
            tt_batch(P, theta, [tt_mul(P, theta, one, b) for b in rights])
        assert tt_mul(P, theta, tt_batch(P, theta, lefts), one) == \
            tt_batch(P, theta, [tt_mul(P, theta, a, one) for a in lefts])

    @pytest.mark.parametrize("cfg", CFGS)
    def test_terms_do_not_meet_across_rows(self, cfg):
        # e_a e_b = e_b e_a = 0 within each row, while e_a e_a and e_b e_b
        # across the rows are not
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        ea, eb = all_eps(P, theta)[1:3]
        assert not tt_is_zero(tt_mul(P, theta, ea, ea))
        got = tt_mul(P, theta, tt_batch(P, theta, [ea, eb]),
                     tt_batch(P, theta, [eb, ea]))
        assert tt_is_zero(got) and got.cols.rows is not None

    @pytest.mark.parametrize("cfg", CFGS)
    def test_trailing_zero_rows(self, cfg):
        # one batch ends in empty rows, so its largest row id is below
        # the other's: a row the other side lacks must stay zero, and no
        # term may meet a term of another row at another vertex
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        rng = random.Random(11 * sum(cfg))
        for _ in range(4):
            full = [random_tt(P, theta, rng, rng.randrange(5, 30), 2)
                    for _ in range(4)]
            short = [random_tt(P, theta, rng, rng.randrange(5, 30), 2)
                     if i == 0 else tt_zero(theta, P.lctx) for i in range(4)]
            for lefts, rights in ((full, short), (short, full)):
                got = tt_mul(P, theta, tt_batch(P, theta, lefts),
                             tt_batch(P, theta, rights))
                assert got == tt_batch(P, theta, [
                    tt_mul(P, theta, a, b) for a, b in zip(lefts, rights)])

    @pytest.mark.parametrize("cfg", CFGS)
    def test_cross_rows_are_every_pair(self, cfg):
        # row i n + j of the product holds lefts[i] rights[j], empty
        # rows on either side included
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        rng = random.Random(5 * sum(cfg))
        zero = tt_zero(theta, P.lctx)
        lefts = [random_tt(P, theta, rng, 8, 1), zero,
                 random_tt(P, theta, rng, 3, 2)]
        rights = [zero, random_tt(P, theta, rng, 5, 1),
                  random_tt(P, theta, rng, 12, 2), zero]
        n = len(rights)
        got = tt_mul(P, theta, *tt_cross(tt_batch(P, theta, lefts),
                                         tt_batch(P, theta, rights), n))
        assert got == tt_batch(P, theta, [
            tt_mul(P, theta, a, b) for a in lefts for b in rights])
        with pytest.raises(ValueError):
            tt_cross(tt_batch(P, theta, lefts), tt_batch(P, theta, rights),
                     n - 2)

    @pytest.mark.parametrize("cfg", CFGS)
    def test_one_row_per_chunk_changes_nothing(self, cfg, monkeypatch):
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        rows = random_rows(P, theta, random.Random(7 * sum(cfg)), 15)
        left = tt_batch(P, theta, [a for a, _ in rows])
        right = tt_batch(P, theta, [b for _, b in rows])
        whole = tt_mul(P, theta, left, right)
        chunks = []
        real = twisted_mod._mul_chunk

        def chunk(P, ctx, W, a, b):
            chunks.append(np.unique(a.rows))
            return real(P, ctx, W, a, b)

        monkeypatch.setattr(twisted_mod, "_mul_chunk", chunk)
        monkeypatch.setattr(galg, "_LANES", 1)
        assert tt_mul(P, theta, left, right) == whole
        live = np.unique(whole.cols.rows)
        assert len(chunks) >= len(live)
        assert all(len(c) == 1 for c in chunks)

    def test_head_witness_follows_the_loop_order(self, monkeypatch):
        # two injected overlaps make four non-orthogonal pairs; the batch
        # must name the one the pairwise loop meets first
        import mfblocks.morita as M
        import mfblocks.verify as V
        from mfblocks.morita import simple_str, simples
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        labs = [s for s, _ in simples(P, theta)]
        eps = [tt_eps(P, theta, s) for s in labs]
        bent = list(eps)
        bent[9] = tt_add(P, eps[9], eps[4])
        bent[2] = tt_add(P, eps[2], eps[6])
        for s, e in zip(labs, bent):
            if tt_mul(P, theta, e, e) != e:
                want = {"label": simple_str(s), "defect": "not idempotent"}
                break
        else:
            want = next(
                {"labels": [simple_str(labs[i]), simple_str(labs[j])],
                 "defect": "not orthogonal"}
                for i, ei in enumerate(bent) for j, ej in enumerate(bent)
                if i != j and not tt_is_zero(tt_mul(P, theta, ei, ej)))
        monkeypatch.setattr(M, "tt_eps",
                            lambda P, theta, s, ctx=None: bent[labs.index(s)])
        row = V.run_checks(P, theta, names=["idempotent_head"]).rows[0]
        assert row.witness == want
        assert want["labels"] == [simple_str(labs[2]), simple_str(labs[6])]

    @pytest.mark.parametrize("suite", ["quick", "full"])
    def test_ext_witness_follows_the_loop_order(self, suite, monkeypatch):
        # bad entries late in the pair list and early in the loop order:
        # the batch must name the loop's first
        import mfblocks.verify as V
        from mfblocks.morita import ext_dim, simple_kind, simple_str, simples
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        labs = [s for s, _ in simples(P, theta)]
        left = [s for s in labs if simple_kind(s) == "left"]
        right = [s for s in labs if simple_kind(s) == "right"]
        bad = {(right[1], labs[0]), (left[1], left[0]), (left[0], right[1])}

        def bent(P, theta, pairs):
            return [g + (pair in bad)
                    for pair, g in zip(pairs, ext_dim(P, theta, pairs))]

        def loop():
            k = 2 if suite == "quick" else None
            for family in ([labs[0]] + left[:k], [labs[0]] + right[:k]):
                for a in family:
                    for b in family:
                        got = bent(P, theta, [(a, b)])[0]
                        if got != int(a != b):
                            return {"from": simple_str(a),
                                    "to": simple_str(b),
                                    "expected": int(a != b), "got": got}

        monkeypatch.setattr(V, "ext_dim", bent)
        row = V.run_checks(P, theta, suite=suite, names=["ext_quiver"]).rows[0]
        assert row.witness == loop()
        assert row.witness["from"] == simple_str(left[1])


class TestEps:
    def test_census(self):
        # 1 + (p-1) + (p-1) + ((p-1)/r)^2 distinct idempotents
        for (ell, p, r), count in [((2, 7, 3), 17), ((3, 5, 2), 13)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            eps = all_eps(P, theta)
            assert len(eps) == count == 2 * p - 1 + ((p - 1) // r) ** 2

    def test_case_shapes(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        one = P.lctx.one
        t = tt_eps(P, theta, Simple(0, 0))
        assert t.terms == {(vertex_label(P, 1, 0), vertex_label(P, 2, 0)):
                           one}
        t = tt_eps(P, theta, Simple(3, 0))
        assert t.terms == {(vertex_label(P, 1, 3), vertex_label(P, 2, 0)):
                           one}
        t = tt_eps(P, theta, Simple(0, 5))
        assert t.terms == {(vertex_label(P, 1, 0), vertex_label(P, 2, 5)):
                           one}
        # orbit of 1 under g0 = 2: {1, 2, 4}; of 3: {3, 5, 6}
        t = tt_eps(P, theta, Simple(1, 3))
        assert set(t.terms) == {(vertex_label(P, 1, a), vertex_label(P, 2, b))
                                for a in (1, 2, 4) for b in (3, 5, 6)}

    def test_orbit_representative_irrelevant(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert tt_eps(P, theta, Simple(1, 3)) == tt_eps(P, theta,
                                                        Simple(4, 6))

    def test_idempotent_orthogonal_complete(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            eps = all_eps(P, theta)
            total = zero = tt_zero(theta, P.lctx)
            for i, t in enumerate(eps):
                total = tt_add(P, total, t)
                for k, s in enumerate(eps):
                    prod = tt_mul(P, theta, t, s)
                    assert prod == (t if i == k else zero)
            assert total == tt_unit(P, theta)

    def test_invalid_label(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="invalid"):
            tt_eps(P, make_char(P, "Z", 1), Simple(7, 0))


class TestArrow:
    def test_sandwich_identity_all_arrows(self):
        # eps_(psi,1) S_(psi,phi) eps_(psi phi,1) = S_(psi,phi)
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for psi in range(7):
            for s in range(1, 7):
                S = arrow_tt(P, theta, 1, psi, s)
                lhs = tt_mul(P, theta, tt_eps(P, theta, Simple(psi, 0)), S)
                lhs = tt_mul(P, theta, lhs,
                             tt_eps(P, theta, Simple((psi + s) % 7, 0)))
                assert lhs == S

    def test_sandwich_identity_side_two(self):
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        T = arrow_tt(P, theta, 2, 2, 3)
        lhs = tt_mul(P, theta, tt_eps(P, theta, Simple(0, 2)), T)
        lhs = tt_mul(P, theta, lhs, tt_eps(P, theta, Simple(0, 0)))
        assert lhs == T

    def test_degree_one(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert tt_radical_degree(arrow_tt(P, theta, 1, 2, 4)) == 1
        assert tt_radical_degree(arrow_tt(P, theta, 2, 0, 1)) == 1

    def test_two_arrow_product_is_label_product(self):
        # side-1 arrows multiply with no twist: the other leg is fixed
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for psi, s1, s2 in [(0, 1, 2), (3, 2, 5), (5, 6, 4)]:
            lhs = tt_mul(P, theta, arrow_tt(P, theta, 1, psi, s1),
                         arrow_tt(P, theta, 1, (psi + s1) % 7, s2))
            m = [0] * 6
            m[s1 - 1] += 1
            m[s2 - 1] += 1
            want = tt_from_terms(
                P, theta,
                [(label_make(P, 1, psi, m), vertex_label(P, 2, 0),
                  P.lctx.one)])
            assert lhs == want

    def test_validation(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        with pytest.raises(ValueError, match="nontrivial"):
            tt_arrow(P, theta, 1, make_char(P, "P1", 2),
                     make_char(P, "P1", 0))
        with pytest.raises(ValueError, match="characters of P1"):
            tt_arrow(P, theta, 1, make_char(P, "P2", 2),
                     make_char(P, "P2", 1))


class TestTilde:
    def test_trivial_weight_is_orbit_sum(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        t = tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                     make_char(P, "L1", 0))
        # orbit of 1 is {1,2,4}; each loop label pairs s with -s
        want = {}
        for s in (1, 2, 4):
            m = [0] * 6
            m[s - 1] += 1
            m[7 - s - 1] += 1
            want[(label_make(P, 1, 0, m), vertex_label(P, 2, 0))] = 1
        assert t.terms == want

    def test_isotypic_purity(self):
        # the side-1 leg is chi-homogeneous for the weight character; a
        # fresh P runs the label model over F_{ell^d}, the side algebra's
        P = Params(2, 7, 3)
        P.lctx = P.ctx
        theta = make_char(P, "Z", 1)
        for e in range(3):
            chi = make_char(P, "L1", e)
            t = tt_tilde(P, theta, 1, make_char(P, "P1", 3), chi)
            leg = qa_zero(1)
            for (u, v), c in t.terms.items():
                leg = qa_add(P, leg, qa_basis(P, u, c))
            assert qa_isotypic(P, leg, chi) == leg

    def test_linearly_independent_mod_cube(self):
        # r = 3: the three weights give independent degree-2 elements
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        tildes = [tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                           make_char(P, "L1", e)) for e in range(3)]
        support = sorted({u for t in tildes for (u, v) in t.terms},
                         key=lambda lab: (lab.psi, lab.m))
        M = np.zeros((3, len(support)), dtype=np.int64)
        for i, t in enumerate(tildes):
            for (u, v), c in t.terms.items():
                M[i, support.index(u)] = c
        assert gf_rank(P.lctx, M) == 3

    def test_exact_commutation_scalar(self):
        # S~ T~ = theta([h_eta, h_chi]) T~ S~, exactly, not just mod J^5
        for ell, p, r in [(2, 7, 3), (2, 11, 5)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            c_tab = _tt_consts(P, P.lctx, theta)["c_tab"]
            zr = root_powers(P, P.lctx, r)
            for e, f in [(0, 0), (1, 1), (1, 2), (2, 1), (r - 1, r - 1)]:
                S = tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                             make_char(P, "L1", e))
                T = tt_tilde(P, theta, 2, make_char(P, "P2", 1),
                             make_char(P, "L2", f))
                lhs = tt_mul(P, theta, S, T)
                rhs = tt_scale(P, int(zr[c_tab[e, f]]),
                               tt_mul(P, theta, T, S))
                assert lhs == rhs
                assert not tt_is_zero(lhs)

    def test_commutation_scalar_tracks_theta(self):
        # the scalar depends on theta_j through j, not just on (e, f)
        P = params_make(2, 7, 3)
        for j in (1, 2):
            theta = make_char(P, "Z", j)
            c = _tt_consts(P, P.lctx, theta)["c_tab"][1, 2]
            e, f = 1, 2
            S = tt_tilde(P, theta, 1, make_char(P, "P1", 2),
                         make_char(P, "L1", e))
            T = tt_tilde(P, theta, 2, make_char(P, "P2", 3),
                         make_char(P, "L2", f))
            lhs = tt_mul(P, theta, S, T)
            rhs = tt_mul(P, theta, T, S)
            assert lhs == tt_scale(P, int(root_powers(P, P.lctx, 3)[c]), rhs)
            jinv = pow(j, -1, 3)
            assert int(c) == (-e * f * jinv) % 3

    def test_is_the_weighted_sum_of_the_loop_conjugates(self):
        # row t of the batch is the loop path with its step scaled by
        # g0^-t, coefficient one, and tt_tilde weighs it by zeta_r^(-e t);
        # at r = 4 the rows t and t + 2 hold the same label
        for ell, p, r in [(2, 7, 3), (3, 13, 4), (2, 19, 9)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            for side, s in [(1, 1), (2, 3)]:
                step = make_char(P, f"P{side}", s)
                batch = tt_loop_conjugates(P, theta, side, step)
                rows = {}
                for (t, u, v), c in batch.terms.items():
                    rows.setdefault(t, []).append((u, v, c))
                for t in range(r):
                    m = [0] * (p - 1)
                    for x in (s, -s):
                        m[x * P._g0pow[-t % r] % p - 1] += 1
                    loop = label_make(P, side, 0, m)
                    other = vertex_label(P, 3 - side, 0)
                    assert rows[t] == [(loop, other, 1) if side == 1
                                       else (other, loop, 1)]
                zeta = root_of_unity(P.lctx, r)
                for e in range(r):
                    want = tt_from_terms(P, theta, [
                        (u, v, P.lctx.pow(zeta, -e * t % r))
                        for t in range(r) for u, v, _ in rows[t]])
                    assert tt_tilde(P, theta, side, step,
                                    make_char(P, f"L{side}", e)) == want

    def test_degenerate_at_two_torsion(self):
        # r = 2: both loop paths carry the same label, so a nontrivial
        # weight cancels the pair
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        t = tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                     make_char(P, "L1", 1))
        assert tt_is_zero(t)

    def test_validation(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        with pytest.raises(ValueError, match="nontrivial"):
            tt_tilde(P, theta, 1, make_char(P, "P1", 0),
                     make_char(P, "L1", 1))
        with pytest.raises(ValueError, match="L1"):
            tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                     make_char(P, "L2", 1))


class TestRadical:
    def test_examples(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert tt_radical_degree(tt_eps(P, theta, Simple(2, 3))) == 0
        assert tt_radical_degree(arrow_tt(P, theta, 1, 0, 2)) == 1
        assert tt_radical_degree(
            tt_tilde(P, theta, 1, make_char(P, "P1", 1),
                     make_char(P, "L1", 1))) == 2
        with pytest.raises(ValueError, match="zero"):
            tt_radical_degree(tt_zero(theta, P.lctx))

    def test_length_two_loop_not_in_cube(self):
        # ell = 2: out-and-back along phi stops strictly short of J^3
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for s in (1, 3, 5):
            loop = tt_mul(P, theta, arrow_tt(P, theta, 1, 0, s),
                          arrow_tt(P, theta, 1, s, 7 - s))
            assert tt_radical_degree(loop) == 2

    def test_superadditive(self):
        rng = random.Random(53)
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        for _ in range(10):
            a = random_tt(P, theta, rng, nterms=2, max_deg=2)
            b = random_tt(P, theta, rng, nterms=2, max_deg=2)
            prod = tt_mul(P, theta, a, b)
            if tt_is_zero(prod):
                continue
            assert tt_radical_degree(prod) >= (tt_radical_degree(a)
                                               + tt_radical_degree(b))

    def test_closed_step_tuples(self):
        # chained arrows whose steps multiply to one: at (3,5,2) no
        # closed triple has equal steps and none reaches J^4; at
        # (2,7,3) every closed pair stops short of J^3
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        for s1 in range(1, 5):
            for s2 in range(1, 5):
                s3 = (-s1 - s2) % 5
                if s3 == 0:
                    continue
                assert not (s1 == s2 == s3)
                t = tt_mul(P, theta, arrow_tt(P, theta, 1, 0, s1),
                           arrow_tt(P, theta, 1, s1, s2))
                t = tt_mul(P, theta, t,
                           arrow_tt(P, theta, 1, (s1 + s2) % 5, s3))
                assert not tt_is_zero(t)
                assert tt_radical_degree(t) == 3
        Q = params_make(2, 7, 3)
        theta = make_char(Q, "Z", 1)
        for s in range(1, 7):
            t = tt_mul(Q, theta, arrow_tt(Q, theta, 1, 0, s),
                       arrow_tt(Q, theta, 1, s, 7 - s))
            assert tt_radical_degree(t) == 2

    def test_equal_step_tuples_die_by_the_cap(self):
        # an open all-equal chain hits multiplicity ell and vanishes,
        # landing in every radical power
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        for s in range(1, 5):
            t = tt_mul(P, theta, arrow_tt(P, theta, 1, 0, s),
                       arrow_tt(P, theta, 1, s, s))
            t = tt_mul(P, theta, t, arrow_tt(P, theta, 1, 2 * s % 5, s))
            assert tt_is_zero(t)


class TestSerialization:
    def test_shape_and_order(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        t = tt_unit(P, theta)
        data = tt_to_json(P, t)
        assert len(data) == 49
        assert all(set(row) == {"u", "v", "coeff"} for row in data)
        keys = [(row["u"]["psi_exp"], row["v"]["psi_exp"]) for row in data]
        assert keys == sorted(keys)


class TestIotaTable:
    @pytest.mark.parametrize("cfg,e", [((2, 7, 3), 1), ((2, 7, 3), 2),
                                       ((3, 5, 2), 1)])
    def test_every_label_matches_the_isotypic_reference(self, cfg, e):
        # b0_iota reads the side's table; the reference builds each
        # label's image from its dict isotypic parts with ga_mul
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        for side in (1, 2):
            chis = [make_char(P, f"L{side}", k) for k in range(P.r)]
            h_inv = [ga_basis(P, group_inv(P, h_element(P, theta, chi, side)))
                     for chi in chis]
            for lab in qa_labels(P, side):
                a = qa_basis(P, lab)
                parts = [ga_mul(P, qa_embed(P, qa_isotypic(P, a, chi)), h)
                         for chi, h in zip(chis, h_inv)]
                want = ga_mul(P, ga_sum(P, parts), block_idempotent(P, theta))
                assert b0_iota(P, theta, a) == want, lab

    def test_zero_embeds_as_zero(self):
        # the empty element, and an empty label-rule product
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for side in (1, 2):
            a = qa_basis(P, label_make(P, side, 1, (0,) * 6))
            b = qa_basis(P, label_make(P, side, 2, (0,) * 6))
            for z in (qa_zero(side), qa_mul(P, a, b)):
                assert len(z.coeffs) == 0
                assert b0_iota(P, theta, z) == ga_zero()

    def test_label_perm_is_the_L_action(self):
        for cfg in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(*cfg)
            for side in (1, 2):
                labels = qa_labels(P, side)
                index = {lab: j for j, lab in enumerate(labels)}
                for t in range(P.r):
                    w = h_elem(P, t, 0, 0) if side == 1 else \
                        h_elem(P, 0, t, 0)
                    want = [index[next(iter(qa_L_action(
                        P, qa_basis(P, lab), w).terms))] for lab in labels]
                    got = _label_index(P, *_act(P, t, *_label_cols(
                        P, np.arange(len(labels)))))
                    assert got.tolist() == want

    def test_batched_closed_route_is_the_conjugate_average(self):
        # every label of a side through the route at once, against r
        # separate ga_conjugate calls on sampled basis labels
        rng = random.Random(14)
        for cfg in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(*cfg)
            theta = make_char(P, "Z", 1)
            n = P.dsz * P.p
            for side in (1, 2):
                route = _closed_route(P, theta, side)
                dense = _route_cols(P, route, *_label_cols(P, np.arange(n)))
                assert dense.shape == (len(route["keys"]), n)
                e_triv = char_idempotent(P, make_char(P, f"L{3 - side}", 0))
                labels = qa_labels(P, side)
                for j in [0, n - 1] + rng.sample(range(n), 6):
                    base = ga_mul(P, ga_mul(P, qa_embed(
                        P, qa_basis(P, labels[j])), e_triv),
                        block_idempotent(P, theta))
                    want = ga_zero()
                    for t in range(P.r):
                        g = h_elem(P, t, 0, 0) if side == 1 else \
                            h_elem(P, 0, t, 0)
                        want = ga_add(P, want, ga_conjugate(P, base, g))
                    live = dense[:, j] != 0
                    assert block_unfold(P, theta, GAElem(
                        route["keys"][live], dense[live, j])) == want


FAITHFUL = [((2, 7, 3), 1), ((2, 7, 3), 2), ((3, 5, 2), 1)]


class TestFoldedOracle:
    """The block's oracle runs in k_theta[G/Z]; its answers are those
    of the dense, unfolded route."""

    @pytest.mark.parametrize("cfg,e", FAITHFUL)
    def test_product_matches_the_dense_reference(self, cfg, e):
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        rng = random.Random(f"dense:{cfg}:{e}")
        # vertex terms keep the honest unfolded product under a million
        # lanes at (2,7,3)
        pairs = [(b0_pi_inv(P, theta, random_tt(P, theta, rng, 1, 0, P.ctx)),
                  b0_pi_inv(P, theta, random_tt(P, theta, rng, 1, 0, P.ctx)))
                 for _ in range(2)]
        block = block_idempotent(P, theta)
        pairs += [(ga_mul(P, random_ga(P, rng, 30), block),
                   random_ga(P, rng, 30)) for _ in range(2)]
        pairs += [(block, ga_zero())]
        nonzero = 0
        for x, y in pairs:
            want = dense_pi_product(P, theta, x, y)
            assert b0_pi_product(P, theta, x, y) == want
            nonzero += not tt_is_zero(want)
        assert nonzero >= 2

    @pytest.mark.parametrize("cfg,e", FAITHFUL)
    def test_one_live_row_per_leg_transforms_one_row(self, cfg, e,
                                                     monkeypatch):
        # vertex labels embed with D-part zero, so the collapse lives
        # on the D-row 0 of each leg
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        x = ga_mul(P, b0_iota(P, theta, qa_vertex(P, 1, 0)),
                   b0_iota(P, theta, qa_vertex(P, 2, 0)))
        shapes = []

        def spy(ctx, M, T, axis):
            shapes.append(T.shape)
            return gf_apply_axis(ctx, M, T, axis)
        monkeypatch.setattr(twisted_mod, "gf_apply_axis", spy)
        got = b0_pi_product(P, theta, x, block_idempotent(P, theta))
        assert got == b0_pi(P, theta, x)
        assert shapes[0] == (1, P.p, 1, P.p)
        assert max(np.prod(s) for s in shapes) <= P.dsz * P.p * P.p

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_one_iota_matrix_serves_both_sides_and_every_theta(self, cfg):
        # the iota routes of both sides and every theta mix their
        # columns with the one cached Fourier matrix D; the closed route
        # mixes with the single move t = 0.  No route stores columns.
        P = params_make(*cfg)
        D = l_fourier(P, P.ctx)
        n = P.dsz * P.p
        for e in range(1, P.r):
            if np.gcd(e, P.r) != 1:
                continue
            theta = make_char(P, "Z", e)
            for side in (1, 2):
                assert _iota_table(P, theta, side)["mix"] is D
                closed = _closed_route(P, theta, side)
                assert closed["mix"].tolist() == [[P.ctx.one]]
                for route in (_iota_table(P, theta, side), closed):
                    assert "M" not in route
                    assert max(a.size for a in route.values()) < P.r * n * n
        assert l_fourier(P, P.ctx) is D
        assert "iota_basis" not in P._cache
