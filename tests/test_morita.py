"""Morita invariants, theta recovery, and the explicit isomorphisms."""

import math
import random

import numpy as np
import pytest

from mfblocks.characters import char_frob_power, make_char
from mfblocks.field import root_of_unity
from mfblocks.groups import (
    GroupElem, _scale_side, d_elem, d_pack, d_scale, group_mul,
    Params, h_elem, identity, p_elem, pack_key, params_make,
)
from mfblocks.groupalg import (
    block_idempotent, ga_basis, ga_from_terms, ga_frobenius_twist, ga_mul,
)
from mfblocks.morita import (
    PairingTable, SimpleLabel, commutation_pairing, ext_dim, fp_automorphism,
    head_algebra, mf_number, morita_equivalent, pairing_to_json,
    params_for_target, recover_theta, simple_kind, simple_make, simple_str,
    simples, swap_isomorphism,
)
from mfblocks.twisted import TTElem, _Cols, b0_pi_inv, tt_eps
import mfblocks.morita as M
from reference import d_unpack, unpack_key


def census_oracle(P):
    """Count label classes by direct orbit enumeration."""
    seen = set()
    classes = 0
    for a in range(P.p):
        for b in range(P.p):
            if (a, b) in seen:
                continue
            classes += 1
            if a and b:
                for u in P._g0pow:
                    for w in P._g0pow:
                        seen.add(((a * u) % P.p, (b * w) % P.p))
            else:
                seen.add((a, b))
    return classes


def brute_mf(ell, r):
    x = ell % r
    m = 1
    while x != 1 % r and x != (r - 1) % r:
        x = x * ell % r
        m += 1
        assert m <= 2 * r
    return m


def random_elem(P, rng):
    g = d_elem(P, 1, rng.randrange(P.p), rng.randrange(P.ell))
    g = group_mul(P, g, p_elem(P, 1, rng.randrange(P.p)))
    g = group_mul(P, g, d_elem(P, 2, rng.randrange(P.p), rng.randrange(P.ell)))
    g = group_mul(P, g, p_elem(P, 2, rng.randrange(P.p)))
    return group_mul(P, g, h_elem(P, rng.randrange(P.r), rng.randrange(P.r),
                                  rng.randrange(P.r)))


def random_ga(P, rng, nterms):
    return ga_from_terms(P, [(random_elem(P, rng),
                              rng.randrange(1, P.ctx.order))
                             for _ in range(nterms)])


class TestSimpleLabel:
    def test_canonical_representatives(self):
        P = params_make(2, 7, 3)
        # orbits under g0 = 2: {1,2,4} and {3,5,6}
        assert simple_make(P, 2, 6) == SimpleLabel(1, 3)
        assert simple_make(P, 4, 5) == SimpleLabel(1, 3)
        assert simple_make(P, 2, 0) == SimpleLabel(2, 0)
        assert simple_make(P, 0, 6) == SimpleLabel(0, 6)

    def test_kind_and_str(self):
        P = params_make(2, 7, 3)
        assert simple_kind(simple_make(P, 0, 0)) == "unit"
        assert simple_str(simple_make(P, 0, 0)) == "(1,1)"
        assert simple_str(simple_make(P, 5, 0)) == "(phi5,1)"
        assert simple_str(simple_make(P, 0, 2)) == "(1,psi2)"
        assert simple_str(simple_make(P, 2, 6)) == "([phi1],[psi3])"

    def test_census(self):
        for (ell, p, r), count in [((2, 7, 3), 17), ((3, 5, 2), 13)]:
            P = params_make(ell, p, r)
            theta = make_char(P, "Z", 1)
            labs = simples(P, theta)
            assert len(labs) == count == census_oracle(P)
            assert len({s for s, _ in labs}) == count

    def test_degrees(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5)]:
            P = params_make(ell, p, r)
            labs = simples(P, make_char(P, "Z", 1))
            for s, d in labs:
                assert d == (r * r if simple_kind(s) == "pair" else r)
            assert sum(d * d for _, d in labs) == p * p * r * r

    def test_faithful_required(self):
        P = params_make(2, 19, 9)
        with pytest.raises(ValueError, match="faithful"):
            simples(P, make_char(P, "Z", 3))


class TestHead:
    def test_block_dimensions(self):
        for (ell, p, r) in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            blocks = head_algebra(P, make_char(P, "Z", 1))
            dims = [d for _, d in blocks]
            assert dims.count(1) == 2 * p - 1
            assert dims.count(r * r) == ((p - 1) // r) ** 2
            assert sum(dims) == p * p
            for s, d in blocks:
                assert d == (r * r if simple_kind(s) == "pair" else 1)


class TestExt:
    def test_one_dimensional_families(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        want = {
            # within each one-sided family: single arrows off the diagonal
            ((2, 0), (5, 0)): 1, ((0, 0), (1, 0)): 1, ((0, 3), (0, 4)): 1,
            # diagonals vanish
            ((2, 0), (2, 0)): 0, ((0, 0), (0, 0)): 0,
            # no extensions across the two one-sided families
            ((2, 0), (0, 3)): 0, ((0, 3), (2, 0)): 0,
        }
        pairs = [(simple_make(P, *a), simple_make(P, *b)) for a, b in want]
        assert ext_dim(P, theta, pairs) == list(want.values())

    def test_pair_corners(self):
        # corner dimensions scale with the r-dim legs: a pair vertex
        # keeps 2 * r(r-1) * r within-orbit arrow combinations
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        pair = simple_make(P, 1, 3)
        assert ext_dim(P, theta, [(pair, pair)]) == [2 * 3 * 2 * 3] == [36]
        Q = params_make(3, 5, 2)
        qpair = simple_make(Q, 1, 1)
        assert ext_dim(Q, make_char(Q, "Z", 1), [(qpair, qpair)]) == [8]

    def test_relabeling_invariance(self):
        # scaling all exponents by a unit is an algebra automorphism
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        for w in (2, 3, 5):
            for a, b in [((2, 0), (5, 0)), ((2, 0), (2, 0)),
                         ((1, 3), (2, 0))]:
                lhs = ext_dim(P, theta, [(simple_make(P, *a),
                                          simple_make(P, *b))])
                rhs = ext_dim(P, theta,
                              [(simple_make(P, a[0] * w, a[1] * w),
                                simple_make(P, b[0] * w, b[1] * w))])
                assert lhs == rhs


class TestPairing:
    def test_closed_form(self):
        for (ell, p, r), js in [((2, 7, 3), (1, 2)), ((3, 5, 2), (1,)),
                                ((2, 11, 5), (1, 2)), ((3, 13, 4), (1, 3)),
                                ((5, 13, 4), (1, 3))]:
            P = params_make(ell, p, r)
            for j in js:
                tab = commutation_pairing(P, make_char(P, "Z", j))
                jinv = pow(j, -1, r)
                for e in range(r):
                    for f in range(r):
                        assert tab.value(e, f) == (-e * f * jinv) % r

    def test_trivial_rows(self):
        P = params_make(2, 7, 3)
        tab = commutation_pairing(P, make_char(P, "Z", 2))
        for e in range(3):
            assert tab.value(e, 0) == 0
            assert tab.value(0, e) == 0

    def test_independent_of_step_choice(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert commutation_pairing(P, theta) == \
            commutation_pairing(P, theta, phi_e=2, zeta_e=5)
        Q = params_make(3, 5, 2)
        th = make_char(Q, "Z", 1)
        assert commutation_pairing(Q, th) == \
            commutation_pairing(Q, th, phi_e=3, zeta_e=2)
        R = params_make(2, 19, 9)
        th = make_char(R, "Z", 2)
        assert commutation_pairing(R, th) == \
            commutation_pairing(R, th, phi_e=4, zeta_e=11)

    @pytest.mark.parametrize("cfg,products", [((2, 7, 3), 2), ((2, 19, 9), 2),
                                              ((3, 13, 4), 4)])
    def test_product_count_does_not_grow_with_r(self, monkeypatch, cfg,
                                                products):
        # one product per order of all r^2 conjugate pairs, and one more
        # pair where rows degenerate (r even)
        calls = []
        real = M.tt_mul
        monkeypatch.setattr(M, "tt_mul",
                            lambda *a: calls.append(1) or real(*a))
        P = params_make(*cfg)
        commutation_pairing(P, make_char(P, "Z", 1))
        assert len(calls) == products

    def test_iso_legs_resolve_the_odd_rows_at_even_r(self, monkeypatch):
        # at r = 4 the conjugates t and t + 2 of a loop path coincide, so
        # both loop products vanish at every (e, f) with e or f odd, 12 of
        # the 16, and only the iso legs give those entries
        seen = []
        real = M._commutation_scalars
        monkeypatch.setattr(M, "_commutation_scalars",
                            lambda *a: seen.append(real(*a)) or seen[-1])
        P = params_make(3, 13, 4)
        tab = commutation_pairing(P, make_char(P, "Z", 1))
        loop, iso = seen
        odd = {(e, f) for e in range(4) for f in range(4) if e % 2 or f % 2}
        assert {divmod(i, 4) for i, c in enumerate(loop) if c is None} == odd
        assert None not in iso
        for e, f in odd:
            assert tab.value(e, f) == iso[4 * e + f]

    @pytest.mark.parametrize("order", [0, 1])
    def test_a_bent_base_product_has_no_unique_scalar(self, monkeypatch,
                                                      order):
        # one coefficient of S T (order 0) moved by zeta_r leaves its
        # rows out of proportion with T S; T S emptied (order 1) leaves
        # S T nonzero where T S vanishes
        P = params_make(2, 7, 3)
        calls = []
        real = M.tt_mul

        def bent(*a):
            out = real(*a)
            calls.append(1)
            if len(calls) - 1 != order:
                return out
            c = out.cols
            if order == 1:
                return TTElem(out.theta, _Cols(*(x[:0] for x in c)), out.ctx)
            coeffs = c.coeffs.copy()
            coeffs[0] = out.ctx.mul(int(coeffs[0]),
                                    root_of_unity(out.ctx, P.r))
            return TTElem(out.theta, c._replace(coeffs=coeffs), out.ctx)
        monkeypatch.setattr(M, "tt_mul", bent)
        with pytest.raises(ValueError, match="no unique commutation scalar"):
            commutation_pairing(P, make_char(P, "Z", 1))

    def test_rows_without_products_have_no_scalar(self, monkeypatch):
        # every product emptied: both orders vanish on every row, in the
        # loop pass and the iso pass, so no entry gets a scalar
        P = params_make(2, 7, 3)
        real = M.tt_mul
        monkeypatch.setattr(M, "tt_mul", lambda *a: TTElem(
            a[1], _Cols(*(x[:0] for x in real(*a).cols)), a[2].ctx))
        tab = commutation_pairing(P, make_char(P, "Z", 1))
        assert len(tab.entries) == 9
        assert set(tab.entries.values()) == {None}

    def test_json_shape(self):
        # the values are the packed powers zeta_r^k of the label field F_4
        P = params_make(2, 7, 3)
        tab = commutation_pairing(P, make_char(P, "Z", 1))
        rows = pairing_to_json(P, tab)
        assert len(rows) == 9
        assert [(row["chi"], row["eta"]) for row in rows] == \
            [(e, f) for e in range(3) for f in range(3)]
        zeta = root_of_unity(P.lctx, 3)
        assert P.lctx.order == 4
        assert [row["value"] for row in rows] == [
            P.lctx.pow(zeta, tab.value(e, f)) for e in range(3)
            for f in range(3)]


class TestLabelField:
    """The label model computes over F_ell(zeta_r); F_{ell^d} gives the
    same pairing exponents without an embedding between the two."""

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2), (2, 11, 5),
                                     (2, 19, 9)])
    def test_pairing_exponents_agree_over_both_fields(self, cfg):
        # Q, a fresh copy of P, runs the label model over F_{ell^d}
        P, Q = params_make(*cfg), Params(*cfg)
        Q.lctx = Q.ctx
        assert P.lctx.order == P.ell ** mf_field_degree(P) < Q.lctx.order
        for j in range(1, P.r):
            if math.gcd(j, P.r) != 1:
                continue
            small = commutation_pairing(P, make_char(P, "Z", j))
            big = commutation_pairing(Q, make_char(Q, "Z", j))
            assert small.entries == big.entries
            assert None not in small.entries.values()


def mf_field_degree(P):
    """ord_r(ell), the degree of the label field."""
    k, x = 1, P.ell % P.r
    while x != 1:
        k, x = k + 1, x * P.ell % P.r
    return k


class TestRecover:
    def test_desk_values(self):
        P = params_make(2, 7, 3)
        for j in (1, 2):
            tab = commutation_pairing(P, make_char(P, "Z", j))
            assert recover_theta(tab, P) == frozenset({1, 2})
        Q = params_make(3, 5, 2)
        tab = commutation_pairing(Q, make_char(Q, "Z", 1))
        assert recover_theta(tab, Q) == frozenset({1})

    def test_separates_at_r_five(self):
        P = params_make(2, 11, 5)
        rec = {}
        for j in (1, 2, 3, 4):
            tab = commutation_pairing(P, make_char(P, "Z", j))
            rec[j] = recover_theta(tab, P)
        assert rec[1] == rec[4] == frozenset({1, 4})
        assert rec[2] == rec[3] == frozenset({2, 3})
        assert not rec[1] & rec[2]

    def test_complete_invariant(self):
        # recovered sets agree exactly where the equivalence predicate
        # says they must, over every faithful pair at r <= 9
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5), (2, 19, 9)]:
            P = params_make(ell, p, r)
            faithful = [j for j in range(1, r) if math.gcd(j, r) == 1]
            rec = {}
            for j in faithful:
                tab = commutation_pairing(P, make_char(P, "Z", j))
                rec[j] = recover_theta(tab, P)
            for j in faithful:
                for k in faithful:
                    same = morita_equivalent(P, make_char(P, "Z", j),
                                             make_char(P, "Z", k))
                    assert (rec[j] == rec[k]) == same
                    assert same == ((j - k) % r == 0 or (j + k) % r == 0)

    def test_degenerate_table(self):
        P = params_make(2, 7, 3)
        flat = PairingTable(3, {(e, f): 0 for e in range(3)
                                for f in range(3)})
        with pytest.raises(ValueError, match="degenerate"):
            recover_theta(flat, P)
        with pytest.raises(ValueError, match="size"):
            recover_theta(PairingTable(5, {}), P)


class TestEquivalence:
    def test_predicate(self):
        P = params_make(2, 11, 5)
        t = [make_char(P, "Z", j) for j in range(5)]
        assert morita_equivalent(P, t[1], t[1])
        assert morita_equivalent(P, t[1], t[4])
        assert not morita_equivalent(P, t[1], t[2])
        assert not morita_equivalent(P, t[1], t[3])
        Q = params_make(2, 7, 3)
        assert morita_equivalent(Q, make_char(Q, "Z", 1),
                                 make_char(Q, "Z", 2))

    def test_faithful_required(self):
        P = params_make(2, 19, 9)
        with pytest.raises(ValueError, match="faithful"):
            morita_equivalent(P, make_char(P, "Z", 1), make_char(P, "Z", 3))


class TestMf:
    def test_known_values(self):
        assert mf_number(2, 3) == 1
        assert mf_number(2, 9) == 3
        assert mf_number(2, 7) == 3

    def test_matches_brute_force(self):
        for ell in (2, 3, 5):
            for r in range(2, 301):
                if math.gcd(ell, r) != 1:
                    continue
                assert mf_number(ell, r) == brute_mf(ell, r)

    def test_recipe_hits_every_target(self):
        for ell in (2, 3):
            for n in range(1, 13):
                assert mf_number(ell, ell ** n + 1) == n

    def test_validation(self):
        with pytest.raises(ValueError, match="coprime"):
            mf_number(2, 4)
        with pytest.raises(ValueError, match="r must be"):
            mf_number(2, 1)
        # ell is the characteristic, a prime: ell^m = +-1 mod r means
        # nothing for the others
        for ell in (4, 1, 0, -2, 9):
            with pytest.raises(ValueError, match="ell must be prime"):
                mf_number(ell, 7)


class TestParamsForTarget:
    def test_frozen_examples(self):
        assert params_for_target(2, 1) == (3, 7)
        assert params_for_target(2, 2) == (5, 11)
        assert params_for_target(2, 3) == (9, 19)
        assert params_for_target(2, 4) == (17, 103)

    def test_other_prime(self):
        r, p = params_for_target(3, 1)
        assert (r, p) == (4, 13)
        assert mf_number(3, r) == 1
        assert p % 3 == 1 and p % r == 1

    def test_search_cap(self):
        with pytest.raises(RuntimeError, match="cap|below"):
            params_for_target(2, 2, cap=10)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            params_for_target(2, 0)
        with pytest.raises(ValueError, match="prime"):
            params_for_target(4, 1)


class TestSwap:
    def test_fixes_identity(self):
        P = params_make(2, 7, 3)
        one = ga_basis(P, identity(P))
        assert swap_isomorphism(P, one) == one

    def test_involution(self):
        rng = random.Random(61)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            for _ in range(5):
                x = random_ga(P, rng, 4)
                assert swap_isomorphism(P, swap_isomorphism(P, x)) == x

    def test_multiplicative(self):
        rng = random.Random(67)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            for _ in range(10):
                x = random_ga(P, rng, 3)
                y = random_ga(P, rng, 3)
                assert swap_isomorphism(P, ga_mul(P, x, y)) == \
                    ga_mul(P, swap_isomorphism(P, x), swap_isomorphism(P, y))

    def test_sends_block_to_inverse_block(self):
        rng = random.Random(71)
        for (ell, p, r), j in [((2, 7, 3), 1), ((2, 11, 5), 2)]:
            P = params_make(ell, p, r)
            e1 = block_idempotent(P, make_char(P, "Z", j))
            e2 = block_idempotent(P, make_char(P, "Z", (r - j) % r))
            assert swap_isomorphism(P, e1) == e2
            x = ga_mul(P, random_ga(P, rng, 3), e1)
            y = swap_isomorphism(P, x)
            assert ga_mul(P, y, e2) == y

    def test_swaps_idempotent_families(self):
        P = params_make(2, 7, 3)
        t1 = make_char(P, "Z", 1)
        t2 = make_char(P, "Z", 2)

        def image(theta, a, b):
            # the corner maps take coefficients in F_{ell^d}
            return b0_pi_inv(P, theta,
                             tt_eps(P, theta, simple_make(P, a, b), P.ctx))
        for e in range(7):
            assert swap_isomorphism(P, image(t1, e, 0)) == image(t2, 0, e)
        assert swap_isomorphism(P, image(t1, 1, 3)) == image(t2, 3, 1)


class TestFp:
    def test_identity_scalars(self):
        rng = random.Random(73)
        P = params_make(2, 7, 3)
        x = random_ga(P, rng, 4)
        assert fp_automorphism(P, 1, 1, x) == x

    def test_fixes_block_idempotent(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            e1 = block_idempotent(P, make_char(P, "Z", 1))
            assert fp_automorphism(P, 2, p - 1, e1) == e1

    def test_multiplicative(self):
        rng = random.Random(79)
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            for _ in range(10):
                u1 = rng.randrange(1, p)
                u2 = rng.randrange(1, p)
                x = random_ga(P, rng, 3)
                y = random_ga(P, rng, 3)
                lhs = fp_automorphism(P, u1, u2, ga_mul(P, x, y))
                assert lhs == ga_mul(P, fp_automorphism(P, u1, u2, x),
                                     fp_automorphism(P, u1, u2, y))

    def test_composition(self):
        rng = random.Random(83)
        P = params_make(3, 5, 2)
        x = random_ga(P, rng, 4)
        lhs = fp_automorphism(P, 2, 3, fp_automorphism(P, 4, 2, x))
        assert lhs == fp_automorphism(P, 8, 6, x)

    def test_permutes_idempotent_family(self):
        # the P1-character exponent scales by the inverse unit
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)

        def image(e):
            return b0_pi_inv(P, theta,
                             tt_eps(P, theta, simple_make(P, e, 0), P.ctx))
        for u in (2, 3, 6):
            uinv = pow(u, -1, 7)
            for e in (1, 4, 5):
                assert fp_automorphism(P, u, 1, image(e)) == \
                    image((e * uinv) % 7)

    def test_index_perm_matches_scalar_relabelling(self):
        # the slot gather against _scale_side on every packed vector,
        # every unit
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            for u in range(1, p):
                got = d_scale(P, u, np.arange(P.dsz))
                assert got.tolist() == [
                    d_pack(P, _scale_side(P, d_unpack(P, d), 0, u)[0])
                    for d in range(P.dsz)]

    def test_validation(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="nonzero"):
            fp_automorphism(P, 7, 1, ga_basis(P, identity(P)))


class TestExactImages:
    """Each key of an image against pack_key of the scalar map of its
    group element."""

    def check(self, P, rng, iso, scalar):
        total = (P.dsz * P.p) ** 2 * P.r ** 3
        for _ in range(10):
            x = ga_from_terms(P, [(unpack_key(P, rng.randrange(total)),
                                   rng.randrange(1, P.ctx.order))
                                  for _ in range(8)])
            y = iso(x)
            want = {pack_key(P, scalar(unpack_key(P, k))): c
                    for k, c in zip(x.keys.tolist(), x.coeffs.tolist())}
            assert dict(zip(y.keys.tolist(), y.coeffs.tolist())) == want

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2)])
    def test_swap(self, ell, p, r):
        P = params_make(ell, p, r)
        self.check(P, random.Random(89 * p), lambda x: swap_isomorphism(P, x),
                   lambda g: GroupElem(g.v2, g.x2, g.v1, g.x1, g.b, g.a,
                                       (-g.a * g.b - g.c) % r))

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2)])
    def test_fp(self, ell, p, r):
        P = params_make(ell, p, r)
        rng = random.Random(97 * p)
        for u1, u2 in [(1, 1), (2, p - 1), (p - 1, 2 % p)]:
            self.check(
                P, rng, lambda x: fp_automorphism(P, u1, u2, x),
                lambda g: GroupElem(*_scale_side(P, g.v1, g.x1, u1),
                                    *_scale_side(P, g.v2, g.x2, u2),
                                    g.a, g.b, g.c))


class TestFrobeniusCompatibility:
    def test_twist_permutes_block_idempotents(self):
        # coefficientwise Frobenius sends the theta-block onto the
        # block of the ell-th power character
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5)]:
            P = params_make(ell, p, r)
            for j in range(1, r):
                if math.gcd(j, r) != 1:
                    continue
                theta = make_char(P, "Z", j)
                lhs = ga_frobenius_twist(P, block_idempotent(P, theta))
                target = char_frob_power(theta, 1, ell)
                assert lhs == block_idempotent(P, target)
