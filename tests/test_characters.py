"""Character layer: values, idempotents, h-elements, Frobenius powers."""

import math

import pytest

from mfblocks.characters import (
    Character, char_exponent, char_frob_power, char_idempotent, h_element,
    is_faithful, make_char,
)
from mfblocks.field import root_of_unity
from mfblocks.groups import (
    conjugate, group_inv, group_mul, h_elem, identity, l_fourier, p_elem,
    params_make, root_powers, subgroup_elements,
)
from mfblocks.groupalg import ga_add, ga_mul, ga_zero
from reference import char_conjugate, char_eval, ga_coeff, ga_unit


class TestEval:
    def test_trivial_and_identity(self):
        P = params_make(2, 7, 3)
        for tag in ("Z", "L1", "L2", "P1", "P2"):
            triv = make_char(P, tag, 0)
            for g in subgroup_elements(P, tag):
                assert char_eval(P, triv, g) == P.ctx.one
            chi = make_char(P, tag, 1)
            assert char_eval(P, chi, identity(P)) == P.ctx.one

    def test_frozen_values(self):
        # zeta_3 = 59 and zeta_7 = 24 in the fixed F_64 presentation
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert char_eval(P, theta, h_elem(P, 0, 0, 1)) == 59
        phi = make_char(P, "P1", 1)
        assert char_eval(P, phi, p_elem(P, 1, 1)) == 24

    def test_multiplicative(self):
        P = params_make(3, 5, 2)
        chi = make_char(P, "P2", 3)
        for x in range(5):
            for y in range(5):
                lhs = char_eval(P, chi, p_elem(P, 2, (x + y) % 5))
                rhs = P.ctx.mul(char_eval(P, chi, p_elem(P, 2, x)),
                                char_eval(P, chi, p_elem(P, 2, y)))
                assert lhs == rhs

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2), (2, 11, 5),
                                     (2, 19, 9)])
    def test_tables_are_the_scalar_powers(self, cfg):
        # the power tables and D against ctx.pow on the roots themselves,
        # in the label field (zeta_r) and in F_{ell^d} (zeta_r, zeta_p)
        P = params_make(*cfg)
        r = P.r
        for ctx, orders in ((P.lctx, (r,)), (P.ctx, (r, P.p))):
            for order in orders:
                zeta = root_of_unity(ctx, order)
                assert root_powers(P, ctx, order).tolist() == [
                    ctx.pow(zeta, k) for k in range(order)]
            rinv, zeta = ctx.inv(ctx.from_int(r)), root_of_unity(ctx, r)
            assert l_fourier(P, ctx).tolist() == [
                [ctx.mul(rinv, ctx.pow(zeta, -e * t % r)) for t in range(r)]
                for e in range(r)]

    def test_exponents_are_field_free(self):
        # char_exponent is the exponent of char_eval's value over F_64
        P = params_make(2, 7, 3)
        for tag in ("Z", "L1", "P1"):
            chi = make_char(P, tag, 2)
            zeta = root_of_unity(P.ctx, chi.order)
            for g in subgroup_elements(P, tag):
                assert char_eval(P, chi, g) == P.ctx.pow(
                    zeta, char_exponent(P, chi, g))

    def test_outside_subgroup(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="outside"):
            char_eval(P, make_char(P, "Z", 1), h_elem(P, 1, 0, 0))
        with pytest.raises(ValueError, match="outside"):
            char_eval(P, make_char(P, "P1", 1), p_elem(P, 2, 1))

    def test_faithful(self):
        P = params_make(2, 7, 3)
        assert is_faithful(make_char(P, "Z", 1))
        assert is_faithful(make_char(P, "Z", 2))
        assert not is_faithful(make_char(P, "Z", 0))
        Q = params_make(2, 19, 9)
        assert not is_faithful(make_char(Q, "Z", 3))
        assert is_faithful(make_char(Q, "Z", 2))


class TestConjugateCharacter:
    def test_against_definition(self):
        # chi^w(h) = chi(h^{w^-1}), checked on all p points
        P = params_make(2, 7, 3)
        g1 = h_elem(P, 1, 0, 0)
        for e in range(7):
            phi = make_char(P, "P1", e)
            phi_c = char_conjugate(P, phi, g1)
            assert phi_c.e == (e * pow(P.g0, -1, 7)) % 7
            for x in range(7):
                pt = p_elem(P, 1, x)
                moved = conjugate(P, pt, group_inv(P, g1))
                assert char_eval(P, phi_c, pt) == char_eval(P, phi, moved)

    def test_action_by_composition(self):
        P = params_make(2, 11, 5)
        phi = make_char(P, "P2", 3)
        w1, w2 = h_elem(P, 1, 2, 0), h_elem(P, 2, 1, 1)
        once = char_conjugate(P, char_conjugate(P, phi, w1), w2)
        both = char_conjugate(P, phi, group_mul(P, w1, w2))
        assert once == both

    def test_z_fixed(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 2)
        assert char_conjugate(P, theta, h_elem(P, 1, 1, 0)) == theta


class TestIdempotents:
    def test_idempotent_and_orthogonal(self):
        P = params_make(2, 7, 3)
        for tag, order in [("Z", 3), ("P1", 7)]:
            es = [char_idempotent(P, make_char(P, tag, e))
                  for e in range(order)]
            for i, ei in enumerate(es):
                assert ga_mul(P, ei, ei) == ei
                for j in range(i + 1, order):
                    assert ga_mul(P, ei, es[j]) == ga_zero()

    def test_completeness(self):
        P = params_make(3, 5, 2)
        for tag, order in [("Z", 2), ("L1", 2), ("P2", 5)]:
            total = ga_zero()
            for e in range(order):
                total = ga_add(P, total,
                               char_idempotent(P, make_char(P, tag, e)))
            assert total == ga_unit(P)

    def test_block_coefficients_frozen(self):
        # coefficient of gz^c in e_theta is r^-1 zeta_r^{-c}
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        e = char_idempotent(P, theta)
        rinv = P.ctx.inv(P.ctx.from_int(3))
        for c in range(3):
            expect = P.ctx.mul(rinv, P.ctx.pow(root_of_unity(P.ctx, 3), -c))
            assert ga_coeff(P, e, h_elem(P, 0, 0, c)) == expect

    def test_conjugate_idempotent(self):
        # e_chi^g = e_{chi^g} for g normalizing the subgroup
        from reference import ga_conjugate
        P = params_make(2, 7, 3)
        g1 = h_elem(P, 1, 0, 0)
        for e in range(7):
            chi = make_char(P, "P1", e)
            lhs = ga_conjugate(P, char_idempotent(P, chi), g1)
            rhs = char_idempotent(P, char_conjugate(P, chi, g1))
            assert lhs == rhs


class TestHElement:
    def test_frozen_example(self):
        # r=3, theta_1, chi_1 on L1 -> g2^2
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        chi = make_char(P, "L1", 1)
        assert h_element(P, theta, chi, 1) == h_elem(P, 0, 2, 0)

    def test_trivial_chi(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 2)
        assert h_element(P, theta, make_char(P, "L1", 0), 1) == identity(P)
        assert h_element(P, theta, make_char(P, "L2", 0), 2) == identity(P)

    def test_defining_property_exhaustive(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5)]:
            P = params_make(ell, p, r)
            for j in range(1, r):
                if math.gcd(j, r) != 1:
                    continue
                theta = make_char(P, "Z", j)
                for i in (1, 2):
                    for e in range(r):
                        chi = make_char(P, f"L{i}", e)
                        h = h_element(P, theta, chi, i)
                        hi = group_inv(P, h)
                        for g in subgroup_elements(P, f"L{i}"):
                            comm = group_mul(
                                P, group_mul(P, hi, group_inv(P, g)),
                                group_mul(P, h, g))
                            assert char_eval(P, theta, comm) == \
                                char_eval(P, chi, g)

    def test_multiplicativity(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        h1 = h_element(P, theta, make_char(P, "L1", 1), 1)
        h2 = h_element(P, theta, make_char(P, "L1", 2), 1)
        h3 = h_element(P, theta, make_char(P, "L1", 0), 1)
        assert group_mul(P, h1, h2) == h3 == identity(P)

    def test_unfaithful_rejected(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="faithful"):
            h_element(P, make_char(P, "Z", 0), make_char(P, "L1", 1), 1)


class TestFrobPower:
    def test_examples(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert char_frob_power(theta, 0, 2) == theta
        assert char_frob_power(theta, 1, 2) == make_char(P, "Z", 2)
        Q = params_make(2, 11, 5)
        t1 = make_char(Q, "Z", 1)
        assert char_frob_power(t1, 2, 2) == make_char(Q, "Z", 4)

    def test_order_divides_field_degree(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        assert char_frob_power(theta, P.d, P.ell) == theta
