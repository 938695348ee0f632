"""Group layer: normal forms, products, tagged subgroups.

Independent oracles used here:
  * the H-part is checked against the unitriangular 3x3 matrix model
    over Z_r (matrix multiplication knows nothing about the cocycle
    formula in group_mul);
  * the full product is checked against a permutation model: G acts on
    the disjoint union of the two side coset spaces and of H itself,
    with each action written from first principles in this file.
"""

import json
import math
import random

import pytest

import mfblocks.groups as groups
from mfblocks.groups import (
    GroupElem, Params, conjugate, d_elem, elem_to_dict,
    group_inv, group_mul, h_elem, identity, mult_order, p_elem, pack_key,
    params_make, subgroup_elements,
)
from reference import (
    scale_side_loop, side_mul_loop, subgroup_elems, unpack_key,
)


def rand_elem(P, rng):
    total = (P.dsz * P.p) ** 2 * P.r ** 3
    return unpack_key(P, rng.randrange(total))


class TestParamsMake:
    def test_desk_configs(self):
        P = params_make(2, 7, 3)
        assert (P.d, P.ctx.order, P.g0) == (6, 64, 2)
        Q = params_make(3, 5, 2)
        assert (Q.d, Q.ctx.order, Q.g0) == (4, 81, 4)

    def test_large_config(self):
        P = params_make(2, 11, 5)
        assert P.d == 20
        assert P.g0 == 4 and pow(P.g0, 5, 11) == 1

    def test_g0_exact_order(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5)]:
            P = params_make(ell, p, r)
            assert pow(P.g0, r, p) == 1
            for k in range(1, r):
                assert pow(P.g0, k, p) != 1

    def test_named_errors(self):
        with pytest.raises(ValueError, match="coprime"):
            params_make(2, 7, 2)
        with pytest.raises(ValueError, match="ell must be prime"):
            params_make(4, 7, 3)
        with pytest.raises(ValueError, match="divide"):
            params_make(2, 5, 3)
        with pytest.raises(ValueError, match="differ"):
            params_make(7, 7, 3)
        with pytest.raises(ValueError, match="r must be an integer"):
            params_make(2, 7, 1)


class TestHPart:
    """The subgroup H against its presentation and the matrix model."""

    @pytest.mark.parametrize("r", [3, 2, 5])
    def test_presentation(self, r):
        p = {3: 7, 2: 5, 5: 11}[r]
        ell = {3: 2, 2: 3, 5: 2}[r]
        P = params_make(ell, p, r)
        e = identity(P)
        g1, g2, gz = h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0), h_elem(P, 0, 0, 1)

        def power(g, n):
            out = e
            for _ in range(n):
                out = group_mul(P, out, g)
            return out

        def comm(g, h):
            return group_mul(P, group_mul(P, group_inv(P, g), group_inv(P, h)),
                             group_mul(P, g, h))

        assert power(g1, r) == e and power(g2, r) == e and power(gz, r) == e
        assert comm(g1, gz) == e and comm(g2, gz) == e
        assert comm(g1, g2) == gz

    def test_matrix_model_oracle(self):
        # phi(a,b,c) = [[1,a,ab+c],[0,1,b],[0,0,1]] over Z_r must be an
        # isomorphism onto the unitriangular group; matrix multiplication
        # is the independent route
        for r, p, ell in [(3, 7, 2), (2, 5, 3), (5, 11, 2)]:
            P = params_make(ell, p, r)

            def phi(g):
                return (g.a, g.b, (g.a * g.b + g.c) % r)

            def mat_mul(m, n):
                a, b, t = m
                a2, b2, t2 = n
                return ((a + a2) % r, (b + b2) % r, (t + t2 + a * b2) % r)

            hs = subgroup_elems(P, "H")
            assert len(set(phi(g) for g in hs)) == r ** 3
            for g in hs:
                for h in hs:
                    assert phi(group_mul(P, g, h)) == mat_mul(phi(g), phi(h))

    def test_r3_products_frozen(self):
        P = params_make(2, 7, 3)
        g1, g2 = h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0)
        assert group_mul(P, g1, g2) == h_elem(P, 1, 1, 0)
        assert group_mul(P, g2, g1) == h_elem(P, 1, 1, 2)

    def test_r2_is_dihedral(self):
        # at r = 2 the presentation yields D4: exactly two elements of
        # order 4, and exponent 4 rather than r
        P = params_make(3, 5, 2)
        e = identity(P)
        hs = subgroup_elems(P, "H")
        orders = []
        for g in hs:
            v, n = g, 1
            while v != e:
                v = group_mul(P, v, g)
                n += 1
            orders.append(n)
        assert sorted(orders) == [1, 2, 2, 2, 2, 2, 4, 4]


class TestSideStructure:
    def test_generator_relations(self):
        # D x P is the wreath-type group: the d-generators commute and
        # have order ell, and x-conjugation shifts the index by one
        P = params_make(2, 7, 3)
        e = identity(P)
        x = p_elem(P, 1, 1)
        for g in range(7):
            dg = d_elem(P, 1, g)
            assert group_mul(P, dg, dg) == e
            assert conjugate(P, dg, x) == d_elem(P, 1, g + 1)
            for h in range(7):
                dh = d_elem(P, 1, h)
                assert group_mul(P, dg, dh) == group_mul(P, dh, dg)

    def test_normal_form_bijective(self):
        # 448 distinct normal forms close under multiplication
        P = params_make(2, 7, 3)
        side = [group_mul(P, d, p_elem(P, 1, x))
                for d in subgroup_elems(P, "D1") for x in range(7)]
        assert len(set(side)) == 448

    def test_l_action_examples(self):
        P = params_make(2, 7, 3)
        g1 = h_elem(P, 1, 0, 0)
        # (d1^1)^{g1} = d1^{g0} and (d1^0)^{g1} = d1^0
        assert conjugate(P, d_elem(P, 1, 1), g1) == d_elem(P, 1, P.g0)
        assert conjugate(P, d_elem(P, 1, 0), g1) == d_elem(P, 1, 0)
        # 1 in P1 conjugates to g0
        assert conjugate(P, p_elem(P, 1, 1), g1) == p_elem(P, 1, P.g0)

    def test_action_kernel_is_z(self):
        P = params_make(2, 7, 3)
        gz = h_elem(P, 0, 0, 1)
        g1, g2 = h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0)
        n_gens = [d_elem(P, s, g) for s in (1, 2) for g in range(7)]
        n_gens += [p_elem(P, 1, 1), p_elem(P, 2, 1)]
        assert all(conjugate(P, n, gz) == n for n in n_gens)
        assert any(conjugate(P, n, g1) != n for n in n_gens)
        assert any(conjugate(P, n, g2) != n for n in n_gens)
        # cross-side action is trivial
        assert all(conjugate(P, d_elem(P, 2, g), g1) == d_elem(P, 2, g)
                   for g in range(7))
        assert conjugate(P, p_elem(P, 2, 1), g1) == p_elem(P, 2, 1)


class TestPermutationOracle:
    """G acts on side cosets and on H; group_mul must respect it."""

    def act(self, P, point, g):
        kind, data = point
        r, p, ell = P.r, P.p, P.ell
        if kind == "H":
            # right translation in the matrix model
            a, b, t = data
            a2, b2, t2 = g.a, g.b, (g.a * g.b + g.c) % r
            return ("H", ((a + a2) % r, (b + b2) % r, (t + t2 + a * b2) % r))
        side = 1 if kind == "N1" else 2
        v, x = data
        mv = g.v1 if side == 1 else g.v2
        mx = g.x1 if side == 1 else g.x2
        # right translation by the matching side component
        out = [(v[h] + mv[(h + x) % p]) % ell for h in range(p)]
        z = out[0]
        out = tuple((u - z) % ell for u in out)
        x = (x + mx) % p
        # twist by the H-part: indexes scale by g0^a (side 1), g0^b (side 2)
        u = pow(P.g0, g.a if side == 1 else g.b, p)
        w = [0] * p
        for h in range(p):
            w[(h * u) % p] = out[h]
        return (kind, (tuple(w), (x * u) % p))

    def test_homomorphism(self):
        P = params_make(2, 7, 3)
        rng = random.Random(7)
        points = []
        for d in subgroup_elems(P, "D1")[:8]:
            points.append(("N1", (d.v1, 3)))
            points.append(("N2", (d.v1, 5)))
        points += [("H", (a, b, c)) for a in range(3) for b in range(3)
                   for c in range(3)]
        for _ in range(300):
            g, h = rand_elem(P, rng), rand_elem(P, rng)
            gh = group_mul(P, g, h)
            for pt in random.Random(rng.random()).sample(points, 8):
                assert self.act(P, self.act(P, pt, g), h) == self.act(P, pt, gh)

    def test_homomorphism_r2(self):
        P = params_make(3, 5, 2)
        rng = random.Random(11)
        points = [("N1", ((0, 1, 0, 2, 0), 2)), ("N2", ((0, 0, 2, 1, 1), 4)),
                  ("H", (1, 0, 1)), ("H", (0, 1, 1))]
        for _ in range(300):
            g, h = rand_elem(P, rng), rand_elem(P, rng)
            gh = group_mul(P, g, h)
            for pt in points:
                assert self.act(P, self.act(P, pt, g), h) == self.act(P, pt, gh)


class TestGroupLaws:
    def test_identity_and_inverse(self):
        P = params_make(2, 7, 3)
        e = identity(P)
        rng = random.Random(3)
        for _ in range(1000):
            g = rand_elem(P, rng)
            assert group_mul(P, e, g) == g
            assert group_mul(P, g, e) == g
            assert group_mul(P, g, group_inv(P, g)) == e
            assert group_mul(P, group_inv(P, g), g) == e

    def test_associativity_sample(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            rng = random.Random(5)
            for _ in range(2000):
                g, h, k = (rand_elem(P, rng) for _ in range(3))
                assert group_mul(P, group_mul(P, g, h), k) == \
                    group_mul(P, g, group_mul(P, h, k))

    def test_conjugation_is_action(self):
        P = params_make(2, 7, 3)
        rng = random.Random(9)
        for _ in range(200):
            x, g, h = (rand_elem(P, rng) for _ in range(3))
            assert conjugate(P, conjugate(P, x, g), h) == \
                conjugate(P, x, group_mul(P, g, h))
            assert conjugate(P, x, identity(P)) == x

    def test_central_elements_fixed(self):
        P = params_make(2, 7, 3)
        rng = random.Random(13)
        for z in subgroup_elements(P, "Z"):
            for _ in range(50):
                g = rand_elem(P, rng)
                assert conjugate(P, z, g) == z


class TestScalarSideLaw:
    """_scale_side and _side_mul return at once on a zero vector; they
    must agree with the plain loops of tests/reference.py everywhere."""

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2), (2, 11, 5)])
    def test_matches_the_loops(self, cfg):
        P = params_make(*cfg)
        rng = random.Random(23)
        units = sorted(set(P._g0pow))
        for k in range(2000):
            v, w = rand_elem(P, rng)[0], rand_elem(P, rng)[0]
            # half the right vectors and a third of the left are zero
            w = (0,) * P.p if k % 2 else w
            v = (0,) * P.p if k % 3 == 0 else v
            x, y, u = rng.randrange(P.p), rng.randrange(P.p), rng.choice(units)
            assert groups._scale_side(P, v, x, u) == \
                scale_side_loop(P, v, x, u)
            assert groups._side_mul(P, v, x, w, y) == \
                side_mul_loop(P, v, x, w, y)

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_group_law_matches_the_looped_law(self, monkeypatch, cfg):
        # random elements, then h-elements, whose D-parts are zero
        P = params_make(*cfg)
        rng = random.Random(29)
        pairs = [(rand_elem(P, rng), rand_elem(P, rng)) for _ in range(500)]
        pairs += [(rand_elem(P, rng), h_elem(P, *(rng.randrange(P.r)
                                                  for _ in range(3))))
                  for _ in range(200)]
        pairs += [(b, a) for a, b in pairs[500:]]
        fast = [(group_mul(P, g, h), group_inv(P, g)) for g, h in pairs]
        monkeypatch.setattr(groups, "_scale_side", scale_side_loop)
        monkeypatch.setattr(groups, "_side_mul", side_mul_loop)
        assert fast == [(group_mul(P, g, h), group_inv(P, g))
                        for g, h in pairs]


class TestSubgroups:
    def test_counts(self):
        P = params_make(2, 7, 3)
        assert len(subgroup_elements(P, "Z")) == 3
        assert len(subgroup_elements(P, "L1")) == 3
        assert len(subgroup_elements(P, "L2")) == 3
        assert len(subgroup_elems(P, "H")) == 27
        assert len(subgroup_elements(P, "P1")) == 7
        assert len(subgroup_elements(P, "P2")) == 7
        assert len(subgroup_elems(P, "D1")) == 64
        assert len(subgroup_elems(P, "D2")) == 64
        assert len(subgroup_elems(P, "E-generators")) == 4

    def test_h_exponent_r3(self):
        P = params_make(2, 7, 3)
        e = identity(P)
        for g in subgroup_elems(P, "H"):
            cube = group_mul(P, group_mul(P, g, g), g)
            assert cube == e

    def test_e_closure(self):
        # the four E generators generate exactly p^2 r^3 elements, all
        # with trivial D-components
        P = params_make(2, 7, 3)
        gens = subgroup_elems(P, "E-generators")
        seen = {identity(P)}
        frontier = [identity(P)]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    t = group_mul(P, g, s)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        assert len(seen) == 7 * 7 * 27
        zero = (0,) * 7
        assert all(g.v1 == zero and g.v2 == zero for g in seen)

    def test_g_refused(self):
        # the library enumerates the character groups alone
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="not enumerable"):
            subgroup_elems(P, "G")
        for tag in ("G", "H", "Q8"):
            with pytest.raises(ValueError, match="unknown subgroup tag"):
                subgroup_elements(P, tag)


class TestSerialization:
    def test_roundtrip(self):
        P = params_make(2, 7, 3)
        rng = random.Random(17)
        for _ in range(100):
            g = rand_elem(P, rng)
            d = json.loads(json.dumps(elem_to_dict(g)))
            assert set(d) == {"v1", "x1", "v2", "x2", "h"}
            assert GroupElem(d["v1"], d["x1"], d["v2"], d["x2"],
                             *d["h"]) == g

    def test_pack_roundtrip(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2), (2, 11, 5)]:
            P = params_make(ell, p, r)
            rng = random.Random(19)
            total = (P.dsz * P.p) ** 2 * P.r ** 3
            assert total < 2 ** 63
            for _ in range(200):
                key = rng.randrange(total)
                assert pack_key(P, unpack_key(P, key)) == key


class TestMultOrder:
    def test_matches_the_power_loop(self):
        for n in range(1, 1000):
            for a in (2, 3, 5, 7, 10, n - 1):
                if math.gcd(a, n) != 1:
                    continue
                k, v = 1, a % n
                while v != 1 % n:
                    v, k = v * a % n, k + 1
                assert mult_order(a, n) == k, (a, n)

    def test_rejects_non_units(self):
        with pytest.raises(ValueError, match="invertible"):
            mult_order(6, 9)
