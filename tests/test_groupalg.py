"""Group algebra kernels against a definitional convolution oracle."""

import itertools
import random

import numpy as np
import pytest

import mfblocks.groupalg as galg
from mfblocks.characters import char_idempotent, make_char
from mfblocks.field import digit_sum
from mfblocks.groupalg import (
    block_fold, block_idempotent, block_mul, block_unfold,
    centralizes_block_H, ga_add, ga_basis, ga_from_terms, ga_frobenius_twist,
    ga_mul, ga_zero,
)
from reference import (
    b0_pi_product_all_lanes, d_unpack, f_add, ga_coeff, ga_conjugate, ga_neg,
    ga_scale, ga_sub, ga_unit, side_inv_index, side_mul_table, unpack_key,
)
from mfblocks.groups import (
    GroupElem, Params, _side_mul, conjugate, d_pack, group_inv, group_mul,
    h_elem, identity, p_elem, pack_key, params_make,
)
from mfblocks.twisted import (
    b0_pi_inv, b0_pi_product, tt_from_terms, tt_is_zero,
)
import mfblocks.verify as V
from mfblocks.verify import _random_label, _side_table, run_checks


def random_elem(P, rng):
    Dsz = P.ell ** (P.p - 1)
    return unpack_key(
        P, rng.randrange(Dsz * P.p * Dsz * P.p * P.r ** 3))


def random_ga(P, rng, nterms):
    terms = []
    for _ in range(nterms):
        coeff = rng.randrange(1, P.ctx.order)
        terms.append((random_elem(P, rng), coeff))
    return ga_from_terms(P, terms)


def mul_oracle(P, x, y):
    """Definitional convolution via scalar group_mul."""
    acc = {}
    for kg, cg in zip(x.keys.tolist(), x.coeffs.tolist()):
        g = unpack_key(P, kg)
        for kh, ch in zip(y.keys.tolist(), y.coeffs.tolist()):
            k = pack_key(P, group_mul(P, g, unpack_key(P, kh)))
            c = P.ctx.mul(cg, ch)
            acc[k] = f_add(P.ctx, acc.get(k, 0), c)
    return ga_from_terms(
        P, [(unpack_key(P, k), c) for k, c in acc.items()])


class TestBasics:
    def test_zero_and_unit(self):
        P = params_make(2, 7, 3)
        z = ga_zero()
        assert len(z) == 0
        one = ga_unit(P)
        assert ga_coeff(P, one, identity(P)) == P.ctx.one
        x = random_ga(P, random.Random(0), 5)
        assert ga_mul(P, one, x) == x
        assert ga_mul(P, x, one) == x
        assert ga_mul(P, z, x) == z
        assert ga_add(P, x, z) == x

    def test_basis_and_coeff(self):
        P = params_make(2, 7, 3)
        g = h_elem(P, 1, 2, 0)
        x = ga_basis(P, g, 5)
        assert ga_coeff(P, x, g) == 5
        assert ga_coeff(P, x, identity(P)) == 0
        assert ga_basis(P, g, 0) == ga_zero()

    def test_add_sub_scale(self):
        P = params_make(3, 5, 2)
        rng = random.Random(1)
        x = random_ga(P, rng, 8)
        y = random_ga(P, rng, 8)
        assert ga_sub(P, ga_add(P, x, y), y) == x
        assert ga_add(P, x, ga_neg(P, x)) == ga_zero()
        s = 7
        lhs = ga_scale(P, s, ga_add(P, x, y))
        rhs = ga_add(P, ga_scale(P, s, x), ga_scale(P, s, y))
        assert lhs == rhs
        assert ga_scale(P, 0, x) == ga_zero()

    def test_cancellation_collision(self):
        # terms that collide under multiplication must combine mod ell
        P = params_make(2, 7, 3)
        g = h_elem(P, 1, 0, 0)
        x = ga_from_terms(P, [(identity(P), 1), (g, 1)])
        sq = ga_mul(P, x, x)
        # (1+g)^2 = 1 + 2g + g^2 = 1 + g^2 in characteristic 2
        assert ga_coeff(P, sq, g) == 0
        assert ga_coeff(P, sq, identity(P)) == 1
        assert ga_coeff(P, sq, group_mul(P, g, g)) == 1

    def test_keys_past_int64_rejected(self):
        # keys at (5,13,3) reach 2^68; H-only elements still fit
        P = params_make(5, 13, 3)
        assert len(ga_from_terms(P, [(h_elem(P, 1, 2, 0), 1)]).keys) == 1
        g = unpack_key(P, 2 ** 63)
        assert pack_key(P, g) == 2 ** 63
        with pytest.raises(ValueError, match="64 bits"):
            ga_from_terms(P, [(identity(P), 1), (g, 1)])

    def test_basis_key_past_int64_rejected(self):
        # the same guard as ga_from_terms, not an OverflowError
        P = params_make(5, 13, 3)
        with pytest.raises(ValueError, match="64 bits"):
            ga_basis(P, unpack_key(P, 2 ** 63))


class TestMulOracle:
    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (2, 11, 5)])
    def test_random_sparse(self, ell, p, r):
        P = params_make(ell, p, r)
        rng = random.Random(ell * 100 + p)
        for _ in range(6):
            x = random_ga(P, rng, rng.randrange(1, 7))
            y = random_ga(P, rng, rng.randrange(1, 7))
            assert ga_mul(P, x, y) == mul_oracle(P, x, y)

    def test_associativity(self):
        P = params_make(2, 7, 3)
        rng = random.Random(7)
        for _ in range(5):
            x = random_ga(P, rng, 4)
            y = random_ga(P, rng, 4)
            z = random_ga(P, rng, 4)
            assert ga_mul(P, ga_mul(P, x, y), z) == \
                ga_mul(P, x, ga_mul(P, y, z))

    def test_distributivity(self):
        P = params_make(3, 5, 2)
        rng = random.Random(8)
        x, y, z = (random_ga(P, rng, 5) for _ in range(3))
        assert ga_mul(P, x, ga_add(P, y, z)) == \
            ga_add(P, ga_mul(P, x, y), ga_mul(P, x, z))

    def test_chunked_path(self, monkeypatch):
        # force the lane chunking to split and recombine correctly
        P = params_make(2, 7, 3)
        rng = random.Random(9)
        x = random_ga(P, rng, 9)
        y = random_ga(P, rng, 11)
        expect = ga_mul(P, x, y)
        monkeypatch.setattr(galg, "_LANES", 16)
        assert ga_mul(P, x, y) == expect

    def test_conjugation(self):
        P = params_make(2, 7, 3)
        rng = random.Random(10)
        x = random_ga(P, rng, 6)
        g = random_elem(P, rng)
        got = ga_conjugate(P, x, g)
        expect = ga_from_terms(
            P, [(conjugate(P, unpack_key(P, k), g), c)
                for k, c in zip(x.keys.tolist(), x.coeffs.tolist())])
        assert got == expect
        h = random_elem(P, rng)
        assert ga_conjugate(P, got, h) == \
            ga_conjugate(P, x, group_mul(P, g, h))


class TestBlockIdempotent:
    def test_idempotent_central(self):
        for ell, p, r in [(2, 7, 3), (3, 5, 2)]:
            P = params_make(ell, p, r)
            e = block_idempotent(P, make_char(P, "Z", 1))
            assert ga_mul(P, e, e) == e
            rng = random.Random(11)
            for _ in range(4):
                x = random_ga(P, rng, 5)
                assert ga_mul(P, x, e) == ga_mul(P, e, x)

    def test_orthogonal_distinct(self):
        P = params_make(2, 11, 5)
        e1 = block_idempotent(P, make_char(P, "Z", 1))
        e2 = block_idempotent(P, make_char(P, "Z", 2))
        assert ga_mul(P, e1, e2) == ga_zero()

    def test_rejects_bad_character(self):
        P = params_make(2, 7, 3)
        with pytest.raises(ValueError, match="characters of Z"):
            block_idempotent(P, make_char(P, "L1", 1))
        with pytest.raises(ValueError, match="faithful"):
            block_idempotent(P, make_char(P, "Z", 0))


class TestCentralizer:
    def test_block_unit_centralizes(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        e = block_idempotent(P, theta)
        assert centralizes_block_H(P, theta, e)

    def test_g1_fails(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        e = block_idempotent(P, theta)
        x = ga_mul(P, ga_basis(P, h_elem(P, 1, 0, 0), 1), e)
        assert not centralizes_block_H(P, theta, x)

    def test_rejects_outside_block(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        with pytest.raises(ValueError, match="block"):
            centralizes_block_H(P, theta, ga_unit(P))


FAITHFUL = [((2, 7, 3), 1), ((2, 7, 3), 2), ((3, 5, 2), 1)]


class TestBlockFold:
    """kG e_theta against k_theta[G/Z], one key per Z-coset."""

    @pytest.mark.parametrize("cfg,e", FAITHFUL)
    def test_unfold_inverts_fold_on_the_block(self, cfg, e):
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        rng = random.Random(f"fold:{cfg}:{e}")
        block = block_idempotent(P, theta)
        assert block_fold(P, theta, block) == ga_unit(P)
        for n in (1, 3, 12):
            x = ga_mul(P, random_ga(P, rng, n), block)
            f = block_fold(P, theta, x)
            assert len(f) * P.r == len(x)
            assert block_unfold(P, theta, f) == x

    @pytest.mark.parametrize("cfg,e", FAITHFUL)
    def test_block_mul_is_the_group_product(self, cfg, e):
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        rng = random.Random(f"bmul:{cfg}:{e}")
        block = block_idempotent(P, theta)
        for nx, ny in ((1, 1), (4, 7), (10, 3)):
            x = ga_mul(P, random_ga(P, rng, nx), block)
            for y in (random_ga(P, rng, ny), ga_mul(
                    P, random_ga(P, rng, ny), block), ga_zero()):
                assert block_mul(P, theta, x, y) == ga_mul(P, x, y)
        assert block_mul(P, theta, ga_zero(), x) == ga_zero()

    def test_left_factor_outside_the_block_raises(self):
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        x = random_ga(P, random.Random(4), 3)
        with pytest.raises(ValueError, match="block"):
            block_mul(P, theta, x, block_idempotent(P, theta))

    @pytest.mark.parametrize("cfg,e", FAITHFUL)
    def test_whole_cosets_of_another_character_raise(self, cfg, e):
        # every Z-coset whole, its coefficients those of another
        # character of Z: the coefficient gate alone refuses it
        P = params_make(*cfg)
        theta = make_char(P, "Z", e)
        rng = random.Random(f"coset:{cfg}:{e}")
        for other in set(range(P.r)) - {e}:
            x = ga_mul(P, random_ga(P, rng, 4),
                       char_idempotent(P, make_char(P, "Z", other)))
            assert len(x) and len(x) % P.r == 0
            with pytest.raises(ValueError, match="block"):
                block_mul(P, theta, x, ga_unit(P))

    def test_unfold_refuses_an_unfolded_key(self):
        P = params_make(3, 5, 2)
        theta = make_char(P, "Z", 1)
        with pytest.raises(ValueError, match="c = 0"):
            block_unfold(P, theta, ga_basis(P, h_elem(P, 0, 0, 1)))


class TestLaneRuns:
    """groupalg._lane_runs cuts every block-bounded kernel's items into
    runs under the one budget _LANES."""

    @pytest.mark.parametrize("budget", [1, 7, 100, 1 << 14])
    def test_runs_cover_the_items_in_order_within_the_budget(
            self, budget, monkeypatch):
        monkeypatch.setattr(galg, "_LANES", budget)
        rng = random.Random(budget)
        for _ in range(200):
            lanes = np.array([rng.choice([0, 0, 1, 3, budget, budget + 1,
                                          rng.randrange(2 * budget + 2)])
                              for _ in range(rng.randrange(30))])
            runs = list(galg._lane_runs(len(lanes), lanes))
            # consecutive, in order, and every item with lanes in a run
            covered = [i for lo, hi in runs for i in range(lo, hi)]
            assert covered == sorted(set(covered))
            assert set(np.flatnonzero(lanes)) <= set(covered)
            for k, (lo, hi) in enumerate(runs):
                # no run opens on an item with no lanes
                assert lanes[lo] > 0
                total = lanes[lo:hi].sum()
                assert total <= budget or hi - lo == 1
                # greedy: the run stops before the next item with lanes
                # would put it over the budget
                nxt = runs[k + 1][0] if k + 1 < len(runs) else len(lanes)
                assert not lanes[hi:nxt].any()
                if nxt < len(lanes):
                    assert total + lanes[nxt] > budget

    def test_one_width_for_all(self, monkeypatch):
        monkeypatch.setattr(galg, "_LANES", 10)
        def runs(n, lanes):
            return list(galg._lane_runs(n, lanes))
        assert runs(7, 3) == runs(7, np.full(7, 3)) == [(0, 3), (3, 6), (6, 7)]
        assert runs(3, 11) == [(0, 1), (1, 2), (2, 3)]
        assert runs(5, 0) == runs(0, 4) == []


class TestLaneChunks:
    """A kG product merges each chunk of lanes as it is formed and the
    partial sums once at the end."""

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_few_lanes_a_chunk_give_the_single_chunk_result(
            self, cfg, monkeypatch):
        P = params_make(*cfg)
        theta = make_char(P, "Z", 1)
        rng = random.Random(f"chunks:{cfg}")
        x, y = random_ga(P, rng, 9), random_ga(P, rng, 11)
        bx = ga_mul(P, x, block_idempotent(P, theta))
        # single vertex terms keep the products at a few thousand lanes
        ts = [tt_from_terms(P, theta, [
            (_random_label(P, 1, rng, 0), _random_label(P, 2, rng, 0),
             rng.randrange(1, P.ctx.order))], P.ctx) for _ in range(2)]
        chunks, lanes = [], galg._lanes

        def spy(P, x, y):
            for chunk in lanes(P, x, y):
                chunks.append(len(chunk[0]))
                yield chunk

        def products():
            chunks.clear()
            u, v = (b0_pi_inv(P, theta, t) for t in ts)
            return [ga_mul(P, x, y), block_mul(P, theta, bx, y), u, v,
                    b0_pi_product(P, theta, u, v),
                    b0_pi_product(P, theta, x, y)], len(chunks)
        monkeypatch.setattr(galg, "_lanes", spy)
        monkeypatch.setattr(galg, "_LANES", 1 << 40)
        whole, n_whole = products()
        monkeypatch.setattr(galg, "_LANES", 5)
        split, n_split = products()
        assert split == whole and n_split > 10 * n_whole
        assert all(len(z) for z in whole[:4])
        assert not tt_is_zero(whole[5])

    @pytest.mark.parametrize("cfg", [(2, 7, 3), (3, 5, 2)])
    def test_a_key_that_cancels_across_chunks_is_absent(
            self, cfg, monkeypatch):
        # x = g + h, y = g^-1 u - h^-1 u: the lanes g g^-1 u and h h^-1 u
        # fall in the chunks of the rows g and h of x, and cancel
        P = params_make(*cfg)
        rng = random.Random(f"cancel:{cfg}")
        g, h, u = (random_elem(P, rng) for _ in range(3))
        one = P.ctx.one
        minus = int(P.ctx.vneg(np.array([one]))[0])
        gi_u, hi_u = (group_mul(P, group_inv(P, w), u) for w in (g, h))
        x = ga_from_terms(P, [(g, one), (h, one)])
        y = ga_from_terms(P, [(gi_u, one), (hi_u, minus)])
        monkeypatch.setattr(galg, "_LANES", 1)
        xy = ga_mul(P, x, y)
        assert pack_key(P, u) not in xy.keys.tolist()
        assert xy == ga_from_terms(P, [(group_mul(P, g, hi_u), minus),
                                       (group_mul(P, h, gi_u), one)])
        assert len(xy) == 2

    def test_largest_quick_gate_product_holds_one_chunk(self, monkeypatch):
        # quick product_gate at (2,7,3) forms its largest b0_pi_product
        # on |x| = 2352 and |y| = 5376 keys: collapsing all its lanes at
        # once traces 17.6 MB, one chunk of lanes and the merged partial
        # sums about 1.8 MB
        import tracemalloc
        P = params_make(2, 7, 3)
        theta = make_char(P, "Z", 1)
        seen = []

        def spy(P, theta, x, y):
            seen.append((x, y, b0_pi_product(P, theta, x, y)))
            return seen[-1][2]
        monkeypatch.setattr(V, "b0_pi_product", spy)
        assert V._check_product_gate(P, theta, "quick",
                                     random.Random("0:product_gate")) is None
        seen.sort(key=lambda s: len(s[0]) * len(s[1]), reverse=True)
        x, y, _ = seen[0]
        assert (len(x), len(y)) == (2352, 5376)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = b0_pi_product(P, theta, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert got == b0_pi_product_all_lanes(P, theta, x, y)
        # that product is 0, as are most of the gate's: the largest one
        # that is not meets the reference too
        x, y, got = next(s for s in seen if not tt_is_zero(s[2]))
        assert got == b0_pi_product_all_lanes(P, theta, x, y)


class TestFrobeniusTwist:
    def test_ring_automorphism(self):
        P = params_make(2, 7, 3)
        rng = random.Random(12)
        for _ in range(20):
            x = random_ga(P, rng, 4)
            y = random_ga(P, rng, 4)
            tx, ty = ga_frobenius_twist(P, x), ga_frobenius_twist(P, y)
            assert ga_frobenius_twist(P, ga_mul(P, x, y)) == ga_mul(P, tx, ty)
            assert ga_frobenius_twist(P, ga_add(P, x, y)) == ga_add(P, tx, ty)

    def test_iterate_is_identity(self):
        P = params_make(2, 7, 3)
        rng = random.Random(13)
        x = random_ga(P, rng, 6)
        y = x
        for _ in range(P.d):
            y = ga_frobenius_twist(P, y)
        assert y == x

    def test_prime_coeffs_fixed(self):
        P = params_make(2, 7, 3)
        x = ga_from_terms(P, [(identity(P), 1), (h_elem(P, 1, 1, 1), 1)])
        assert ga_frobenius_twist(P, x) == x

    def test_moves_block_idempotent(self):
        P = params_make(2, 7, 3)
        e1 = block_idempotent(P, make_char(P, "Z", 1))
        e2 = block_idempotent(P, make_char(P, "Z", 2))
        assert ga_frobenius_twist(P, e1) == e2
        assert ga_frobenius_twist(P, e2) == e1


def _full_side_table(P):
    """T[u, v] = u^-1 v over the side indices d p + y, assembled from
    the D-parts δ that verify's _side_table returns and the P-part
    y' - y of (d y)^-1 (d' y'); None and the witness if a gate fails."""
    delta, off = _side_table(P)
    if off is not None:
        return None, off
    y = np.arange(P.p)
    tab = delta[..., None].astype(np.int64) * P.p + (y - y[:, None])[
        :, None, :] % P.p
    return tab.reshape(P.dsz * P.p, P.dsz * P.p), None


class TestSideTables:
    """The side table T[u, v] = u^-1 v that verify builds with the
    product kernel, against group_mul and the reference table."""

    @pytest.mark.parametrize("ell,p", [(2, 7), (3, 5), (5, 3)])
    def test_table_matches_group_mul(self, ell, p):
        P = params_make(ell, p, 3 if p == 7 else 2)
        tab, off = _full_side_table(P)
        n = P.dsz * P.p
        assert off is None
        assert _side_table(P)[0].shape == (P.dsz, P.p, P.dsz)
        assert tab.shape == (n, n)
        assert np.array_equal(tab, side_mul_table(P)[side_inv_index(P)])
        rng = random.Random(15)
        zero = d_unpack(P, 0)
        for _ in range(200):
            i, j = rng.randrange(n), rng.randrange(n)
            di, xi = divmod(i, P.p)
            dj, xj = divmod(j, P.p)
            g = GroupElem(d_unpack(P, di), xi, zero, 0, 0, 0, 0)
            h = GroupElem(d_unpack(P, dj), xj, zero, 0, 0, 0, 0)
            gh = group_mul(P, group_inv(P, g), h)
            assert tab[i, j] == d_pack(P, gh.v1) * P.p + gh.x1
            assert tab[i, i] == 0

    def test_same_table_serves_side_two(self):
        P = params_make(3, 5, 2)
        tab, _ = _full_side_table(P)
        rng = random.Random(16)
        n = tab.shape[0]
        zero = d_unpack(P, 0)
        for _ in range(100):
            i, j = rng.randrange(n), rng.randrange(n)
            g = GroupElem(zero, 0, d_unpack(P, i // P.p), i % P.p, 0, 0, 0)
            h = GroupElem(zero, 0, d_unpack(P, j // P.p), j % P.p, 0, 0, 0)
            gh = group_mul(P, group_inv(P, g), h)
            assert tab[i, j] == d_pack(P, gh.v2) * P.p + gh.x2

    def test_refuses_large(self):
        # (2,19,9): the side dimension 19 * 2^18 is past the embedding
        # tables, and the check skips before any table is built
        P = params_make(2, 19, 9)
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["embed_multiplicative"]).rows
        assert row.status == "skip"
        assert row.witness["reason"] == (
            f"side dimension {19 * 2 ** 18} is beyond the embedding tables")
        assert "ga_tables" not in P._cache
        assert "quiver_embed" not in P._cache


class TestActionTables:
    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2)])
    def test_tables_match_the_vector_loops(self, ell, p, r):
        # the numpy builder against entry-by-entry rewrites of the
        # length-p D-vectors
        P = params_make(ell, p, r)
        tabs = galg._tables(P)
        vecs = [d_unpack(P, w) for w in range(P.dsz)]
        for w, v in enumerate(vecs):
            for x in range(p):
                out = [v[(h + x) % p] for h in range(p)]
                assert tabs["trans"][x, w] == d_pack(
                    P, [(t - out[0]) % ell for t in out])
            for t in range(r):
                out = [0] * p
                for g in range(p):
                    out[(g * P._g0pow[t]) % p] = v[g]
                assert tabs["scale"][t, w] == d_pack(P, out)

    @pytest.mark.parametrize("ell,p,r", [(3, 5, 2), (5, 3, 2), (67, 3, 2)])
    def test_digit_sum_matches_side_mul(self, ell, p, r):
        # field.digit_sum, the D-addition of _mul_lanes, against the
        # scalar D-addition of _side_mul: on every pair of vectors where
        # there are few, and at ell = 67, where two digits sum to 132
        # past int8, on every pair with digits 0 and ell - 1 and on
        # random pairs; once as flat lanes and once broadcast
        P = params_make(ell, p, r)
        top = (0, ell - 1)
        extreme = [d_pack(P, (0, *v))
                   for v in itertools.product(top, repeat=p - 1)]
        rng = random.Random(ell)
        if P.dsz <= 81:
            pairs = list(itertools.product(range(P.dsz), repeat=2))
        else:
            pairs = list(itertools.product(extreme, repeat=2)) + [
                (rng.randrange(P.dsz), rng.randrange(P.dsz))
                for _ in range(10000)]
        a, b = np.array(pairs).T
        got = digit_sum(a, b, ell, p - 1)
        for x, y, s in zip(a.tolist(), b.tolist(), got.tolist()):
            v, _ = _side_mul(P, d_unpack(P, x), 0, d_unpack(P, y), 0)
            assert s == d_pack(P, v)
        ex = np.array(extreme)
        flat = digit_sum(np.repeat(ex, len(ex)), np.tile(ex, len(ex)), ell,
                         p - 1)
        assert digit_sum(ex[:, None], ex, ell, p - 1).ravel().tolist() == \
            flat.tolist()
        assert digit_sum(ex, int(ex[-1]), ell, p - 1).tolist() == \
            flat[len(ex) - 1::len(ex)].tolist()

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2),
                                         (7, 3, 2), (3, 13, 4)])
    def test_lanes_match_group_mul_in_every_call_shape(self, ell, p, r):
        # _mul_lanes against group_mul on random keys, about half of
        # whose D-vectors have every digit ell - 1, in each broadcast
        # shape the library calls it with; a fresh Params, so that the
        # 16M-entry tables of (3,13,4) go with the test
        P = Params(ell, p, r)
        rng = random.Random(ell * p * r)
        top = [0] + [ell - 1] * (p - 1)

        def elem():
            v1, v2 = (top if rng.random() < 0.5 else
                      [0] + [rng.randrange(ell) for _ in range(p - 1)]
                      for _ in range(2))
            return GroupElem(v1, rng.randrange(p), v2, rng.randrange(p),
                             *(rng.randrange(r) for _ in range(3)))

        gs, hs = [elem() for _ in range(12)], [elem() for _ in range(9)]
        gk, hk = (np.array([pack_key(P, g) for g in xs]) for xs in (gs, hs))
        gh = [[group_mul(P, g, h) for h in hs] for g in gs]
        want = np.array([[pack_key(P, x) for x in row] for row in gh])
        lanes = galg._mul_lanes
        got = lanes(P, gk[:, None], hk)  # (rows, 1) x (cols,)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(lanes(P, gk[:1], hk), want[0])
        assert np.array_equal(lanes(P, gk, hk[:1]), want[:, 0])
        assert np.array_equal(lanes(P, gk[None], hk[:, None]), want.T)
        # (t, 1, 1) x (m, n), the conjugation shape of the closed route
        assert np.array_equal(lanes(P, gk[:3, None, None], want), [
            [[pack_key(P, group_mul(P, g, x)) for x in row] for row in gh]
            for g in gs[:3]])

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (5, 3, 2)])
    def test_x_scaling_matches_group_mul(self, ell, p, r):
        # the P-part of g h in the lanes, g0^-a x1 and g0^-b x2 mod p for
        # g = g1^a g2^b, against group_mul on every such pair
        P = params_make(ell, p, r)
        gs = [h_elem(P, a, b, 0) for a in range(r) for b in range(r)]
        hs = [group_mul(P, p_elem(P, 1, x), p_elem(P, 2, y))
              for x in range(p) for y in range(p)]
        lanes = galg._mul_lanes(
            P, np.array([pack_key(P, g) for g in gs])[:, None],
            np.array([pack_key(P, h) for h in hs]))
        assert lanes.tolist() == [[pack_key(P, group_mul(P, g, h))
                                   for h in hs] for g in gs]
