"""Field layer: deterministic construction, exact arithmetic, Frobenius."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol
from sympy.polys.domains import GF

from mfblocks import make_char, run_checks
from mfblocks.field import (
    FieldContext, _sum_table, digit_sum, digits, field_make, root_of_unity,
    undigits,
)
from mfblocks.groups import (
    d_digits, d_key, d_pack, digit_dtype, params_make,
)
from reference import (
    d_unpack, f_add, f_from_coeffs, f_neg, field_frobenius,
    poly_is_irreducible,
)

X = Symbol("x")


def sympy_irreducible(coeffs, ell):
    return Poly(list(reversed(coeffs)), X, domain=GF(ell)).is_irreducible


class TestConstruction:
    def test_prime_field(self):
        ctx = field_make(2, 1)
        assert ctx.order == 2
        assert ctx.generator == 1
        assert ctx.mul(1, 1) == 1 and f_add(ctx, 1, 1) == 0

    def test_f64_frozen(self):
        ctx = field_make(2, 6)
        # x^6 + x + 1, generator t
        assert ctx.modulus == (1, 1, 0, 0, 0, 0, 1)
        assert ctx.generator == 2

    def test_f81_frozen(self):
        ctx = field_make(3, 4)
        # x^4 + x + 2, generator t
        assert ctx.modulus == (2, 1, 0, 0, 1)
        assert ctx.generator == 3

    @pytest.mark.parametrize("ell,d", [(2, 6), (3, 4), (2, 20)])
    def test_modulus_minimal_irreducible(self, ell, d):
        # independent oracle: sympy confirms the modulus is irreducible and
        # every smaller candidate (packed-integer order) is not
        ctx = field_make(ell, d)
        assert sympy_irreducible(ctx.modulus, ell)
        low = f_from_coeffs(ctx, ctx.modulus[:-1])
        for smaller in range(low):
            digits, v = [], smaller
            for _ in range(d):
                digits.append(v % ell)
                v //= ell
            assert not sympy_irreducible(digits + [1], ell)

    def test_gcd_test_picks_the_trial_division_modulus(self):
        # the library's Ben-Or test against trial division: the first
        # candidate in packed order that passes must be the same one
        from mfblocks.field import _poly_is_irreducible
        cases = [(ell, d) for ell in (2, 3, 5, 7) for d in range(1, 21)
                 if ell ** d <= 2 ** 20] + [(3, 20)]
        for ell, d in cases:
            picks = []
            for test in (_poly_is_irreducible, poly_is_irreducible):
                for low in range(ell ** d):
                    cand = [low // ell ** k % ell for k in range(d)] + [1]
                    if test(cand, ell):
                        picks.append(cand)
                        break
            assert picks[0] == picks[1], (ell, d)
        assert field_make(3, 20).modulus == tuple(picks[0])

    @pytest.mark.parametrize("ell,d", [(2, 6), (3, 4)])
    def test_generator_order_brute(self, ell, d):
        ctx = field_make(ell, d)
        v, n = ctx.generator, 1
        while v != 1:
            v = ctx.mul(v, ctx.generator)
            n += 1
        assert n == ctx.order - 1
        # minimality: no smaller element has full order
        for g in range(1, ctx.generator):
            v, n = g, 1
            while v != 1 and n <= ctx.order:
                v = ctx.mul(v, g)
                n += 1
            assert not (v == 1 and n == ctx.order - 1)

    def test_generator_of_lower_order_rejected(self):
        # x^3 has order 5 in F_16, so its powers repeat before q - 1
        ctx = field_make(2, 4)
        with pytest.raises(RuntimeError, match="order 15"):
            FieldContext(2, 4, ctx.modulus, generator=8)

    def test_deterministic(self):
        a, b = field_make(3, 4), field_make(3, 4)
        assert a.modulus == b.modulus and a.generator == b.generator

    def test_errors(self):
        with pytest.raises(ValueError):
            field_make(4, 3)
        with pytest.raises(ValueError):
            field_make(2, 0)
        with pytest.raises(ValueError):
            field_make(2, 25)

    def test_order_past_int64_refused(self):
        # (101, 23, 11) is admissible with label field degree ord_11(101)
        # = 10, and 101^10 > 2^63: refused before the modulus search.  At
        # (101, 11, 5) the label field is F_101, and F_{101^10}, d =
        # lcm(10, 1), is refused where the group algebra first needs it
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="101\\^10 = 110462212541120451001"):
            params_make(101, 23, 11)
        P = params_make(101, 11, 5)
        assert P.lctx.order == 101
        with pytest.raises(ValueError,
                           match="101\\^10 = 110462212541120451001"):
            P.ctx
        assert time.perf_counter() - start < 1.0

    def test_label_field_refusal_names_m(self):
        # at (2,59,29) the label field F_2(zeta_29) has degree m =
        # ord_29(2) = 28: Params names m and the label field, while
        # verify's refusal of F_{ell^d} at (2,103,17) still names d
        with pytest.raises(ValueError, match="label field: extension degree"
                           " m = 28 outside"):
            params_make(2, 59, 29)
        P = params_make(2, 103, 17)
        (row,) = run_checks(P, make_char(P, "Z", 1),
                            names=["product_gate"]).rows
        assert row.witness == {
            "reason": "extension degree d = 408 outside [1, 24]"}


class TestArithmetic:
    def test_inverses_exhaustive(self):
        for ell, d in [(2, 6), (3, 4)]:
            ctx = field_make(ell, d)
            for a in range(1, ctx.order):
                assert ctx.mul(a, ctx.inv(a)) == ctx.one

    def test_field_axioms_exhaustive_f64(self):
        ctx = field_make(2, 6)
        elems = range(64)
        for a in elems:
            for b in elems:
                assert f_add(ctx, a, b) == f_add(ctx, b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
        # spot associativity/distributivity on a grid
        for a in range(0, 64, 7):
            for b in range(0, 64, 5):
                for c in range(0, 64, 11):
                    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
                    assert ctx.mul(a, f_add(ctx, b, c)) == f_add(ctx, ctx.mul(a, b), ctx.mul(a, c))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
    def test_axioms_f81(self, a, b, c):
        ctx = field_make(3, 4)
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.mul(a, f_add(ctx, b, c)) == f_add(ctx, ctx.mul(a, b), ctx.mul(a, c))
        assert f_add(ctx, a, f_neg(ctx, a)) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
    def test_large_field_mul_matches_tables_free_path(self, a, b):
        ctx = field_make(2, 20)
        ab = ctx.mul(a, b)
        assert ctx.mul(b, a) == ab
        if a:
            assert ctx.mul(ctx.inv(a), ab) == b

    def test_coeff_roundtrip(self):
        ctx = field_make(3, 4)
        for a in range(81):
            assert f_from_coeffs(ctx, ctx.to_coeffs(a)) == a
        assert ctx.to_coeffs(f_from_coeffs(ctx, [2, 1, 0, 1])) == [2, 1, 0, 1]

    def test_from_coeffs_rejects_too_many(self):
        ctx = field_make(3, 4)
        with pytest.raises(ValueError, match="5 coefficients"):
            f_from_coeffs(ctx, [0, 1, 0, 0, 1])


class TestFrobenius:
    def test_squaring_example(self):
        ctx = field_make(2, 6)
        t = 2
        assert field_frobenius(ctx, t, 1) == ctx.mul(t, t)

    def test_identity_at_d(self):
        for ell, d in [(2, 6), (3, 4)]:
            ctx = field_make(ell, d)
            for x in range(0, ctx.order, 5):
                assert field_frobenius(ctx, x, d) == x

    def test_prime_field_fixed(self):
        ctx = field_make(3, 4)
        for x in range(3):
            assert field_frobenius(ctx, x, 1) == x

    def test_vfrob_is_the_ell_th_power(self):
        for ell, d in [(2, 10), (3, 6)]:
            ctx = field_make(ell, d)
            got = ctx.vfrob(np.arange(ctx.order))
            assert got.tolist() == [ctx.pow(x, ell) for x in range(ctx.order)]

    def test_ring_homomorphism_exhaustive_f64(self):
        ctx = field_make(2, 6)
        for a in range(64):
            fa = field_frobenius(ctx, a, 1)
            for b in range(64):
                fb = field_frobenius(ctx, b, 1)
                assert field_frobenius(ctx, f_add(ctx, a, b), 1) == f_add(ctx, fa, fb)
                assert field_frobenius(ctx, ctx.mul(a, b), 1) == ctx.mul(fa, fb)


class TestRootsOfUnity:
    def test_trivial(self):
        ctx = field_make(2, 6)
        assert root_of_unity(ctx, 1) == ctx.one

    @pytest.mark.parametrize("m", [3, 7, 9, 21, 63])
    def test_exact_order_f64(self, m):
        ctx = field_make(2, 6)
        z = root_of_unity(ctx, m)
        assert ctx.pow(z, m) == ctx.one
        for q in {f for f in (2, 3, 7) if m % f == 0}:
            assert ctx.pow(z, m // q) != ctx.one

    def test_divisibility_of_powers(self):
        ctx = field_make(2, 6)
        z = root_of_unity(ctx, 9)
        for k in range(1, 28):
            assert (ctx.pow(z, k) == ctx.one) == (k % 9 == 0)

    def test_non_divisor_error(self):
        ctx = field_make(2, 6)
        with pytest.raises(ValueError):
            root_of_unity(ctx, 5)


class TestTableFree:
    """The table-free vector kernels against the tables and the scalar
    product."""

    @pytest.mark.parametrize("ell,d", [(2, 1), (2, 6), (2, 10), (3, 4),
                                       (5, 3), (7, 2), (7, 1)])
    def test_kernels_match_tables_and_scalars(self, ell, d):
        ctx = field_make(ell, d)
        free = FieldContext(ell, d, ctx.modulus, ctx.generator,
                            build_tables=False)
        rng = np.random.default_rng(100 * ell + d)
        a = rng.integers(0, ctx.order, 200)
        b = rng.integers(0, ctx.order, 200)
        a[:5] = 0
        b[3:8] = 0
        # without tables the scalar product is the schoolbook one
        prod = [free.mul(int(x), int(y)) for x, y in zip(a, b)]
        frob = [field_frobenius(free, int(x), 1) for x in a]
        for kernels in (ctx, free):
            assert kernels.vmul(a, b).tolist() == prod
            assert kernels.vfrob(a).tolist() == frob
            for c in (0, 1, int(a[10]), ctx.order - 1):
                want = [free.mul(c, int(y)) for y in b]
                assert kernels.vscale(c, b).tolist() == want
                assert kernels.vmul(np.int64(c), b).tolist() == want
            outer = [[free.mul(int(x), int(y)) for y in b[:20]]
                     for x in a[:30]]
            assert kernels.vmul(a[:30, None], b[None, :20]).tolist() == outer
            assert kernels.vmul(b[None, :20], a[:30, None]).tolist() == \
                outer

    @pytest.mark.parametrize("ell,d", [(2, 2), (2, 3), (3, 2), (2, 6),
                                       (3, 4)])
    def test_table_product_on_every_pair(self, ell, d):
        # a log sum with a zero operand reaches the sentinel 2(q-1) or
        # more and clips onto the zero there; the scalar mul is the
        # reference on all q^2 pairs
        ctx = field_make(ell, d)
        q = ctx.order
        a, b = np.divmod(np.arange(q * q), q)
        got = ctx.vmul(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == [ctx.mul(int(x), int(y))
                                for x, y in zip(a, b)]
        assert (got[(a == 0) | (b == 0)] == 0).all()
        # a scalar times a vector, and the outer product by broadcasting
        row = np.arange(q)
        for c in range(q):
            assert ctx.vmul(np.int64(c), row).tolist() == \
                got[c * q:(c + 1) * q].tolist()
        outer = ctx.vmul(row[:, None], row[None, :])
        assert outer.dtype == np.int64
        assert outer.ravel().tolist() == got.tolist()

    @pytest.mark.parametrize("ell,d", [(2, 20), (3, 12)])
    def test_beyond_the_table_limit(self, ell, d):
        # no tables here: the scalar product is the schoolbook one
        ctx = field_make(ell, d)
        rng = np.random.default_rng(d)
        a = rng.integers(0, ctx.order, 100)
        b = rng.integers(0, ctx.order, 100)
        a[0] = 0
        assert ctx.vmul(a, b).tolist() == \
            [ctx.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert ctx.vscale(int(b[1]), a).tolist() == \
            [ctx.mul(int(b[1]), int(x)) for x in a]
        assert ctx.vfrob(a).tolist() == [ctx.pow(int(x), ell) for x in a]


class TestCodec:
    """digits and undigits against the scalar digit loops."""

    @pytest.mark.parametrize("ell,p,r", [(2, 7, 3), (3, 5, 2), (131, 3, 2)])
    def test_d_vectors(self, ell, p, r):
        P = params_make(ell, p, r)
        packed = np.arange(P.dsz)
        rows = d_digits(P, packed)
        assert rows.dtype == digit_dtype(P)
        assert rows.tolist() == [list(d_unpack(P, t)[1:])
                                 for t in range(P.dsz)]
        assert d_key(P, rows).tolist() == packed.tolist()
        assert [d_pack(P, (0,) + tuple(row)) for row in rows.tolist()] == \
            packed.tolist()

    @pytest.mark.parametrize("ell,d,count", [(3, 4, None), (3, 12, 200)])
    def test_field_elements(self, ell, d, count):
        ctx = field_make(ell, d)
        if count is None:
            x = np.arange(ctx.order)
        else:
            x = np.random.default_rng(12).integers(0, ctx.order, count)
        D = digits(x, ell, d)
        assert D.tolist() == [ctx.to_coeffs(int(v)) for v in x]
        assert undigits(D, ell).tolist() == x.tolist()
        assert [f_from_coeffs(ctx, row) for row in D.tolist()] == x.tolist()

    def test_axes_dtypes_and_shapes(self):
        x = np.random.default_rng(3).integers(0, 5 ** 3, (4, 6))
        want = np.array([[[int(v) // 5 ** s % 5 for s in range(3)]
                          for v in row] for row in x])
        for axis in (0, 1, 2, -1):
            for dtype in (np.int8, np.float32, np.int64):
                D = digits(x, 5, 3, axis=axis, dtype=dtype)
                assert D.dtype == dtype
                assert np.array_equal(np.moveaxis(D, axis, -1), want)
                packed = undigits(D.astype(np.int64), 5, axis=axis)
                assert packed.dtype == np.int64
                assert np.array_equal(packed, x)
        # a 0-d input gets one axis of digits and packs back to 0-d
        D = digits(np.int64(47), 5, 3, axis=0)
        assert D.tolist() == [2, 4, 1]
        assert undigits(D, 5, axis=0).shape == ()
        assert int(undigits(D, 5, axis=0)) == 47

    def test_wide_digits(self):
        # at ell = 131 a digit passes int8; the quotient needs int32
        x = np.array([0, 1, 130, 131, 131 ** 3 - 1, 123456])
        D = digits(x, 131, 3, dtype=np.int64)
        assert D.tolist() == [[int(v) // 131 ** s % 131 for s in range(3)]
                              for v in x]
        assert undigits(D, 131).tolist() == x.tolist()


class TestDigitKernels:
    """vadd, vneg and bin_sum against the scalar add and neg."""

    @pytest.mark.parametrize("ell,d", [(2, 6), (3, 4), (5, 3), (7, 2),
                                       (3, 12), (131, 2)])
    def test_against_scalars(self, ell, d):
        ctx = field_make(ell, d)
        rng = np.random.default_rng(10 * ell + d)
        a = rng.integers(0, ctx.order, 300)
        b = rng.integers(0, ctx.order, 300)
        a[:6] = 0
        b[3:9] = 0
        b[20:30] = a[20:30]
        assert ctx.vadd(a, b).tolist() == \
            [f_add(ctx, int(x), int(y)) for x, y in zip(a, b)]
        assert ctx.vneg(a).tolist() == [f_neg(ctx, int(x)) for x in a]
        assert ctx.vadd(a, ctx.vneg(a)).tolist() == [0] * len(a)
        # repeated bins, a bin of zeros, a bin that cancels and empty bins
        bins = rng.integers(0, 40, 300)
        bins[:6] = 41
        bins[300 - 2 * ell:] = 42
        a[300 - 2 * ell:300 - ell] = a[300 - ell:] = 7 % ctx.order
        want = [0] * 45
        for k, c in zip(bins.tolist(), a.tolist()):
            want[k] = f_add(ctx, want[k], c)
        assert ctx.bin_sum(bins, 45, a).tolist() == want
        assert want[41] == 0 and want[42] == 0 and want[44] == 0
        assert ctx.bin_sum(bins[:0], 3, a[:0]).tolist() == [0, 0, 0]
        # one bin takes every term: its digit sums pass a byte
        top = np.full(300, ctx.order - 1)
        total = 0
        for c in top.tolist():
            total = f_add(ctx, total, c)
        assert ctx.bin_sum(np.zeros(300, dtype=np.int64), 1, top).tolist() \
            == [total]


def _digit_by_digit(a: int, b: int, ell: int, n: int) -> int:
    """The carry-free sum of two packed base-ell ints, one digit at a
    time: the reference for field.digit_sum."""
    return sum((a // ell ** s % ell + b // ell ** s % ell) % ell * ell ** s
               for s in range(n))


class TestDigitSum:
    """digit_sum's block tables against the digit-by-digit sum, at block
    counts 1, 2 and 3 and at the most digits an int64 holds; ell = 257
    has no table and sums one digit at a time."""

    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 67, 257])
    def test_against_digit_by_digit(self, ell):
        k, table = _sum_table(ell)
        most = max(n for n in range(1, 25) if ell ** n < 2 ** 63)
        rng = np.random.default_rng(ell)
        for n in sorted({1, k, k + 1, 2 * k + 1, most}):
            full = ell ** n - 1  # every digit ell - 1
            a = rng.integers(0, ell ** n, 300)
            b = rng.integers(0, ell ** n, 300)
            a[:4], b[2:6] = full, full
            b[10:20] = 0
            want = [_digit_by_digit(x, y, ell, n)
                    for x, y in zip(a.tolist(), b.tolist())]
            got = digit_sum(a, b, ell, n)
            assert got.dtype == np.int64 and got.tolist() == want
            # broadcast: rows against columns, and a scalar operand
            rows, cols = a[:12], b[:9]
            assert digit_sum(rows[:, None], cols, ell, n).tolist() == [
                [_digit_by_digit(x, y, ell, n) for y in cols.tolist()]
                for x in rows.tolist()]
            assert digit_sum(a, full, ell, n).tolist() == [
                _digit_by_digit(x, full, ell, n) for x in a.tolist()]
            assert digit_sum(cols, rows[:, None, None], ell, n).shape == \
                (12, 1, 9)
