"""Dense exact linear algebra against naive and sympy oracles."""

import numpy as np
import pytest

from mfblocks.field import field_make
from mfblocks.linalg import (
    _float_type, gf_apply_axis, gf_digits, gf_eye, gf_inv_matrix, gf_matmul,
    gf_planes, gf_rank, gf_times,
)
from reference import f_add


def naive_matmul(ctx, A, B):
    n, k = A.shape
    k2, m = B.shape
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = f_add(ctx, acc, ctx.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def rand_matrix(ctx, rng, shape):
    return rng.integers(0, ctx.order, size=shape, dtype=np.int64)


@pytest.mark.parametrize("ell,d", [(2, 6), (3, 4), (3, 1), (5, 2), (7, 1)])
class TestMatmul:
    def test_against_naive(self, ell, d):
        ctx = field_make(ell, d)
        rng = np.random.default_rng(2)
        for shape in [(5, 7, 4), (1, 3, 1), (1, 40, 1), (8, 8, 8),
                      (0, 4, 3), (3, 4, 0), (3, 0, 2)]:
            A = rand_matrix(ctx, rng, shape[:2])
            B = rand_matrix(ctx, rng, shape[1:])
            got = gf_matmul(ctx, A, B)
            assert got.shape == (shape[0], shape[2])
            assert got.dtype == np.int64
            assert np.array_equal(got, naive_matmul(ctx, A, B))

    def test_float32_path(self, ell, d):
        ctx = field_make(ell, d)
        rng = np.random.default_rng(3)
        A = rand_matrix(ctx, rng, (6, 9))
        B = rand_matrix(ctx, rng, (9, 5))
        assert _float_type(d, 9, ell) is np.float32
        assert np.array_equal(gf_matmul(ctx, A, B), naive_matmul(ctx, A, B))

    def test_identity(self, ell, d):
        ctx = field_make(ell, d)
        rng = np.random.default_rng(4)
        A = rand_matrix(ctx, rng, (6, 6))
        assert np.array_equal(gf_matmul(ctx, A, gf_eye(6)), A)
        assert np.array_equal(gf_matmul(ctx, gf_eye(6), A), A)


@pytest.mark.parametrize("ell,d", [(2, 6), (3, 4), (2, 20)])
def test_planes_built_once_serve_every_product(ell, d):
    # gf_planes of one B, then gf_times by it for left operands of
    # several heights, packed and as their digits, against gf_matmul and
    # the naive product over F_64, F_81 and F_{2^20}; the planes are
    # left as they were built
    ctx = field_make(ell, d)
    rng = np.random.default_rng(ell + d)
    B = rand_matrix(ctx, rng, (5, 4))
    right = gf_planes(ctx, B)
    kept = right.copy()
    assert right.shape == (d * 5, d * 4)
    for m in (0, 1, 7):
        A = rand_matrix(ctx, rng, (m, 5))
        want = naive_matmul(ctx, A, B)
        assert np.array_equal(gf_matmul(ctx, A, B), want)
        assert np.array_equal(gf_times(ctx, A, right), want)
        left = gf_digits(ctx, A, right)
        assert left.shape == (m, d, 5) and left.dtype == right.dtype
        assert np.array_equal(gf_times(ctx, left, right), want)
    assert np.array_equal(right, kept)


def test_shape_mismatch_raises():
    ctx = field_make(3, 4)
    with pytest.raises(ValueError):
        gf_matmul(ctx, gf_eye(3), gf_eye(4))
    with pytest.raises(ValueError):
        gf_matmul(ctx, gf_eye(3), np.zeros(3, dtype=np.int64))


def test_float64_regime():
    # d * k * (ell - 1)^2 = 6 * 80000 * 36 is past 2^24, so the sums run
    # in float64; the oracle sums the elementwise products digit by digit
    ell, d, k = 7, 6, 80000
    assert d * k * (ell - 1) ** 2 > 2 ** 24
    assert _float_type(d, k, ell) is np.float64
    ctx = field_make(ell, d)
    rng = np.random.default_rng(11)
    A = rand_matrix(ctx, rng, (2, k))
    B = rand_matrix(ctx, rng, (k, 2))
    want = np.zeros((2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            prods = ctx.vmul(A[i], B[:, j])
            want[i, j] = ctx.pack_planes(
                [ctx.digit_plane(prods, s).sum(keepdims=True)
                 for s in range(d)])[0]
    assert np.array_equal(gf_matmul(ctx, A, B), want)


def test_float_type_edges():
    # the bound d * k * (ell - 1)^2 against 2^24 and 2^53, no arrays
    assert _float_type(1, 2 ** 24 - 1, 2) is np.float32
    assert _float_type(1, 2 ** 24, 2) is np.float64
    assert _float_type(4, 2 ** 20 - 1, 3) is np.float32
    assert _float_type(4, 2 ** 20, 3) is np.float64
    assert _float_type(1, 2 ** 53 - 1, 2) is np.float64
    assert _float_type(1, 2 ** 51 - 1, 3) is np.float64
    with pytest.raises(ValueError):
        _float_type(1, 2 ** 53, 2)
    with pytest.raises(ValueError):
        _float_type(1, 2 ** 51, 3)
    assert _float_type(6, 0, 7) is np.float32


class TestElimination:
    def test_inverse_roundtrip(self):
        for ell, d in [(2, 6), (3, 4)]:
            ctx = field_make(ell, d)
            rng = np.random.default_rng(5)
            found = 0
            while found < 5:
                A = rand_matrix(ctx, rng, (7, 7))
                if gf_rank(ctx, A) < 7:
                    continue
                found += 1
                Ainv = gf_inv_matrix(ctx, A)
                assert np.array_equal(naive_matmul(ctx, A, Ainv), gf_eye(7))

    def test_singular_raises(self):
        ctx = field_make(2, 6)
        A = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            gf_inv_matrix(ctx, A)

    def test_non_square_raises(self):
        ctx = field_make(2, 6)
        with pytest.raises(ValueError, match="shape"):
            gf_inv_matrix(ctx, np.ones((3, 4), dtype=np.int64))

    def test_rank_against_scratch_gf3(self):
        # prime-field ranks checked against a from-scratch row reduction
        ctx = field_make(3, 1)
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = rand_matrix(ctx, rng, (6, 9))
            assert gf_rank(ctx, A) == rank_gf3_oracle(A)


def rank_gf3_oracle(A):
    """Row reduction over F_3 written from scratch."""
    M = [[int(v) % 3 for v in row] for row in A]
    rank = 0
    rows, cols = len(M), len(M[0])
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if M[i][c] % 3), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 if M[rank][c] % 3 == 1 else 2
        M[rank] = [(v * inv) % 3 for v in M[rank]]
        for i in range(rows):
            if i != rank and M[i][c] % 3:
                f = M[i][c]
                M[i] = [(a - f * b) % 3 for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


class TestTensorApply:
    def test_axis_contraction(self):
        ctx = field_make(2, 6)
        rng = np.random.default_rng(9)
        T = rand_matrix(ctx, rng, (4, 3, 5))
        M = rand_matrix(ctx, rng, (6, 3))
        out = gf_apply_axis(ctx, M, T, axis=1)
        assert out.shape == (4, 6, 5)
        for i in range(4):
            for k in range(5):
                expect = naive_matmul(ctx, M, T[i, :, k].reshape(-1, 1)).ravel()
                assert np.array_equal(out[i, :, k], expect)

    @pytest.mark.parametrize("ell,d", [(2, 6), (3, 4), (5, 2)])
    def test_every_axis_of_a_wide_tensor(self, ell, d):
        # a small matrix into each axis of a tensor whose other axes hold
        # far more entries: M times the axis-first flattening, checked
        # naively on sampled columns
        ctx = field_make(ell, d)
        rng = np.random.default_rng(11)
        T = rand_matrix(ctx, rng, (3, 40, 2, 30))
        for axis in range(4):
            M = rand_matrix(ctx, rng, (5, T.shape[axis]))
            out = gf_apply_axis(ctx, M, T, axis)
            assert out.dtype == np.int64
            assert out.shape == T.shape[:axis] + (5,) + T.shape[axis + 1:]
            flat = np.moveaxis(T, axis, 0).reshape(T.shape[axis], -1)
            expect = gf_matmul(ctx, M, flat)
            got = np.moveaxis(out, axis, 0).reshape(5, -1)
            assert np.array_equal(got, expect)
            for col in rng.choice(flat.shape[1], size=4, replace=False):
                assert np.array_equal(got[:, col], naive_matmul(
                    ctx, M, flat[:, [col]]).ravel())
