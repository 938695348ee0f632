"""Exact dense linear algebra over the packed finite-field representation.

Matrices are numpy int64 arrays of packed field elements: the base-ell
digits of the polynomial representative, little-endian.  A product
A B is one float BLAS call on the F_ell-linear form of its operands:

  out[i, c] = sum_k ell^k (sum_{j,s} a_s[i, j] b'_{s,k}[j, c] mod ell)

where a_s is digit s of A and b'_{s,k} is digit k of x^s B.  The left
operand becomes the (m, d*k) matrix of its digits, the right one the
(d*k, d*n) matrix of the digits of x^0 B, ..., x^(d-1) B, each built
from the last by shifting the digits up and folding the top digit back
through the modulus.  Every entry of the float product is a sum of at
most d*k terms below ell^2, so it is exact in float32 while
d*k*(ell-1)^2 < 2^24 and in float64 while it is below 2^53.
Elimination uses the context's row kernels.
"""

from __future__ import annotations

import numpy as np

from .field import FieldContext, _reduce, digits, undigits


def _float_type(d: int, k: int, ell: int) -> type:
    """The float type whose integers hold every sum of a product with
    inner dimension k over F_{ell^d}."""
    bound = d * k * (ell - 1) ** 2
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise ValueError(f"inner dimension {k} over F_{ell}^{d} overflows the"
                     f" exact range of float64")


def _int_type(top: int) -> np.dtype:
    """The narrowest signed integer type that holds 0..top."""
    return np.min_scalar_type(-(top + 1))


def gf_matmul(ctx: FieldContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of packed matrices, as one float matmul."""
    d, ell = ctx.d, ctx.ell
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    (m, k), n = A.shape, B.shape[1]
    ftype = _float_type(d, k, ell)
    left = digits(A, ell, d, axis=1, dtype=ftype)
    planes = digits(B, ell, d, axis=1, dtype=_int_type(ell * ell))
    right = np.empty((d, k, d, n), dtype=ftype)
    right[0] = planes
    for s in range(1, d):
        planes = ctx.times_x(planes, axis=1)
        right[s] = planes
    sums = left.reshape(m, d * k) @ right.reshape(d * k, d * n)
    # each operand and stage is dropped as soon as the next one exists,
    # and the reduction runs in the narrowest type: peak memory is the
    # cost that grows with the operands
    del left, right
    red = sums.astype(_int_type(d * k * (ell - 1) ** 2)).reshape(m, d, n)
    del sums
    _reduce(red, ell)
    return undigits(red, ell, axis=1)


def gf_apply_axis(ctx: FieldContext, M: np.ndarray, T: np.ndarray,
                  axis: int) -> np.ndarray:
    """Contract matrix M into one axis of a packed tensor, as
    (flat^T M^T)^T: the wide operand is split into d digit planes, the
    small M^T into d^2."""
    moved = np.moveaxis(T, axis, -1)
    out = gf_matmul(ctx, moved.reshape(-1, moved.shape[-1]), M.T)
    out = out.reshape(moved.shape[:-1] + (M.shape[0],))
    return np.moveaxis(out, -1, axis)


def gf_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _rref(ctx: FieldContext, A: np.ndarray):
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    M = A.astype(np.int64).copy()
    rows, cols = M.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(M[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            M[[row, pr]] = M[[pr, row]]
        inv = ctx.inv(int(M[row, col]))
        M[row] = ctx.vscale(inv, M[row])
        f = M[:, col].copy()
        f[row] = 0
        hit = np.nonzero(f)[0]
        if hit.size:
            upd = ctx.vmul(ctx.vneg(f[hit])[:, None], M[row][None, :])
            M[hit] = ctx.vadd(M[hit], upd)
        pivots.append(col)
        row += 1
    return M, pivots


def gf_rank(ctx: FieldContext, A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    _, pivots = _rref(ctx, A)
    return len(pivots)


def gf_inv_matrix(ctx: FieldContext, A: np.ndarray) -> np.ndarray:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"cannot invert a matrix of shape {A.shape}")
    n = A.shape[0]
    aug = np.concatenate([A.astype(np.int64), gf_eye(n)], axis=1)
    R, pivots = _rref(ctx, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]
