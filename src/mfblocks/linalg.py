"""Exact dense linear algebra over the packed finite-field representation.

Matrices are numpy int64 arrays of packed field elements: the base-ell
digits of the polynomial representative, little-endian.  A product
A B is one float BLAS call on the F_ell-linear form of its operands:

  out[i, c] = sum_k ell^k (sum_{j,s} a_s[i, j] b'_{s,k}[j, c] mod ell)

where a_s is digit s of A and b'_{s,k} is digit k of x^s B.  The left
operand is the (m, d*k) matrix of A's digits (gf_digits), the right one
B's planes (gf_planes), the (d*k, d*n) matrix of the digits of x^0 B,
..., x^(d-1) B; a caller that multiplies by one B many times builds
them once and calls gf_times.  Every entry of the float product is a
sum of at most d*k terms below ell^2, so it is exact in float32 while
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


def gf_planes(ctx: FieldContext, B: np.ndarray) -> np.ndarray:
    """The (d*k, d*n) float right operand of B (k, n), the digits of
    x^s B for s < d: built once, it serves every gf_times by B."""
    d, ell, (k, n) = ctx.d, ctx.ell, B.shape
    right = np.empty((d, k, d, n), dtype=_float_type(d, k, ell))
    for s, planes in enumerate(ctx.x_planes(B, _int_type(ell * ell))):
        right[s] = planes.swapaxes(0, 1)
    return right.reshape(d * k, d * n)


def gf_digits(ctx: FieldContext, A: np.ndarray, right) -> np.ndarray:
    """The digits (m, d, k) of A (m, k) in the float type of right."""
    return digits(A, ctx.ell, ctx.d, axis=1, dtype=right.dtype)


def gf_times(ctx: FieldContext, A: np.ndarray, right) -> np.ndarray:
    """A B from A, packed or as its digits (gf_digits), and the planes
    right of B (gf_planes), as one float matmul.  Each stage is dropped
    once the next exists and the sums are reduced in the narrowest type:
    peak memory is the cost that grows with A."""
    d, ell, m, (dk, dn) = ctx.d, ctx.ell, len(A), right.shape
    left = A if A.ndim == 3 else gf_digits(ctx, A, right)
    sums = left.reshape(m, dk) @ right
    del left
    red = sums.astype(_int_type(dk * (ell - 1) ** 2)).reshape(m, d, dn // d)
    del sums
    return undigits(_reduce(red, ell), ell, axis=1)


def gf_matmul(ctx: FieldContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of packed matrices: gf_times by B's planes."""
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    return gf_times(ctx, A, gf_planes(ctx, B))


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
