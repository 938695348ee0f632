"""Group-algebra and side-algebra conveniences that only the tests
call, kept out of the package: each is a line or two over the library's
own operations."""

import numpy as np

from mfblocks.groups import group_inv, identity, pack_key
from mfblocks.groupalg import GAElem, ga_add, ga_basis, ga_mul, ga_zero
from mfblocks.quiver import (
    QuivAElem, label_make, qa_basis, qa_from_columns, qa_zero,
)
from mfblocks.twisted import TTElem, tt_is_zero, tt_zero


def ga_unit(P):
    return ga_basis(P, identity(P))


def ga_neg(P, x):
    if P.ell == 2:
        return x
    return GAElem(x.keys, P.ctx.vneg(x.coeffs))


def ga_sub(P, x, y):
    return ga_add(P, x, ga_neg(P, y))


def ga_scale(P, c, x):
    if c == 0:
        return ga_zero()
    if c == 1:
        return x
    return GAElem(x.keys, P.ctx.vscale(c, x.coeffs))


def ga_coeff(P, x, g):
    key = pack_key(P, g)
    i = np.searchsorted(x.keys, key)
    if i < len(x.keys) and x.keys[i] == key:
        return int(x.coeffs[i])
    return 0


def ga_conjugate(P, x, g):
    gi = ga_basis(P, group_inv(P, g))
    return ga_mul(P, ga_mul(P, gi, x), ga_basis(P, g))


def qa_vertex(P, side, psi):
    """The vertex idempotent e_psi."""
    return qa_basis(P, label_make(P, side, psi, (0,) * (P.p - 1)))


def qa_unit(P, side):
    """Identity of the side algebra: the sum of all vertex idempotents."""
    return qa_from_columns(P, side, np.arange(P.p), np.zeros((P.p, P.p - 1)),
                           np.full(P.p, P.ctx.one))


def qa_scale(P, c, u):
    if c == 0:
        return qa_zero(u.side)
    if c == 1:
        return u
    return QuivAElem(u.side, u.psi, u.m, P.ctx.vscale(c, u.coeffs))


def qa_degree(u):
    """Least total arrow count over the support."""
    if not len(u.coeffs):
        raise ValueError("zero element has no degree")
    return int(u.m.sum(axis=1, dtype=np.int64).min())


def tt_scale(P, c, t):
    if c == 0:
        return tt_zero(t.theta)
    if c == 1:
        return t
    return TTElem(t.theta, t.cols._replace(
        coeffs=P.ctx.vscale(c, t.cols.coeffs)))


def tt_radical_degree(t):
    """Least total arrow count over the support; J^k membership test."""
    if tt_is_zero(t):
        raise ValueError("zero element has no degree")
    c = t.cols
    return int((c.m1.sum(axis=1, dtype=np.int64)
                + c.m2.sum(axis=1, dtype=np.int64)).min())
