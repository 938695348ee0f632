"""Group-algebra conveniences that only the tests call, kept out of the
package: each is one line over the library's own operations."""

import numpy as np

from mfblocks.groups import group_inv, identity, pack_key
from mfblocks.groupalg import GAElem, ga_add, ga_basis, ga_mul, ga_zero


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
