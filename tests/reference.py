"""Conveniences and references that only the tests call, kept out of
the package: each is a line or two over the library's own operations,
or an independent second route to one of them."""

import numpy as np

from mfblocks.characters import Character, _exponent_of, char_exponent
from mfblocks.field import _poly_divmod
from mfblocks.groups import (
    GroupElem, _normalize, d_digits, d_key, group_inv, h_elem, identity,
    key_cols, key_drop, key_n, p_elem, pack_key, root_powers,
    subgroup_elements,
)
from mfblocks.groupalg import (
    GAElem, _absorb_z, _dedupe, _mul_lanes, _tables, _theta_pow, block_fold,
    ga_add, ga_basis, ga_from_terms, ga_mul, ga_zero,
)
from mfblocks.quiver import (
    _EMBED_LIMIT, QuivAElem, _act, _embed_tables, _label_index, _leg_join,
    embed_columns, label_make, label_phi, qa_basis, qa_from_columns, qa_zero,
)
from mfblocks.twisted import TTElem, _stage_b, tt_is_zero, tt_zero
from mfblocks.verify import _random_terms

# the tags of the P-characters, the groups that H conjugates
_P_GROUPS = ("P1", "P2")


def char_eval(P, chi, g):
    """Value of chi on g, as a packed element of F_{ell^d}."""
    return int(root_powers(P, P.ctx, chi.order)[char_exponent(P, chi, g)])


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


def random_ga(P, rng, nterms):
    """A random element of nterms terms, drawn as verify draws them."""
    return ga_from_terms(P, _random_terms(P, rng, nterms))


def b0_pi_product_all_lanes(P, theta, x, y):
    """b0_pi_product with every lane held at once: for each b of phi(x),
    its rows times phi(y) merged onto its N-part with weight
    theta(gz)^(-a' b), all in one _mul_lanes call; the lanes of every b
    are absorbed and collapsed under key_n by one np.unique."""
    tp = _theta_pow(P, theta)
    x, y = block_fold(P, theta, x), block_fold(P, theta, y)
    xb, ya = key_cols(P, x.keys)[5], key_cols(P, y.keys)[4]
    keys, coeffs = [], []
    for b in np.unique(xb):
        yb = _dedupe(P, key_drop(P, y.keys, 3),
                     P.ctx.vmul(y.coeffs, tp[-ya * b % P.r]))
        k, c = _absorb_z(P, tp, _mul_lanes(
            P, x.keys[xb == b, None], yb.keys).ravel(), P.ctx.vmul(
            x.coeffs[xb == b, None], yb.coeffs).ravel())
        keys.append(key_n(P, k))
        coeffs.append(c)
    return _stage_b(P, theta, _dedupe(P, np.concatenate(keys),
                                      np.concatenate(coeffs)))


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
    """c t, c in the field of t."""
    if c == 0:
        return tt_zero(t.theta, t.ctx)
    if c == 1:
        return t
    return TTElem(t.theta, t.cols._replace(
        coeffs=t.ctx.vscale(c, t.cols.coeffs)), t.ctx)


def tt_over(t, ctx):
    """t with its coefficients read in the field ctx: they must lie in
    the prime field, whose packed elements are the same in every field."""
    assert (t.cols.coeffs < ctx.ell).all()
    return TTElem(t.theta, t.cols, ctx)


def tt_radical_degree(t):
    """Least total arrow count over the support; J^k membership test."""
    if tt_is_zero(t):
        raise ValueError("zero element has no degree")
    c = t.cols
    return int((c.m1.sum(axis=1, dtype=np.int64)
                + c.m2.sum(axis=1, dtype=np.int64)).min())


def poly_is_irreducible(coeffs, ell):
    """Trial division of the monic little-endian coefficient list by
    every monic polynomial of degree <= d/2 over F_ell."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    if d == 1:
        return True
    if coeffs[0] == 0:
        return False
    for e in range(1, d // 2 + 1):
        for low in range(ell**e):
            den, v = [], low
            for _ in range(e):
                den.append(v % ell)
                v //= ell
            den.append(1)
            _, rem = _poly_divmod(coeffs, den, ell)
            if rem == [0]:
                return False
    return True


def f_add(ctx, a, b):
    """a + b digit by digit: the scalar reference for FieldContext.vadd."""
    if ctx.ell == 2:
        return a ^ b
    v, m = 0, 1
    for _ in range(ctx.d):
        v += ((a % ctx.ell + b % ctx.ell) % ctx.ell) * m
        a //= ctx.ell
        b //= ctx.ell
        m *= ctx.ell
    return v


def f_from_coeffs(ctx, coeffs):
    """The packed element of a little-endian coefficient list, the
    inverse of FieldContext.to_coeffs."""
    coeffs = list(coeffs)
    if len(coeffs) > ctx.d:
        raise ValueError(f"{len(coeffs)} coefficients for a field of"
                         f" degree {ctx.d}")
    v = 0
    for c in reversed(coeffs):
        v = v * ctx.ell + int(c) % ctx.ell
    return v


def f_neg(ctx, a):
    """-a digit by digit: the scalar reference for FieldContext.vneg."""
    if ctx.ell == 2:
        return a
    v, m = 0, 1
    for _ in range(ctx.d):
        v += ((-(a % ctx.ell)) % ctx.ell) * m
        a //= ctx.ell
        m *= ctx.ell
    return v


def field_frobenius(ctx, x, m):
    """x^(ell^m) by m scalar ell-th powers; m = d is the identity."""
    if not 0 <= x < ctx.order:
        raise ValueError("element out of range for this field")
    if m < 0:
        raise ValueError("m must be non-negative")
    for _ in range(m % ctx.d):
        x = ctx.pow(x, ctx.ell)
    return x


def d_unpack(P, packed):
    """The normalized D-vector of a packed index (entry 0 is 0), the
    inverse of groups.d_pack."""
    v, t = [0], packed
    for _ in range(P.p - 1):
        v.append(t % P.ell)
        t //= P.ell
    return tuple(v)


def unpack_key(P, key):
    d1, x1, d2, x2, a, b, c = key_cols(P, key)
    return GroupElem(d_unpack(P, d1), x1, d_unpack(P, d2), x2, a, b, c)


def subgroup_elems(P, tag):
    """The library's character groups (Z, L1, L2, P1, P2) and H, D1, D2,
    or the generators of E; the full group G is refused: its order is
    |D|^2-scale and enumeration is never needed."""
    if tag == "H":
        return [h_elem(P, a, b, c)
                for a in range(P.r) for b in range(P.r) for c in range(P.r)]
    if tag in ("D1", "D2"):
        z = (0,) * P.p
        vs = [d_unpack(P, packed) for packed in range(P.dsz)]
        if tag == "D1":
            return [GroupElem(v, 0, z, 0, 0, 0, 0) for v in vs]
        return [GroupElem(z, 0, v, 0, 0, 0, 0) for v in vs]
    if tag == "E-generators":
        return [p_elem(P, 1, 1), p_elem(P, 2, 1),
                h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0)]
    if tag == "G":
        raise ValueError("G is not enumerable; ask for E-generators "
                         "or a proper subgroup tag")
    return subgroup_elements(P, tag)


def char_conjugate(P, chi, w):
    """The conjugate character chi^w, chi^w(h) = chi(h^{w^-1}).

    Defined here for characters of Z (central, fixed) and of P_i under
    H-elements, where only the matching L_i coordinate acts.
    """
    if chi.group == "Z":
        return chi
    if chi.group not in _P_GROUPS:
        raise ValueError(f"no conjugation rule for {chi.group} characters")
    zero = (0,) * P.p
    if not (w.v1 == zero and w.v2 == zero and w.x1 == 0 and w.x2 == 0):
        raise ValueError("conjugating element must lie in H")
    t = w.a if chi.group == "P1" else w.b
    u = P._g0pow[(-t) % P.r]
    return Character(chi.group, (chi.e * u) % P.p, P.p)


def qa_L_action(P, u, w):
    """Basis permutation (psi, m) -> (psi^w, m^w).

    Vertex and arrow labels are both characters of P_i, so the whole
    label moves by the conjugate-character map: exponents scale by
    g0^{-t} where t is the L_i coordinate of w, row t of the L-action
    table.
    """
    t = _exponent_of(P, f"L{u.side}", w) % P.r
    if t == 0 or not len(u.coeffs):
        return u
    return qa_from_columns(P, u.side, *_act(P, t, u.psi, u.m), u.coeffs)


def qa_embed_terms(P, u):
    """qa_embed term by term: each label's S-column times its row of F,
    scaled by its coefficient and added up; the reference for
    embed_columns."""
    tabs = _embed_tables(P)
    ctx, p = P.ctx, P.p
    C = np.zeros((P.dsz, p), dtype=np.int64)
    for label, c in u.terms.items():
        xi = (label.psi + label_phi(P, label.m)) % p
        col = ctx.vscale(int(c), tabs["S"][:, d_key(P, label.m)])
        C = ctx.vadd(C, ctx.vmul(col[:, None], tabs["F"][:, xi][None, :]))
    keys = tabs["gkeys"][u.side - 1].reshape(-1)
    flat = C.reshape(-1)
    mask = flat != 0
    return GAElem(keys[mask], flat[mask])


def scale_side_loop(P, v, x, u):
    """groups._scale_side as the plain loop over the D-indexes, with no
    shortcut for u = 1 or a zero vector."""
    w = [0] * P.p
    for g in range(P.p):
        w[(g * u) % P.p] = v[g]
    return tuple(w), (x * u) % P.p


def side_mul_loop(P, v, x, w, y):
    """groups._side_mul as the plain loop over the D-indexes, with no
    shortcut for a zero vector."""
    out = [(v[h] + w[(h + x) % P.p]) % P.ell for h in range(P.p)]
    return _normalize(out, P.ell), (x + y) % P.p


def side_mul_table(P):
    """Multiplication table of D x P (one side), indexed by d*p + x."""
    table = P._cache.get("side_mul_table")
    if table is not None:
        return table
    p, Dsz = P.p, P.dsz
    n = Dsz * p
    if n > _EMBED_LIMIT:
        raise ValueError(f"side table of size {n} is too large")
    tabs = _tables(P)
    idx = np.arange(n, dtype=np.int64)
    d_l, x_l = (idx // p)[:, None], (idx % p)[:, None]
    d_r, x_r = (idx // p)[None, :], (idx % p)[None, :]
    shifted = tabs["trans"][x_l, d_r]
    # the D-addition digit by digit, in int64 so that no sum wraps
    digits = d_digits(P, np.arange(Dsz)).astype(np.int64)
    d_new = d_key(P, (digits[d_l] + digits[shifted]) % P.ell)
    table = d_new * p + ((x_l + x_r) % p)
    P._cache["side_mul_table"] = table
    return table


def side_inv_index(P):
    """Index of the inverse for every D x P basis element."""
    inv = P._cache.get("side_inv_index")
    if inv is None:
        inv = np.argmax(side_mul_table(P) == 0, axis=1)
        P._cache["side_inv_index"] = inv
    return inv


def _embed_want(P, data, u, vs):
    """The embedded label-rule products of basis label u with the basis
    labels vs, as columns, by the library's leg join (zero where the
    rule kills the product)."""
    psi, m = data["cols"]
    vs = np.asarray(vs)
    _, j, _, prod = _leg_join(P, psi[[u]], m[[u]], psi[vs], m[vs],
                              np.zeros(1, dtype=np.int64))
    want = np.zeros((P.dsz * P.p, len(vs)), dtype=np.int64)
    want[:, j] = embed_columns(P, _label_index(P, psi[u], prod))
    return want
