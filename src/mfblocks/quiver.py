"""Monomial model of the side algebras k[D_i ⋊ P_i].

A basis label (psi, m) pairs a vertex character exponent psi on P_i
with arrow multiplicities m, one slot per nontrivial character of
P_i.  Multiplication is a closed rule on labels and never touches the
group algebra; the embedding realizes each monomial as a pure tensor
(D-part times P-idempotent) and is the numerical check that the label
rule computes the same product.

The label arithmetic works at every parameter size.  The embedding
and extraction need dense change-of-basis matrices of size ell^(p-1)
and are only built when that stays small.
"""

from __future__ import annotations

import numpy as np

from .characters import Character
from .groups import (
    GroupElem, Params, conjugate, d_digits, d_elem, d_pack, d_unpack, h_elem,
    p_elem,
)
from .groupalg import GAElem
from .linalg import gf_inv_matrix, gf_matmul

_EMBED_LIMIT = 2048


class QuivLabel:
    """One monomial e_psi * s_phi1 * s_phi2 * ... in normal form.

    psi is the vertex character exponent mod p; m[s-1] counts the
    arrow for the character of exponent s, each count below ell.
    """

    __slots__ = ("side", "psi", "m")

    def __init__(self, side: int, psi: int, m):
        self.side = side
        self.psi = psi
        self.m = tuple(m)

    def __eq__(self, other):
        if not isinstance(other, QuivLabel):
            return NotImplemented
        return (self.side, self.psi, self.m) == \
            (other.side, other.psi, other.m)

    def __hash__(self):
        return hash((self.side, self.psi, self.m))

    def __repr__(self):
        return f"QuivLabel(side={self.side}, psi={self.psi}, m={self.m})"


def label_make(P: Params, side: int, psi: int, m) -> QuivLabel:
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    m = tuple(m)
    if len(m) != P.p - 1:
        raise ValueError(f"m must have {P.p - 1} slots, got {len(m)}")
    if any(t < 0 or t >= P.ell for t in m):
        raise ValueError("arrow multiplicities must lie in [0, ell)")
    return QuivLabel(side, psi % P.p, m)


def label_phi(P: Params, m) -> int:
    """Exponent of the product of the arrow characters of m."""
    return sum((s + 1) * t for s, t in enumerate(m)) % P.p


def _m_pack(P: Params, m) -> int:
    """Arrow counts pack like a D-vector without its entry 0."""
    return d_pack(P, (0, *m))


def _m_unpack(P: Params, packed: int) -> tuple:
    return d_unpack(P, packed)[1:]


class QuivAElem:
    """Finitely supported combination of labels on one side."""

    __slots__ = ("side", "terms")

    def __init__(self, side: int, terms: dict):
        self.side = side
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, QuivAElem):
            return NotImplemented
        return self.side == other.side and self.terms == other.terms

    def __repr__(self):
        return f"QuivAElem(side={self.side}, {len(self.terms)} terms)"


def qa_zero(side: int) -> QuivAElem:
    return QuivAElem(side, {})


def qa_basis(P: Params, label: QuivLabel, coeff: int = 1) -> QuivAElem:
    if coeff == 0:
        return qa_zero(label.side)
    return QuivAElem(label.side, {label: coeff})


def qa_vertex(P: Params, side: int, psi: int) -> QuivAElem:
    """The vertex idempotent e_psi."""
    return qa_basis(P, label_make(P, side, psi, (0,) * (P.p - 1)))


def qa_unit(P: Params, side: int) -> QuivAElem:
    """Identity of the side algebra: the sum of all vertex idempotents."""
    zero = (0,) * (P.p - 1)
    return QuivAElem(side, {QuivLabel(side, psi, zero): P.ctx.one
                            for psi in range(P.p)})


def qa_labels(P: Params, side: int) -> list:
    """All p * ell^(p-1) basis labels in (psi, packed m) order."""
    return [QuivLabel(side, psi, _m_unpack(P, mk))
            for psi in range(P.p) for mk in range(P.dsz)]


def qa_add(P: Params, u: QuivAElem, v: QuivAElem) -> QuivAElem:
    if u.side != v.side:
        raise ValueError("side mismatch")
    terms = dict(u.terms)
    for label, c in v.terms.items():
        s = P.ctx.add(terms.get(label, 0), c)
        if s:
            terms[label] = s
        else:
            terms.pop(label, None)
    return QuivAElem(u.side, terms)


def qa_scale(P: Params, c: int, u: QuivAElem) -> QuivAElem:
    if c == 0:
        return qa_zero(u.side)
    if c == 1:
        return u
    return QuivAElem(u.side, {label: P.ctx.mul(c, t)
                              for label, t in u.terms.items()})


def qa_coeff(P: Params, u: QuivAElem, label: QuivLabel) -> int:
    return u.terms.get(label, 0)


def qa_mul(P: Params, u: QuivAElem, v: QuivAElem) -> QuivAElem:
    """Product by the label rule.

    (psi, m)(psi', m') survives iff psi' = psi + phi(m) and no arrow
    count overflows; the surviving label is (psi, m + m') with
    coefficient one.
    """
    if u.side != v.side:
        raise ValueError("side mismatch")
    ell, p, ctx = P.ell, P.p, P.ctx
    out: dict = {}
    for lu, cu in u.terms.items():
        gate = (lu.psi + label_phi(P, lu.m)) % p
        for lv, cv in v.terms.items():
            if lv.psi != gate:
                continue
            m = tuple(a + b for a, b in zip(lu.m, lv.m))
            if any(t >= ell for t in m):
                continue
            label = QuivLabel(u.side, lu.psi, m)
            s = ctx.add(out.get(label, 0), ctx.mul(cu, cv))
            if s:
                out[label] = s
            else:
                out.pop(label, None)
    return QuivAElem(u.side, out)


def qa_degree(u: QuivAElem) -> int:
    """Least total arrow count over the support."""
    if not u.terms:
        raise ValueError("zero element has no degree")
    return min(sum(label.m) for label in u.terms)


def _l_exponent(P: Params, side: int, w: GroupElem) -> int:
    zero = (0,) * P.p
    if w.v1 != zero or w.v2 != zero or w.x1 != 0 or w.x2 != 0:
        raise ValueError(f"element lies outside L{side}")
    if side == 1:
        if w.b != 0 or w.c != 0:
            raise ValueError("element lies outside L1")
        return w.a
    if w.a != 0 or w.c != 0:
        raise ValueError("element lies outside L2")
    return w.b


def qa_L_action(P: Params, u: QuivAElem, w: GroupElem) -> QuivAElem:
    """Basis permutation (psi, m) -> (psi^w, m^w).

    Vertex and arrow labels are both characters of P_i, so the whole
    label moves by the conjugate-character map: exponents scale by
    g0^{-t} where t is the L_i coordinate of w.
    """
    t = _l_exponent(P, u.side, w)
    scale = P._g0pow[(-t) % P.r]
    if scale == 1:
        return u
    p = P.p
    out = {}
    for label, c in u.terms.items():
        m = [0] * (p - 1)
        for s in range(1, p):
            m[(s * scale) % p - 1] = label.m[s - 1]
        out[QuivLabel(u.side, (label.psi * scale) % p, tuple(m))] = c
    return QuivAElem(u.side, out)


def qa_isotypic(P: Params, u: QuivAElem, chi: Character) -> QuivAElem:
    """Projection onto the chi-isotypic part of the L_i action."""
    if chi.group != f"L{u.side}":
        raise ValueError(f"character must live on L{u.side}, "
                         f"got {chi.group}")
    ctx = P.ctx
    rinv = ctx.inv(ctx.from_int(P.r))
    acc = qa_zero(u.side)
    for t in range(P.r):
        w = h_elem(P, t, 0, 0) if u.side == 1 else h_elem(P, 0, t, 0)
        weight = ctx.pow(P.zeta_r, (-chi.e * t) % P.r)
        acc = qa_add(P, acc, qa_scale(P, weight, qa_L_action(P, u, w)))
    return qa_scale(P, rinv, acc)


# ---------------------------------------------------------------------------
# Embedding into the group algebra


def _d_add_keys(P: Params, keys: np.ndarray, b: int) -> np.ndarray:
    """Packed keys of the D-products key + b (digitwise mod ell)."""
    if P.ell == 2:
        return keys ^ b
    out = np.zeros_like(keys)
    mult = 1
    a = keys
    for _ in range(P.p - 1):
        out += ((a + b) % P.ell) * mult
        a = a // P.ell
        b //= P.ell
        mult *= P.ell
    return out


def _arrow_vector(P: Params, s: int) -> np.ndarray:
    """s_phi = sum_g phi(g^-1) d^g as a dense vector over packed D."""
    ctx = P.ctx
    vec = np.zeros(P.dsz, dtype=np.int64)
    d1 = d_elem(P, 1, 0)
    for g in range(P.p):
        dg = conjugate(P, d1, p_elem(P, 1, g))
        val = ctx.pow(P.zeta_p, (-s * g) % P.p)
        key = d_pack(P, dg.v1)
        vec[key] = ctx.add(int(vec[key]), val)
    return vec


def qa_embed_available(P: Params) -> bool:
    """Whether the dense change-of-basis tables fit at these parameters."""
    return P.dsz * P.p <= _EMBED_LIMIT and P.ctx._exp is not None


def _embed_tables(P: Params) -> dict:
    """Change-of-basis data shared by qa_embed and qa_extract."""
    tabs = P._cache.get("quiver_embed")
    if tabs is not None:
        return tabs
    n = P.dsz * P.p
    if n > _EMBED_LIMIT or P.ctx._exp is None:
        raise ValueError(f"embedding tables of size {n} are too large")
    ctx, p, Dsz, ell = P.ctx, P.p, P.dsz, P.ell

    arrows = [None] + [_arrow_vector(P, s) for s in range(1, p)]
    idx = np.arange(Dsz, dtype=np.int64)
    S = np.zeros((Dsz, Dsz), dtype=np.int64)
    S[0, 0] = ctx.one
    for mk in range(1, Dsz):
        s, t = 1, mk
        while t % ell == 0:
            t //= ell
            s += 1
        prev = S[:, mk - ell ** (s - 1)]
        arrow = arrows[s]
        col = np.zeros(Dsz, dtype=np.int64)
        for b in np.nonzero(arrow)[0]:
            shifted = _d_add_keys(P, idx, int(b))
            contrib = ctx.vscale(int(arrow[b]), prev)
            col[shifted] = ctx.vadd(col[shifted], contrib)
        S[:, mk] = col
    Sinv = gf_inv_matrix(ctx, S)

    pinv = ctx.inv(ctx.from_int(p))
    F = np.zeros((p, p), dtype=np.int64)
    Finv = np.zeros((p, p), dtype=np.int64)
    for y in range(p):
        for xi in range(p):
            F[y, xi] = ctx.mul(pinv, ctx.pow(P.zeta_p, (-xi * y) % p))
            Finv[xi, y] = ctx.pow(P.zeta_p, (xi * y) % p)

    gkeys = np.zeros((2, Dsz, p), dtype=np.int64)
    r3 = P.r ** 3
    dk = np.arange(Dsz, dtype=np.int64)[:, None]
    yy = np.arange(p, dtype=np.int64)[None, :]
    gkeys[0] = (dk * p + yy) * (Dsz * p) * r3
    gkeys[1] = (dk * p + yy) * r3

    tabs = {"S": S, "Sinv": Sinv, "F": F, "Finv": Finv, "gkeys": gkeys}
    P._cache["quiver_embed"] = tabs
    return tabs


def label_columns(P: Params, u: QuivAElem):
    """Label indices psi * dsz + packed m (the qa_labels order) and the
    coefficients of the terms of u."""
    items = list(u.terms.items())
    js = np.array([lab.psi * P.dsz + _m_pack(P, lab.m) for lab, _ in items],
                  dtype=np.int64)
    return js, np.array([c for _, c in items], dtype=np.int64)


def embed_columns(P: Params, js: np.ndarray) -> np.ndarray:
    """Embedded basis labels as dense columns over the side indices
    d p + y: label j = psi dsz + mk lands on S[:, mk] ⊗ F[:, xi] with
    xi = psi + phi(m)."""
    tabs = _embed_tables(P)
    psi, mk = np.divmod(np.asarray(js, dtype=np.int64), P.dsz)
    xi = (psi + d_digits(P, mk) @ np.arange(1, P.p)) % P.p
    return P.ctx.vmul(tabs["S"][:, None, mk],
                      tabs["F"][None, :, xi]).reshape(P.dsz * P.p, len(mk))


def qa_embed(P: Params, u: QuivAElem) -> GAElem:
    """Algebra monomorphism into k[D_i ⋊ P_i] inside the group algebra.

    A label (psi, m) lands on the pure tensor S_m ⊗ ê_xi with
    xi = psi + phi(m): the D-part is the product of the arrow
    elements, the P-part the vertex idempotent pushed past them.
    """
    tabs = _embed_tables(P)
    ctx, p = P.ctx, P.p
    C = np.zeros((P.dsz, p), dtype=np.int64)
    for label, c in u.terms.items():
        mk = _m_pack(P, label.m)
        xi = (label.psi + label_phi(P, label.m)) % p
        col = ctx.vscale(int(c), tabs["S"][:, mk])
        C = ctx.vadd(C, ctx.vmul(col[:, None], tabs["F"][:, xi][None, :]))
    keys = tabs["gkeys"][u.side - 1].reshape(-1)
    flat = C.reshape(-1)
    mask = flat != 0
    return GAElem(keys[mask], flat[mask])


def qa_extract(P: Params, x: GAElem, side: int = None) -> QuivAElem:
    """Unique label expansion of an element supported on D_i ⋊ P_i."""
    tabs = _embed_tables(P)
    p, Dsz, r3 = P.p, P.dsz, P.r ** 3
    keys = x.keys
    rem = keys % r3
    side1 = keys // (r3 * Dsz * p)
    side2 = (keys // r3) % (Dsz * p)
    if np.any(rem != 0):
        raise ValueError("support lies outside D_i x P_i")
    if side is None:
        in1 = not np.any(side2)
        in2 = not np.any(side1)
        if in1:
            side = 1
        elif in2:
            side = 2
        else:
            raise ValueError("support lies outside D_i x P_i")
    flat = side1 if side == 1 else side2
    other = side2 if side == 1 else side1
    if np.any(other):
        raise ValueError("support lies outside D_i x P_i")
    C = np.zeros((Dsz, p), dtype=np.int64)
    C[flat // p, flat % p] = x.coeffs
    T = gf_matmul(P.ctx, tabs["Sinv"], C)
    T = gf_matmul(P.ctx, T, tabs["Finv"].T.copy())
    out = {}
    for mk, xi in zip(*np.nonzero(T)):
        m = _m_unpack(P, int(mk))
        psi = (int(xi) - label_phi(P, m)) % p
        out[QuivLabel(side, psi, m)] = int(T[mk, xi])
    return QuivAElem(side, out)


# ---------------------------------------------------------------------------
# Serialization


def label_to_dict(label: QuivLabel) -> dict:
    return {"side": label.side, "psi_exp": label.psi, "m": list(label.m)}


def label_from_dict(P: Params, data: dict) -> QuivLabel:
    return label_make(P, data["side"], data["psi_exp"], data["m"])


def qa_to_json(P: Params, u: QuivAElem) -> list:
    items = sorted(u.terms.items(), key=lambda t: (t[0].psi, t[0].m))
    return [{"label": label_to_dict(label), "coeff": P.ctx.to_coeffs(c)}
            for label, c in items]


def qa_from_json(P: Params, data: list) -> QuivAElem:
    acc = None
    for obj in data:
        label = label_from_dict(P, obj["label"])
        term = qa_basis(P, label, P.ctx.from_coeffs(obj["coeff"]))
        acc = term if acc is None else qa_add(P, acc, term)
    if acc is None:
        raise ValueError("empty serialization carries no side")
    return acc
