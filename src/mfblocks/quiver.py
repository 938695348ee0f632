"""Monomial model of the side algebras k[D_i ⋊ P_i].

A basis label (psi, m) pairs a vertex character exponent psi on P_i
with arrow multiplicities m, one slot per nontrivial character of
P_i.  Multiplication is a closed rule on labels and never touches the
group algebra; the embedding realizes each monomial as a pure tensor
(D-part times P-idempotent) and is the numerical check that the label
rule computes the same product.

Side elements are held as one leg of the label columns that the
twisted model of B_0 uses, and the label rule (the leg join, the
L-action table, the sort key, the merge of equal labels) lives here
once for both.  Side elements have their coefficients in F_{ell^d}.

The label arithmetic works at every parameter size.  The embedding
needs dense change-of-basis matrices of size ell^(p-1) and is only
built when that stays small.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

import numpy as np

from .characters import Character
from .field import digit_sum
from .groups import (
    Params, conjugate, d_digits, d_elem, d_key, d_pack,
    digit_dtype, key_join, l_fourier, p_elem, root_powers, slot_scale_index,
)
from .groupalg import GAElem, _key_sums
from .linalg import gf_inv_matrix, gf_matmul

# Largest side dimension dsz p of the dense embedding tables
_EMBED_LIMIT = 2048


class QuivLabel(namedtuple("QuivLabel", "side psi m")):
    """One monomial e_psi * s_phi1 * s_phi2 * ... in normal form.

    psi is the vertex character exponent mod p; m[s-1] counts the
    arrow for the character of exponent s, each count below ell.
    """

    __slots__ = ()

    def __new__(cls, side: int, psi: int, m):
        return tuple.__new__(cls, (side, psi, tuple(m)))


def label_make(P: Params, side: int, psi: int, m) -> QuivLabel:
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side}")
    m = tuple(m)
    if len(m) != P.p - 1:
        raise ValueError(f"m must have {P.p - 1} slots, got {len(m)}")
    if any(t < 0 or t >= P.ell for t in m):
        raise ValueError("arrow multiplicities must lie in [0, ell)")
    return QuivLabel(side, psi % P.p, m)


def label_phi(P: Params, m) -> np.ndarray:
    """Exponent of the product of the arrow characters, per row of m."""
    phi = np.einsum("...j,j->...", m, np.arange(1, P.p))
    phi %= P.p
    return phi


def _label_index(P: Params, psi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Label indices psi * dsz + packed m (the qa_labels order); only
    sides within the embedding limit have them."""
    return psi * P.dsz + d_key(P, m)


def _label_cols(P: Params, js: np.ndarray):
    """Vertex column and arrow-count matrix of label indices."""
    psi, mk = np.divmod(np.asarray(js, dtype=np.int64), P.dsz)
    return psi, d_digits(P, mk)


def _sort_key(*cols) -> np.ndarray:
    """One opaque key per row: the big-endian bytes of the columns side
    by side, so that byte order is the numeric lexicographic order of
    the (non-negative) columns and no label width is capped."""
    raw = np.hstack([
        np.ascontiguousarray(c if c.ndim == 2 else c[:, None],
                             dtype=c.dtype.newbyteorder(">")).view(np.uint8)
        for c in cols])
    raw = np.ascontiguousarray(raw)
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()


def _merge_terms(ctx, coeffs: np.ndarray, first: np.ndarray,
                 inv: np.ndarray):
    """Sums in ctx of coeffs per distinct key, given each key's first
    occurrence and each term's key id; returns the nonzero sums and the
    first occurrence of their keys."""
    sums, live = _key_sums(ctx, coeffs, inv, len(first))
    return sums[live], first[live]


def _canon_rows(ctx, coeffs: np.ndarray, *cols):
    """_merge_terms over the distinct rows of the key columns cols, in
    key order."""
    _, first, inv = np.unique(_sort_key(*cols), return_index=True,
                              return_inverse=True)
    return _merge_terms(ctx, coeffs, first, inv)


def _leg_labels(side: int, psi: np.ndarray, m: np.ndarray) -> list:
    return [QuivLabel(side, u, row) for u, row in zip(psi.tolist(),
                                                      m.tolist())]


def _same_columns(a, b) -> bool:
    """Whether two canonical column sets, coefficients last, hold the
    same terms."""
    return len(a[-1]) == len(b[-1]) and (len(a[-1]) == 0 or all(
        np.array_equal(x, y) for x, y in zip(a, b)))


class QuivAElem:
    """Side element held as one leg of the label columns.

    psi is the vertex column, m the (n, p-1) arrow-count matrix and
    coeffs the coefficient column, one row per term, unique on the
    label and sorted by (psi, m) with m compared slot by slot;
    coefficients are nonzero.  terms is a read-only {label: coefficient}
    view in the same order, built on first use.
    """

    __slots__ = ("side", "psi", "m", "coeffs", "_terms")

    def __init__(self, side: int, psi: np.ndarray, m: np.ndarray,
                 coeffs: np.ndarray):
        self.side = side
        self.psi = psi
        self.m = m
        self.coeffs = coeffs
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            self._terms = MappingProxyType(dict(zip(
                _leg_labels(self.side, self.psi, self.m),
                self.coeffs.tolist())))
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, QuivAElem):
            return NotImplemented
        return self.side == other.side and _same_columns(
            (self.psi, self.m, self.coeffs),
            (other.psi, other.m, other.coeffs))

    def __repr__(self):
        return f"QuivAElem(side={self.side}, {len(self.coeffs)} terms)"


def qa_from_columns(P: Params, side: int, psi, m, coeffs) -> QuivAElem:
    """Element from label columns; equal labels are summed."""
    psi = np.asarray(psi, dtype=np.int64) % P.p
    m = np.asarray(m, dtype=digit_dtype(P)).reshape(-1, P.p - 1)
    merged, sel = _canon_rows(P.ctx, np.asarray(coeffs, np.int64), psi, m)
    return QuivAElem(side, psi[sel], m[sel], merged)


def qa_zero(side: int) -> QuivAElem:
    empty = np.zeros(0, dtype=np.int64)
    return QuivAElem(side, empty, empty.reshape(0, 0), empty)


def qa_basis(P: Params, label: QuivLabel, coeff: int = 1) -> QuivAElem:
    return qa_from_columns(P, label.side, [label.psi], [label.m], [coeff])


def qa_labels(P: Params, side: int) -> list:
    """All p * ell^(p-1) basis labels in (psi, packed m) order."""
    return _leg_labels(side, *_label_cols(P, np.arange(P.dsz * P.p)))


def qa_add(P: Params, u: QuivAElem, v: QuivAElem) -> QuivAElem:
    if u.side != v.side:
        raise ValueError("side mismatch")
    if not len(v.coeffs):
        return u
    if not len(u.coeffs):
        return v
    return qa_from_columns(P, u.side, np.concatenate([u.psi, v.psi]),
                           np.concatenate([u.m, v.m]),
                           np.concatenate([u.coeffs, v.coeffs]))


def _label_act_table(P: Params):
    """The L-action on labels, one row per shift k of the generator: the
    vertex scale g0^-k mod p, and the slot gather index that carries the
    arrow count of s to s g0^-k."""
    tab = P._cache.get("label_act")
    if tab is None:
        scale = np.array([P._g0pow[(-k) % P.r] for k in range(P.r)],
                         dtype=np.int64)
        tab = (scale, np.stack([slot_scale_index(P, int(u)) for u in scale]))
        P._cache["label_act"] = tab
    return tab


def _act(P: Params, k, psi: np.ndarray, m: np.ndarray):
    """Labels moved by row k of the L-action table, k one shift or an
    array of them; the results are indexed by the row of psi, then k."""
    scale, gather = _label_act_table(P)
    return np.multiply.outer(psi, scale[k]) % P.p, m[:, gather[k]]


def _no_carry(P: Params, m_a: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """Rows where the arrow counts add without reaching ell."""
    return (m_a < P.ell - m_b).all(axis=1)


def _vertex_ranges(qrows, qv: np.ndarray, trows, tv: np.ndarray):
    """Equi-join of the query vertices qv against the table vertices tv,
    each side with an optional row column: the table order, sorted by
    (vertex, row), and per query the range of table entries with the
    same vertex and, where both sides carry rows, the same row.  A side
    without rows meets every row of the other."""
    if trows is None:
        tkey, lo, hi = tv, qv, qv + 1
    else:
        # the stride passes every row id of either side, so no query
        # row reaches the next vertex's rows
        width = max(int(trows.max(initial=0)),
                    0 if qrows is None else int(qrows.max(initial=0))) + 1
        tkey = tv * width + trows
        lo = qv * width + (0 if qrows is None else qrows)
        hi = lo + (width if qrows is None else 1)
    order = np.argsort(tkey, kind="stable")
    tkey = tkey[order]
    return order, np.searchsorted(tkey, lo), np.searchsorted(tkey, hi)


def _expand(lo: np.ndarray, hi: np.ndarray):
    """Each query index once per position of its range [lo, hi), and
    those positions, grouped by query."""
    cnt = hi - lo
    q = np.repeat(np.arange(len(cnt)), cnt)
    return q, np.arange(len(q)) + np.repeat(lo - (np.cumsum(cnt) - cnt),
                                            cnt)


def _leg_join(P: Params, psi_a: np.ndarray, m_a: np.ndarray,
              psi_b: np.ndarray, m_b: np.ndarray, ks: np.ndarray,
              rows_a=None, rows_b=None):
    """Label products of a_i with the k-conjugate of b_j, for the shifts
    k in ks, between terms of the same row (a side without rows meets
    every row).  The lanes are an equi-join of (row, psi_a + phi(m_a))
    against (row, psi_b g0^-k), so only pairs that pass the vertex gate
    are formed; the no-carry test on m_a + m_b^k and the digit sum
    follow.  Returns the surviving lanes as (i, j, index into ks, arrow
    counts), grouped by i with j ascending; the product label is
    (psi_a[i], arrow counts)."""
    scale, gather = _label_act_table(P)
    nk = len(ks)
    order, lo, hi = _vertex_ranges(
        rows_a, (psi_a + label_phi(P, m_a)) % P.p,
        None if rows_b is None else np.repeat(rows_b, nk),
        (psi_b[:, None] * scale[ks] % P.p).ravel())
    i, pos = _expand(lo, hi)
    j, t = np.divmod(order[pos], nk)
    mb = m_b[j[:, None], gather[ks[t]]]
    ok = _no_carry(P, m_a[i], mb)
    return i[ok], j[ok], t[ok], m_a[i[ok]] + mb[ok]


def qa_mul(P: Params, u: QuivAElem, v: QuivAElem) -> QuivAElem:
    """Product by the label rule, the shift-0 leg join.

    (psi, m)(psi', m') survives iff psi' = psi + phi(m) and no arrow
    count overflows; the surviving label is (psi, m + m') with
    coefficient one.
    """
    if u.side != v.side:
        raise ValueError("side mismatch")
    if not len(u.coeffs) or not len(v.coeffs):
        return qa_zero(u.side)
    i, j, _, m = _leg_join(P, u.psi, u.m, v.psi, v.m,
                           np.zeros(1, dtype=np.int64))
    return qa_from_columns(P, u.side, u.psi[i], m,
                           P.ctx.vmul(u.coeffs[i], v.coeffs[j]))


def qa_isotypic(P: Params, u: QuivAElem, chi: Character) -> QuivAElem:
    """Projection onto the chi-isotypic part of the L_i action:
    r^-1 sum_t chi(g^t)^-1 u^(g^t), all r moves as one gather."""
    if chi.group != f"L{u.side}":
        raise ValueError(f"character must live on L{u.side}, "
                         f"got {chi.group}")
    if not len(u.coeffs):
        return u
    psi, m = _act(P, np.arange(P.r), u.psi, u.m)
    return qa_from_columns(
        P, u.side, psi.ravel(), m.reshape(-1, P.p - 1), P.ctx.vmul(
            u.coeffs[:, None], l_fourier(P, P.ctx)[chi.e][None, :]).ravel())


# ---------------------------------------------------------------------------
# Embedding into the group algebra


def qa_embed_available(P: Params) -> bool:
    """Whether the dense change-of-basis tables fit at these parameters."""
    return P.dsz * P.p <= _EMBED_LIMIT


def _embed_tables(P: Params) -> dict:
    """Change-of-basis data of the embedding and the collapse."""
    tabs = P._cache.get("quiver_embed")
    if tabs is not None:
        return tabs
    n = P.dsz * P.p
    if n > _EMBED_LIMIT:
        raise ValueError(f"embedding tables of size {n} are too large")
    ctx, p, Dsz = P.ctx, P.p, P.dsz
    zp, y = root_powers(P, ctx, p), np.arange(p)

    # the arrow of exponent s is s_phi = sum_g zeta_p^(-s g) d^g over
    # the p conjugates d^g of d = d_1^0, which are distinct; shift[g] is
    # the D-addition v -> v + d^g on packed vectors
    digits = d_digits(P, np.arange(Dsz))
    conj = [conjugate(P, d_elem(P, 1, 0), p_elem(P, 1, g)) for g in range(p)]
    shift = [digit_sum(np.arange(Dsz), d_pack(P, c.v1), P.ell, p - 1)
             for c in conj]
    S = np.zeros((Dsz, Dsz), dtype=np.int64)
    S[0, 0] = ctx.one
    for mk in range(1, Dsz):
        # S_m is the arrow of the first slot s of m times S_(m - e_s)
        s = int(np.flatnonzero(digits[mk])[0]) + 1
        prev = S[:, d_key(P, digits[mk] - (np.arange(1, p) == s))]
        col = np.zeros(Dsz, dtype=np.int64)
        for g, idx in enumerate(shift):
            contrib = ctx.vscale(int(zp[-s * g % p]), prev)
            col[idx] = ctx.vadd(col[idx], contrib)
        S[:, mk] = col
    Sinv = gf_inv_matrix(ctx, S)

    # F[y, xi] = p^-1 zeta_p^(-xi y) and its inverse Finv[xi, y] =
    # zeta_p^(xi y), both symmetric
    F = ctx.vscale(ctx.inv(ctx.from_int(p)), zp[-np.outer(y, y) % p])
    Finv = zp[np.outer(y, y) % p]

    # the side-i keys d_i(v) x_i^y, one row per packed v
    dk, yy = np.arange(Dsz)[:, None], y[None, :]
    gkeys = np.stack([key_join(P, dk, yy, 0, 0, 0, 0, 0),
                      key_join(P, 0, 0, dk, yy, 0, 0, 0)])

    tabs = {"S": S, "Sinv": Sinv, "F": F, "Finv": Finv, "gkeys": gkeys}
    P._cache["quiver_embed"] = tabs
    return tabs


def embed_columns(P: Params, js: np.ndarray) -> np.ndarray:
    """Embedded basis labels as dense columns over the side indices
    d p + y: label j = psi dsz + mk lands on S[:, mk] ⊗ F[:, xi] with
    xi = psi + phi(m)."""
    tabs = _embed_tables(P)
    psi, m = _label_cols(P, js)
    xi = (psi + label_phi(P, m)) % P.p
    return P.ctx.vmul(tabs["S"][:, None, d_key(P, m)],
                      tabs["F"][None, :, xi]).reshape(P.dsz * P.p, len(psi))


def qa_embed(P: Params, u: QuivAElem) -> GAElem:
    """Algebra monomorphism into k[D_i ⋊ P_i] inside the group algebra.

    A label (psi, m) lands on the pure tensor S_m ⊗ ê_xi with
    xi = psi + phi(m), its column of embed_columns: the D-part is the
    product of the arrow elements, the P-part the vertex idempotent
    pushed past them.  u lands on its coefficients times those columns.
    """
    keys = _embed_tables(P)["gkeys"][u.side - 1].reshape(-1)
    flat = gf_matmul(P.ctx, embed_columns(P, _label_index(P, u.psi, u.m)),
                     u.coeffs[:, None]).ravel()
    mask = flat != 0
    return GAElem(keys[mask], flat[mask])


# ---------------------------------------------------------------------------
# Serialization


def label_to_dict(label: QuivLabel) -> dict:
    return {"side": label.side, "psi_exp": label.psi, "m": list(label.m)}
