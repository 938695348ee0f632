"""Twisted tensor model of the block corner algebra B_0.

B_0 sits inside the block kG e_theta as the centralizer of kH e_theta.
Reading coefficients off the N-part identifies B_0 with A_1 (x) A_2 as
a vector space (the map pi); the product transported through pi is a
twisted tensor product whose twisting scalars are values of theta on
commutators of the h-elements.  This module realizes both directions
of pi, the twisted multiplication on labels, and the distinguished
idempotents, arrows and degree-two loop sums used downstream.

Elements of B_0 are stored by their pi-image, as label columns over the
field they carry: the label field P.lctx, or F_{ell^d} = P.ctx for the
corner maps into kG.  The group-algebra form is materialized only to
cross-check the twisted product against honest group convolution.
"""

from __future__ import annotations

from functools import reduce
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .characters import Character, h_element, make_char
from .groups import (
    Params, d_digits, digit_dtype, group_inv, key_cols, key_drop, key_n,
    l_fourier, root_powers,
)
from .groupalg import (
    GAElem, _centralizes_folded, _dedupe, _fold_block, _folded_lanes,
    _lane_runs, _mul_lanes, _theta_pow, block_fold, block_unfold, ga_basis,
    ga_zero,
)
from .linalg import gf_apply_axis, gf_matmul
from .quiver import (
    QuivAElem, _act, _canon_rows, _embed_tables, _expand, _label_act_table,
    _label_index, _leg_join, _leg_labels, _merge_terms,
    _same_columns, _sort_key, _vertex_ranges, embed_columns, label_phi,
    label_to_dict,
)


class _Cols(NamedTuple):
    """Terms as columns: a vertex column and an (n, p-1) arrow-count
    matrix per leg, one coefficient column, and in a batch the row id
    of the element each term belongs to (None for a single element)."""

    rows: Optional[np.ndarray]
    psi1: np.ndarray
    m1: np.ndarray
    psi2: np.ndarray
    m2: np.ndarray
    coeffs: np.ndarray


class TTElem:
    """B_0 element held by its pi-image in A_1 (x) A_2, with its
    coefficients in the field ctx.

    cols holds one row per term, unique on the label pair and sorted by
    (psi1, m1, psi2, m2) with m compared slot by slot; coefficients are
    nonzero.  terms is a read-only {(side-1 label, side-2 label):
    coefficient} view in the same order, built on first use.

    A batch holds one element per row id: cols.rows is set, the terms
    are unique and sorted on (row, label pair), and terms is keyed by
    (row, side-1 label, side-2 label).
    """

    __slots__ = ("theta", "cols", "ctx", "_terms")

    def __init__(self, theta: Character, cols: _Cols, ctx):
        self.theta = theta
        self.cols = cols
        self.ctx = ctx
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            c = self.cols
            keys = zip(_leg_labels(1, c.psi1, c.m1),
                       _leg_labels(2, c.psi2, c.m2))
            if c.rows is not None:
                keys = ((row, u, v) for row, (u, v)
                        in zip(c.rows.tolist(), keys))
            self._terms = MappingProxyType(dict(zip(keys,
                                                    c.coeffs.tolist())))
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, TTElem):
            return NotImplemented
        a, b = self.cols, other.cols
        if (a.rows is None) != (b.rows is None):
            return False
        keyed = slice(1 if a.rows is None else 0, None)
        return (self.theta.group == other.theta.group
                and self.theta.e == other.theta.e
                and self.ctx.order == other.ctx.order
                and _same_columns(a[keyed], b[keyed]))

    def __repr__(self):
        n = len(self.cols.coeffs)
        return f"TTElem(theta_exp={self.theta.e}, {n} terms)"


def _canon(ctx, c: _Cols) -> _Cols:
    """Sort on (row, label pair), merge equal keys with addition in ctx,
    drop zero coefficients."""
    keys = c[:5] if c.rows is not None else c[1:5]
    merged, sel = _canon_rows(ctx, c.coeffs, *keys)
    return _Cols(None if c.rows is None else c.rows[sel], c.psi1[sel],
                 c.m1[sel], c.psi2[sel], c.m2[sel], merged)


def tt_from_columns(P: Params, theta: Character, psi1, m1, psi2, m2,
                    coeffs, ctx=None) -> TTElem:
    """Element from label columns over ctx (default the label field);
    equal pairs are summed."""
    dt, ctx = digit_dtype(P), ctx or P.lctx
    return TTElem(theta, _canon(ctx, _Cols(
        None, np.asarray(psi1, dtype=np.int64) % P.p,
        np.asarray(m1, dtype=dt).reshape(-1, P.p - 1),
        np.asarray(psi2, dtype=np.int64) % P.p,
        np.asarray(m2, dtype=dt).reshape(-1, P.p - 1),
        np.asarray(coeffs, dtype=np.int64))), ctx)


def tt_zero(theta: Character, ctx) -> TTElem:
    empty = np.zeros(0, dtype=np.int64)
    return TTElem(theta, _Cols(None, empty, empty.reshape(0, 0), empty,
                               empty.reshape(0, 0), empty), ctx)


def tt_is_zero(t: TTElem) -> bool:
    return len(t.cols.coeffs) == 0


def tt_from_terms(P: Params, theta: Character, items, ctx=None) -> TTElem:
    us, vs, cs = zip(*items) if len(items) else ((), (), ())
    if any(u.side != 1 for u in us):
        raise ValueError("left label must lie on side 1")
    if any(v.side != 2 for v in vs):
        raise ValueError("right label must lie on side 2")
    return tt_from_columns(P, theta, [u.psi for u in us], [u.m for u in us],
                           [v.psi for v in vs], [v.m for v in vs], cs, ctx)


def _vertex_pairs(P: Params, theta: Character, psi1, psi2,
                  ctx=None) -> TTElem:
    """Sum of the vertex pairs (psi1[i], psi2[i]), coefficients one."""
    zero = np.zeros((len(psi1), P.p - 1), dtype=digit_dtype(P))
    return tt_from_columns(P, theta, psi1, zero, psi2, zero,
                           np.ones(len(psi1), dtype=np.int64), ctx)


def tt_unit(P: Params, theta: Character) -> TTElem:
    """pi-image of e_theta: the full vertex sum on both legs."""
    psi1, psi2 = np.divmod(np.arange(P.p * P.p, dtype=np.int64), P.p)
    return _vertex_pairs(P, theta, psi1, psi2)


def tt_add(P: Params, t: TTElem, s: TTElem) -> TTElem:
    """Sum of two elements, or row by row of two batches."""
    _check(t, s.theta, s.ctx)
    if tt_is_zero(s):
        return t
    if tt_is_zero(t):
        return s
    if (t.cols.rows is None) != (s.cols.rows is None):
        raise ValueError("cannot add a batch and a single element")
    cols = [None if x is None else np.concatenate([x, y])
            for x, y in zip(t.cols, s.cols)]
    return TTElem(t.theta, _canon(t.ctx, _Cols(*cols)), t.ctx)


def tt_sub(P: Params, t: TTElem, s: TTElem) -> TTElem:
    neg = s.cols._replace(coeffs=s.ctx.vneg(s.cols.coeffs))
    return tt_add(P, t, TTElem(s.theta, neg, s.ctx))


def _check(t: TTElem, theta: Character, ctx) -> None:
    if t.theta.group != theta.group or t.theta.e != theta.e:
        raise ValueError("theta mismatch")
    if t.ctx.order != ctx.order:
        raise ValueError("coefficient field mismatch")


# ---------------------------------------------------------------------------
# Constants per (Params, field, theta)


def _tt_consts(P: Params, ctx, theta: Character) -> dict:
    """The label constants of theta over ctx: the h-elements h1[e], h2[f]
    of chi_e on L_1 and eta_f on L_2; c_tab[e, f], the exponent of
    theta([h2[f], h1[e]]), by the cocycle [g1^a g2^b, g1^a' g2^b'] =
    gz^(a b' - a' b) of group_mul; and W = D^T zeta_r^-c_tab D over ctx,
    D = l_fourier, the one constant that depends on the field."""
    key = ("tt_consts", ctx.order, theta.e)
    consts = P._cache.get(key)
    if consts is None:
        if ctx.order != P.lctx.order:
            consts = dict(_tt_consts(P, P.lctx, theta))
        else:
            h1, h2 = ([h_element(P, theta, make_char(P, f"L{i}", e), i)
                       for e in range(P.r)] for i in (1, 2))
            (a1, b1), (a2, b2) = (np.array([(h.a, h.b) for h in hs]).T
                                  for hs in (h1, h2))
            consts = {"h1": h1, "h2": h2, "c_tab": theta.e * (
                np.outer(b1, a2) - np.outer(a1, b2)) % P.r}
        D = l_fourier(P, ctx)
        consts["W"] = gf_matmul(ctx, gf_matmul(
            ctx, D.T, root_powers(P, ctx, P.r)[-consts["c_tab"] % P.r]), D)
        P._cache[key] = consts
    return consts


# ---------------------------------------------------------------------------
# The maps iota and pi


def _route_cols(P: Params, route: dict, psi: np.ndarray, m: np.ndarray,
                coeffs: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense columns over a route's keys of the labels (psi, m), built
    on demand; with coeffs, the one column of their combination.

    Lane row f carries, per label, sum_t w[f] mix[comp[f], t] times the
    embedded label moved by the t-th L-generator power (t below the
    width of the route's mix) to the key rows pos[f].  Those are
    distinct within a row (a group product with a fixed factor, or a
    conjugation, is injective), so each row is one scatter."""
    ctx, T = P.ctx, route["mix"].shape[1]
    moved = _label_index(P, *_act(P, np.arange(T), psi, m))
    # X[:, j, t] is the embedded label j moved by t
    X = embed_columns(P, moved.ravel()).reshape(P.dsz * P.p, len(psi), T)
    if coeffs is not None:
        X = reduce(ctx.vadd, (ctx.vscale(int(cj), X[:, [j]])
                              for j, cj in enumerate(coeffs)))
    wt = ctx.vmul(route["w"][:, None], route["mix"][route["comp"]])
    out = np.zeros((len(route["keys"]), X.shape[1]), dtype=np.int64)
    for row, wrow in zip(route["pos"], wt):
        s = reduce(ctx.vadd, (ctx.vscale(int(x), X[:, :, t])
                              for t, x in enumerate(wrow)))
        out[row] = ctx.vadd(out[row], s)
    return out


def _route_elem(P: Params, route: dict, a: QuivAElem) -> GAElem:
    """Image of a side element under a linear route: the label
    coefficients are combined before the lanes scatter."""
    if not len(a.coeffs):
        return ga_zero()
    sums = _route_cols(P, route, a.psi, a.m, a.coeffs)[:, 0]
    live = sums != 0
    return GAElem(route["keys"][live], sums[live])


def _iota_table(P: Params, theta: Character, side: int) -> dict:
    """The folded corner embedding of one side as a linear route.

    Component e, the chi_e-isotypic part (row e of the mix D), rides on
    phi(h_e^-1 e_theta), a single key; the lanes are the side keys times
    those r keys, one key map for all e, and keep c = 0 because the side
    keys have trivial H-part.  No columns are stored.
    """
    tab = P._cache.get(("iota", theta.e, side))
    if tab is not None:
        return tab
    xs = [block_fold(P, theta, ga_basis(P, group_inv(P, h)))
          for h in _tt_consts(P, P.lctx, theta)[f"h{side}"]]
    lanes = _mul_lanes(P, _embed_tables(P)["gkeys"][side - 1].reshape(1, -1),
                       np.concatenate([x.keys for x in xs])[:, None])
    keys, pos = np.unique(lanes, return_inverse=True)
    tab = P._cache[("iota", theta.e, side)] = {
        "keys": keys, "pos": pos.reshape(lanes.shape),
        "mix": l_fourier(P, P.ctx),
        "comp": np.repeat(np.arange(P.r), [len(x) for x in xs]),
        "w": np.concatenate([x.coeffs for x in xs])}
    return tab


def b0_iota(P: Params, theta: Character, a: QuivAElem) -> GAElem:
    """Corner embedding of a side algebra into B_0.

    Each isotypic component rides its own h-element: the image is
    sum_chi embed(a^chi) h_chi^{-1} e_theta, formed on demand from the
    S ⊗ F columns of the L-moves of a's labels through the side's
    folded route, and unfolded once.  verify's corner_maps compares the
    route with the closed one on every basis label.
    """
    return block_unfold(P, theta,
                        _route_elem(P, _iota_table(P, theta, a.side), a))


def _stage_b(P: Params, theta: Character, f: GAElem) -> TTElem:
    """Label coordinates of a collapse f, held on its live N-keys
    ((d1 p + x1) Dsz + d2) p + x2 with their nonzero sums.

    The sums fill a tensor over the live D-rows of each leg only, never
    the dense (Dsz p)^2 one, so the P-leg rewrites cost only the support;
    the S-expansions come last, the second on the first's live rows.
    """
    if not len(f.keys):
        return tt_zero(theta, P.ctx)
    tabs, ctx, p = _embed_tables(P), P.ctx, P.p
    d1, x1, d2, x2 = np.unravel_index(f.keys, (P.dsz, p, P.dsz, p))
    rows1, i1 = np.unique(d1, return_inverse=True)
    rows2, i2 = np.unique(d2, return_inverse=True)
    T4 = np.zeros((len(rows1), p, len(rows2), p), dtype=np.int64)
    T4[i1, x1, i2, x2] = f.coeffs
    T4 = gf_apply_axis(ctx, tabs["Finv"], T4, 1)
    T4 = gf_apply_axis(ctx, tabs["Finv"], T4, 3)
    T4 = gf_apply_axis(ctx, tabs["Sinv"][:, rows1], T4, 0)
    # only the live rows of the first leg meet the second expansion
    rows1 = np.flatnonzero(T4.reshape(P.dsz, -1).any(axis=1))
    T4 = gf_apply_axis(ctx, tabs["Sinv"][:, rows2], T4[rows1], 2)

    live = np.nonzero(T4)
    (i1, xi1, mk2, xi2), vals = live, T4[live]
    m1, m2 = d_digits(P, rows1[i1]), d_digits(P, mk2)
    return tt_from_columns(P, theta, xi1 - label_phi(P, m1), m1,
                           xi2 - label_phi(P, m2), m2, vals, ctx)


def b0_pi(P: Params, theta: Character, x: GAElem) -> TTElem:
    """Coefficient collapse B_0 -> A_1 (x) A_2.

    Every support element n h e_theta contributes its coefficient to
    n; a Z-component of h is first absorbed into a theta power.  Once x
    passes the block gate, the B_0 gate and the collapse run on phi(x);
    the collapsed N-tensor is then rewritten in label coordinates.
    """
    tp, f = _fold_block(P, theta, x)
    if not _centralizes_folded(P, tp, f):
        raise ValueError(
            "x does not lie in B_0 (fails to centralize kH e_theta)")
    return _stage_b(P, theta, _dedupe(P, key_n(P, f.keys), f.coeffs))


def b0_pi_inv(P: Params, theta: Character, t: TTElem) -> GAElem:
    """Inverse of the collapse: sum of c iota_1(u) iota_2(v), each
    product formed from the folded routes, summed and unfolded once; t
    has its coefficients in F_{ell^d}."""
    _check(t, theta, P.ctx)
    c, one = t.cols, np.ones(1, dtype=np.int64)
    routes = [_iota_table(P, theta, side) for side in (1, 2)]
    # the term's coefficient rides on its side-1 leg
    pairs = [(_route_elem(P, routes[0], QuivAElem(
        1, c.psi1[[i]], c.m1[[i]], c.coeffs[[i]])), _route_elem(
        P, routes[1], QuivAElem(2, c.psi2[[i]], c.m2[[i]], one)))
        for i in range(len(c.coeffs))]
    return block_unfold(P, theta, _folded_lanes(
        P, _theta_pow(P, theta), pairs))


def b0_pi_product(P: Params, theta: Character, x: GAElem,
                  y: GAElem) -> TTElem:
    """pi(x y) for x, y in B_0, without materializing the product.

    Honest group convolution in k_theta[G/Z]: phi is an algebra map on
    kG, so the folded lanes of phi(x) phi(y) collapse to the tensor of
    x y, merged on their live N-keys only.  The lane n (a, b) n' (a', b')
    has N-part n (a, b)-twisted n' and Z-part -a' b, so for each b of x
    the right factor is first merged onto its N-part with weight
    theta(gz)^(-a' b).  This is the oracle the twisted multiplication is
    gated against; it never touches the W-table.
    """
    tp = _theta_pow(P, theta)
    x, y = block_fold(P, theta, x), block_fold(P, theta, y)
    xb, ya = key_cols(P, x.keys)[5], key_cols(P, y.keys)[4]
    pairs = [(GAElem(x.keys[xb == b], x.coeffs[xb == b]), _dedupe(
        P, key_drop(P, y.keys, 3), P.ctx.vmul(y.coeffs, tp[-ya * b % P.r])))
        for b in np.unique(xb, return_index=True)[0]]
    return _stage_b(P, theta, _folded_lanes(P, tp, pairs, key_n))


# ---------------------------------------------------------------------------
# Twisted multiplication


def _no_terms(a: _Cols, b: _Cols) -> _Cols:
    """The empty product of a and b, a batch if either is."""
    none = a.psi1[:0]
    rows = None if a.rows is None and b.rows is None else none
    return _Cols(rows, none, a.m1[:0], none, a.m2[:0], a.coeffs[:0])


def _mul_chunk(P: Params, ctx, W: np.ndarray, a: _Cols, b: _Cols) -> _Cols:
    """Twisted product of two column sets over ctx, in one pass.

    Side 1 joins each term of a with the k1-conjugates of the terms of
    b on (row, vertex); side 2 meets only the term pairs alive on side
    1, each pair a join row of its own.  Every surviving (k1, k2)
    combination of a pair picks up W[k1, k2].  Each leg's labels are
    ranked once, so the combinations merge on one integer key that
    sorts like (row, label pair).
    """
    p, r, nb = P.p, P.r, len(b.coeffs)
    ks = np.arange(r)
    # side 1: u1 times the k1-conjugate of u2
    i1, j1, k1, m1 = _leg_join(P, a.psi1, a.m1, b.psi1, b.m1, ks,
                               a.rows, b.rows)
    if not len(i1):
        return _no_terms(a, b)
    # side 2: the k2-conjugate of v1 times v2, which is the k2-conjugate
    # of (v1 times the (-k2)-conjugate of v2)
    pair, u1 = np.unique(i1 * nb + j1, return_inverse=True)
    pi, pj = np.divmod(pair, nb)
    ids = np.arange(len(pair))
    u2, _, k2, m2 = _leg_join(P, a.psi2[pi], a.m2[pi], b.psi2[pj], b.m2[pj],
                              -ks % r, ids, ids)
    if not len(u2):
        return _no_terms(a, b)
    scale, gather = _label_act_table(P)
    psi2 = a.psi2[pi[u2]] * scale[k2] % p
    m2 = m2[np.arange(len(k2))[:, None], gather[k2]]
    # label ids per leg, in label order; the row rides on side 1
    rows = a.rows[i1] if a.rows is not None else \
        (None if b.rows is None else b.rows[j1])
    psi1 = a.psi1[i1]
    left = (psi1, m1) if rows is None else (rows, psi1, m1)
    _, id1 = np.unique(_sort_key(*left), return_inverse=True)
    labels2, id2 = np.unique(_sort_key(psi2, m2), return_inverse=True)
    # each side-1 lane meets every side-2 lane of its pair, and those
    # come grouped by pair
    x1, x2 = _expand(np.searchsorted(u2, u1, "left"),
                     np.searchsorted(u2, u1, "right"))
    coeffs = ctx.vmul(ctx.vmul(a.coeffs[i1[x1]], b.coeffs[j1[x1]]),
                      W[k1[x1], k2[x2]])
    key = id1.ravel()[x1] * len(labels2) + id2.ravel()[x2]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    merged, sel = _merge_terms(ctx, coeffs, first, inv)
    s1, s2 = x1[sel], x2[sel]
    return _Cols(None if rows is None else rows[s1], psi1[s1], m1[s1],
                 psi2[s2], m2[s2], merged)


def _row_chunks(P: Params, a: _Cols, b: _Cols):
    """Runs [lo, hi) of row ids for a batched product (_lane_runs), a
    row's lanes its (k1, k2) combinations, counted as r per side-1 lane
    that passes the vertex gate."""
    scale, _ = _label_act_table(P)
    va = (a.psi1 + label_phi(P, a.m1)) % P.p
    vb = (b.psi1[:, None] * scale % P.p).ravel()
    brows = None if b.rows is None else np.repeat(b.rows, P.r)
    if a.rows is not None:
        _, lo, hi = _vertex_ranges(a.rows, va, brows, vb)
        rows = a.rows
    else:
        _, lo, hi = _vertex_ranges(brows, vb, None, va)
        rows = brows
    lanes = np.bincount(rows, (hi - lo) * P.r).astype(np.int64)
    return _lane_runs(len(lanes), lanes)


def _row_slice(c: _Cols, lo: int, hi: int) -> _Cols:
    """The terms of rows lo..hi-1 of a batch; a single element whole."""
    if c.rows is None:
        return c
    i, j = np.searchsorted(c.rows, [lo, hi])
    return _Cols(*(x[i:j] for x in c))


def _mul_cols(P: Params, ctx, W: np.ndarray, a: _Cols, b: _Cols) -> _Cols:
    """Twisted product of two column sets over ctx, row by row where they
    are batches: a term meets only the terms of its own row, and a side
    without rows meets every row of the other.

    A batch runs in chunks of whole rows (_row_chunks), so the lanes
    held at once stay bounded whatever the batch size.
    """
    if not len(a.coeffs) or not len(b.coeffs):
        return _no_terms(a, b)
    if a.rows is None and b.rows is None:
        return _mul_chunk(P, ctx, W, a, b)
    parts = [_mul_chunk(P, ctx, W, _row_slice(a, lo, hi),
                        _row_slice(b, lo, hi))
             for lo, hi in _row_chunks(P, a, b)]
    if not parts:
        return _no_terms(a, b)
    return _Cols(*(np.concatenate(col) for col in zip(*parts)))


def tt_mul(P: Params, theta: Character, t: TTElem, s: TTElem) -> TTElem:
    """Twisted product on pi-images; of two batches row by row, and of
    a single element with every row of a batch.

    (a1 (x) b1)(a2 (x) b2) picks up the inverse commutator scalar on
    each (chi-part of a2, eta-part of b1); expanding both isotypic
    projections as L-averages turns the scalar sum into the cached
    W-table, leaving a closed r x r sum over conjugated labels; both
    factors, and the product, lie over one field.
    """
    ctx = t.ctx
    _check(t, theta, ctx)
    _check(s, theta, ctx)
    if tt_is_zero(t) or tt_is_zero(s):
        return TTElem(theta, _no_terms(t.cols, s.cols), ctx)
    W = _tt_consts(P, ctx, theta)["W"]
    return TTElem(theta, _mul_cols(P, ctx, W, t.cols, s.cols), ctx)


# ---------------------------------------------------------------------------
# Batches


def tt_batch(P: Params, theta: Character, elems) -> TTElem:
    """The batch whose row i holds elems[i], over their common field."""
    ctx = elems[0].ctx
    for t in elems:
        _check(t, theta, ctx)
        if t.cols.rows is not None:
            raise ValueError("a batch holds single elements")
    live = [(i, t.cols) for i, t in enumerate(elems) if not tt_is_zero(t)]
    if not live:
        none = np.zeros(0, dtype=np.int64)
        m = np.zeros((0, P.p - 1), dtype=digit_dtype(P))
        return TTElem(theta, _Cols(none, none, m, none, m, none), ctx)
    rows = np.repeat([i for i, _ in live], [len(c.coeffs) for _, c in live])
    return TTElem(theta, _Cols(rows, *(np.concatenate(col) for col in zip(
        *(c[1:] for _, c in live)))), ctx)


def tt_rows(t: TTElem) -> TTElem:
    """The batch whose row i holds the i-th term of t."""
    return TTElem(t.theta, t.cols._replace(
        rows=np.arange(len(t.cols.coeffs))), t.ctx)


def tt_cross(lefts: TTElem, rights: TTElem, n: int) -> tuple:
    """Two batches over the rows i n + j, for the rows i of lefts and
    j < n of rights, the first holding left row i and the second right
    row j: one product of the two forms every left times every right."""
    _check(rights, lefts.theta, lefts.ctx)
    a, b = lefts.cols, rights.cols
    if len(b.rows) and b.rows[-1] >= n:
        raise ValueError("a right row id is not below the stride")
    # the live row ids, from the sorted row columns
    li, rj = (x[np.diff(x, prepend=-1) != 0] for x in (a.rows, b.rows))
    # each left term once per live right row; a stable sort on the new
    # rows keeps the terms of a row in label order
    rows = (np.repeat(a.rows * n, len(rj)) + np.tile(rj, len(a.rows)))
    order = np.argsort(rows, kind="stable")
    left = _Cols(rows[order], *(np.repeat(x, len(rj), axis=0)[order]
                                for x in a[1:]))
    # the right batch once per live left row, in row order already
    right = _Cols((li[:, None] * n + b.rows).ravel(),
                  *(np.tile(x, (len(li),) + (1,) * (x.ndim - 1))
                    for x in b[1:]))
    return (TTElem(lefts.theta, left, lefts.ctx),
            TTElem(lefts.theta, right, lefts.ctx))


# ---------------------------------------------------------------------------
# Distinguished elements


def tt_conjugates(P: Params, theta: Character, side: int, psi: int, m,
                  vertices) -> TTElem:
    """The batch whose row t < r holds the t-th L-conjugate of the label
    (psi, m) on the given side, with coefficient one, tensored with the
    sum of the given vertices of the other side."""
    r, n = P.r, len(vertices)
    cpsi, cm = _act(P, np.arange(r), np.array([psi], dtype=np.int64),
                    np.asarray(m, dtype=digit_dtype(P)).reshape(1, -1))
    lab = (np.repeat(cpsi.ravel(), n), np.repeat(cm[0], n, axis=0))
    other = (np.tile(vertices, r), np.zeros_like(lab[1]))
    pair = (*lab, *other) if side == 1 else (*other, *lab)
    return TTElem(theta, _canon(P.lctx, _Cols(
        np.repeat(np.arange(r), n), *pair,
        np.ones(r * n, dtype=np.int64))), P.lctx)


def _orbit(P: Params, e: int) -> list:
    """The <g0>-orbit of e mod p, ascending: its least member labels it."""
    return sorted({e * u % P.p for u in P._g0pow})


def tt_eps(P: Params, theta: Character, label, ctx=None) -> TTElem:
    """Idempotent attached to a simple label (phi, psi).

    Mixed labels keep the individual vertex on the nontrivial leg;
    when both legs are nontrivial each leg carries its full L-orbit
    vertex sum.
    """
    phi, psi = int(label.phi), int(label.psi)
    if not (0 <= phi < P.p and 0 <= psi < P.p):
        raise ValueError("invalid simple label")
    if phi == 0 and psi == 0:
        pairs = [(0, 0)]
    elif psi == 0:
        pairs = [(phi, 0)]
    elif phi == 0:
        pairs = [(0, psi)]
    else:
        pairs = [(a, b) for a in _orbit(P, phi) for b in _orbit(P, psi)]
    return _vertex_pairs(P, theta, *zip(*pairs), ctx)


def tt_arrow(P: Params, theta: Character, side: int, vertex: Character,
             step: Character) -> TTElem:
    """Arrow element: one step of the side quiver, unit on the other leg."""
    if vertex.group != f"P{side}" or step.group != f"P{side}":
        raise ValueError(f"vertex and step must be characters of P{side}")
    if step.e % P.p == 0:
        raise ValueError("step must be a nontrivial character")
    m = np.zeros((1, P.p - 1))
    m[0, step.e % P.p - 1] = 1
    leg, vertex0 = ([vertex.e], m), ([0], np.zeros_like(m))
    pair = (*leg, *vertex0) if side == 1 else (*vertex0, *leg)
    return tt_from_columns(P, theta, *pair, [1])


def tt_loop_conjugates(P: Params, theta: Character, side: int,
                       step: Character) -> TTElem:
    """tt_conjugates of the length-two return path at vertex 0, out
    along step and back along its inverse, tensored with vertex 0."""
    if step.group != f"P{side}":
        raise ValueError(f"step must be a character of P{side}")
    if step.e % P.p == 0:
        raise ValueError("step must be a nontrivial character")
    m = np.zeros(P.p - 1)
    m[step.e % P.p - 1] += 1
    m[-step.e % P.p - 1] += 1
    return tt_conjugates(P, theta, side, 0, m, [0])


def tt_tilde(P: Params, theta: Character, side: int, step: Character,
             weight: Character) -> TTElem:
    """Weighted orbit sum of length-two return paths at the vertex 1.

    Each L-conjugate of the path out along step and back along its
    inverse enters with the weight character evaluated against the
    conjugating generator power.
    """
    if weight.group != f"L{side}":
        raise ValueError(f"weight must be a character of L{side}")
    c = tt_loop_conjugates(P, theta, side, step).cols
    return tt_from_columns(P, theta, *c[1:5], root_powers(P, P.lctx, P.r)[
        -weight.e * c.rows % P.r])


# ---------------------------------------------------------------------------
# Serialization


def tt_to_json(P: Params, t: TTElem) -> list:
    """Terms in stored order, which is sorted by (psi1, m1, psi2, m2)."""
    return [{"u": label_to_dict(u), "v": label_to_dict(v),
             "coeff": t.ctx.to_coeffs(c)} for (u, v), c in t.terms.items()]
