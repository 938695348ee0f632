"""Named structural checks with timed pass/fail reporting.

Every claim the package rests on can be re-derived at runtime; this
module wraps each one as a named check so the test suite and the
command line share a single registry.  A check returns None when its
claim holds and a JSON-safe witness when it does not; run_checks adds
timing and converts stray exceptions into failure rows instead of
aborting the suite.  The quick and the full suite run the same
algorithm in every check and differ in how much it samples; the full
embed_multiplicative also multiplies 20 sampled pairs with ga_mul.
Checks that need the dense embedding tables are skipped at parameters
where those tables do not fit.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Dict, List, Optional

import numpy as np

from .characters import (
    Character, char_exponent, char_frob_power, char_idempotent,
    check_faithful, make_char,
)
from .field import field_refusal
from .groups import (
    GroupElem, Params, commutator, conjugate, d_digits, d_elem, d_key,
    elem_to_dict, group_inv, group_mul, h_elem, identity, key_bits, key_drop,
    key_n, key_z, p_elem, pack_key, subgroup_elements,
)
from .groupalg import (
    _TABLE_ENTRIES, _lane_runs, _mul_lanes, _table_entries, _theta_pow,
    block_fold, block_idempotent, block_mul, centralizes_block_H, ga_mul,
    ga_frobenius_twist, ga_from_terms,
)
from .linalg import gf_digits, gf_matmul, gf_planes, gf_times
from .morita import (
    commutation_pairing, ext_dim, fp_automorphism, head_algebra, head_batch,
    mf_number, morita_equivalent, params_for_target, recover_theta,
    simple_kind, simple_make, simple_str, simples, swap_isomorphism,
)
from .quiver import (
    _embed_tables, _label_cols, _label_index, _leg_join, _sort_key,
    embed_columns, label_make, label_phi, label_to_dict, qa_basis, qa_embed,
    qa_embed_available, qa_from_columns, qa_labels, qa_mul,
)
from .twisted import (
    TTElem, _iota_table, _route_cols, _tt_consts, _vertex_pairs,
    b0_iota, b0_pi, b0_pi_inv, b0_pi_product, tt_add, tt_arrow, tt_batch,
    tt_cross, tt_eps, tt_from_terms, tt_mul, tt_sub, tt_to_json, tt_unit,
)


# dimensions builds one label row per arrow class, ell^(p-1) of them
_LABEL_ROWS_LIMIT = 1 << 18
# radical_powers multiplies all (p-1)^(ell-1) arrow chains at once
_CHAINS_LIMIT = 1 << 18


class SkipCheck(Exception):
    """A check that cannot run at the given parameters."""


def _need_field(P: Params) -> None:
    """Skip, before anything is built, where F_{ell^d} is refused."""
    if refusal := field_refusal(P.ell, P.d):
        raise SkipCheck(refusal)


def _need_group_algebra(P: Params) -> None:
    _need_field(P)
    if key_bits(P) > 63:
        raise SkipCheck(f"group keys need {key_bits(P)} bits, more than the"
                        f" 63 of an int64 key")
    if _table_entries(P) > _TABLE_ENTRIES:
        raise SkipCheck(f"product tables need {_table_entries(P)} entries,"
                        f" more than the bound of {_TABLE_ENTRIES}")


def _need_embed(P: Params) -> None:
    _need_group_algebra(P)
    if not qa_embed_available(P):
        raise SkipCheck(
            f"side dimension {P.dsz * P.p} is beyond the embedding tables")


def _random_label(P: Params, side: int, rng: random.Random, deg: int):
    m = [0] * (P.p - 1)
    for _ in range(deg):
        s = rng.randrange(1, P.p)
        if m[s - 1] < P.ell - 1:
            m[s - 1] += 1
    return label_make(P, side, rng.randrange(P.p), m)


def _random_qa(P: Params, side: int, rng: random.Random, nterms: int,
               deg: int):
    terms = [(rng.randrange(1, P.ctx.order), _random_label(P, side, rng, deg))
             for _ in range(nterms)]
    return qa_from_columns(P, side, [lab.psi for _, lab in terms],
                           [lab.m for _, lab in terms], [c for c, _ in terms])


def _random_terms(P: Params, rng: random.Random, nterms: int):
    """nterms random (group element, coefficient) pairs."""
    terms = []
    for _ in range(nterms):
        g = d_elem(P, 1, rng.randrange(P.p), rng.randrange(P.ell))
        g = group_mul(P, g, p_elem(P, 1, rng.randrange(P.p)))
        g = group_mul(P, g, d_elem(P, 2, rng.randrange(P.p),
                                   rng.randrange(P.ell)))
        g = group_mul(P, g, p_elem(P, 2, rng.randrange(P.p)))
        g = group_mul(P, g, h_elem(P, rng.randrange(P.r),
                                   rng.randrange(P.r), rng.randrange(P.r)))
        terms.append((g, rng.randrange(1, P.ctx.order)))
    return terms


# ---------------------------------------------------------------------------
# Checks; each returns None on success or a JSON-safe witness


def _check_dimensions(P: Params, theta: Character, suite: str,
                      rng: random.Random) -> Optional[dict]:
    if P.dsz > _LABEL_ROWS_LIMIT:
        raise SkipCheck(f"ell^(p-1) = {P.dsz} arrow classes are over the"
                        f" table limit 2^{_LABEL_ROWS_LIMIT.bit_length() - 1}")
    # a side label is a vertex psi < p with an arrow-count row m; the
    # rows are the digit matrix of the packed classes
    digits = d_digits(P, np.arange(P.dsz))
    rows = digits[np.unique(_sort_key(digits), return_index=True)[1]]
    side, want = P.p * len(rows), P.ell ** (P.p - 1) * P.p
    if side != want:
        return {"expected_side_dim": want, "got": side}
    classes = int(rows.any(axis=1).sum())
    if classes != P.ell ** (P.p - 1) - 1:
        return {"expected_classes": P.ell ** (P.p - 1) - 1, "got": classes}
    if side ** 2 != (P.dsz * P.p) ** 2:
        return {"expected_b0_labels": (P.dsz * P.p) ** 2, "got": side ** 2}
    return None


def _check_group_relations(P: Params, theta: Character, suite: str,
                           rng: random.Random) -> Optional[dict]:
    r = P.r
    el = {h: h_elem(P, *h) for h in itertools.product(range(r), repeat=3)}
    hs = list(el)
    pairs = itertools.product(hs, hs)
    if suite == "quick" and len(hs) ** 2 > 20000:
        pairs = (((rng.choice(hs)), rng.choice(hs)) for _ in range(2000))
    for (a, b, c), (a2, b2, c2) in pairs:
        got = group_mul(P, el[a, b, c], el[a2, b2, c2])
        if got != el[(a + a2) % r, (b + b2) % r, (c + c2 - a2 * b) % r]:
            return {"left": [a, b, c], "right": [a2, b2, c2]}
    for g in (el[1, 0, 0], el[0, 1, 0], el[0, 0, 1]):
        if reduce(partial(group_mul, P), [g] * r) != identity(P):
            return {"generator_without_order_r": elem_to_dict(g)}
    gens = [d_elem(P, 1, 1), p_elem(P, 1, 1), d_elem(P, 2, 1),
            p_elem(P, 2, 1)]
    kernel = {h for h in hs if all(conjugate(P, g, el[h]) == g for g in gens)}
    if kernel != {(0, 0, c) for c in range(r)}:
        return {"action_kernel_size": len(kernel), "expected": r}
    return None


def _embed_side_data(P: Params, side: int) -> dict:
    """Labels, label columns and slots a p + b of one side."""
    js = np.arange(P.dsz * P.p)
    psi, m = _label_cols(P, js)
    return {"labels": qa_labels(P, side), "cols": (psi, m),
            "slot": d_key(P, m) * P.p + (psi + label_phi(P, m)) % P.p}


def _embed_pairs(P: Params, rng: random.Random,
                 count: int) -> Optional[dict]:
    """Sampled homomorphism checks through the group-algebra engine."""
    labels = {side: qa_labels(P, side) for side in (1, 2)}
    for _ in range(count):
        side = rng.choice((1, 2))
        lu = rng.choice(labels[side])
        lv = rng.choice(labels[side])
        lhs = ga_mul(P, qa_embed(P, qa_basis(P, lu)),
                     qa_embed(P, qa_basis(P, lv)))
        rhs = qa_embed(P, qa_mul(P, qa_basis(P, lu), qa_basis(P, lv)))
        if lhs != rhs:
            return {"side": side, "u": label_to_dict(lu),
                    "v": label_to_dict(lv)}
    return None


def _side_table(P: Params):
    """δ[d, y, d'], the D-part of (d y)^-1 d' over the side indices
    d p + y, from the library's product kernel on the side-1 keys, a
    block of rows u at a time: row u of u v is row w = u^-1, found by
    the identity key 0.  Returns δ and None, or None and the first of
    u v off D_1 ⋊ P_1, then of w^-1 (d' y') not of shape (δ, y' - y)."""
    g, p, dsz = _embed_tables(P)["gkeys"][0].ravel(), P.p, P.dsz
    n = len(g)
    delta, first = np.empty((n, dsz), np.min_scalar_type(dsz - 1)), n * n
    for lo, hi in _lane_runs(n, n):
        keys = _mul_lanes(P, g[lo:hi, None], g)
        # the side index d1 p + x1, and the rest: side 2 and the H-part
        s, rest = divmod(key_n(P, keys), n)
        bad = np.argwhere(rest | (keys - key_drop(P, keys, 3)))
        if len(bad):
            return None, {"at": [lo + int(bad[0, 0]), int(bad[0, 1])],
                          "defect": "side product leaves D ⋊ P"}
        w = np.argmax(s == 0, axis=1)
        s = s.reshape(len(w), dsz, p)
        # shape (δ, y' - y): s is δ p + (y' - w) mod p along each row
        i, d, y = np.nonzero(s != s[..., :1] // p * p + (
            np.arange(p) - w[:, None, None]) % p)
        first = int((w[i] * n + d * p + y).min(initial=first))
        delta[w] = s[..., 0] // p
    return (delta.reshape(dsz, p, dsz), None) if first == n * n else (
        None, {"at": list(divmod(first, n)),
               "defect": "side table is not D ⋊ P"})


def _embed_products(P: Params, data: dict, delta: np.ndarray,
                    rows: np.ndarray):
    """For each arrow row a_u of the ascending rows, its labels us with
    the D-vectors of their products over all v, got[i, v] = Ẑ[b_us[i] -
    b_v, a_u, :, a_v] (see _embed_all_pairs), from the factors of E and
    the D-parts delta of the side table.  Z is formed on the columns
    S[:, rows] alone, a run of d' at a time (_lane_runs), from planes of
    S[:, rows] and of F and digits of S that are built once."""
    ctx, p, dsz = P.ctx, P.p, P.dsz
    S, F = _embed_tables(P)["S"], _embed_tables(P)["F"]
    right, Fp = gf_planes(ctx, S[:, rows]), gf_planes(ctx, F)
    Sd = gf_digits(ctx, S, right)
    # every entry is a field element below q
    q = np.min_scalar_type(ctx.order - 1)
    Z = np.empty((p, dsz * dsz, len(rows)), dtype=q)
    for t, (lo, hi) in itertools.product(range(p),
                                         _lane_runs(dsz, dsz * dsz)):
        # Z[t, (d', a_v), i] = sum_d S[δ(d, t, d'), a_v] S[d, rows[i]],
        # the digits of the left factor at [d', a_v, :, d]
        left = Sd[delta[:, t, lo:hi].T].transpose(0, 3, 2, 1)
        Z[t, lo * dsz:hi * dsz] = gf_times(
            ctx, left.reshape((-1,) + Sd.shape[1:]), right)
    del left, right, Sd
    a, b = np.divmod(data["slot"], p)
    for i, au in enumerate(rows):
        # Ẑ[c, d', a_v] = sum_y F[y, c] Z[y, (d', a_v), i]
        Zh = gf_times(ctx, Z[:, :, i].T, Fp).astype(Z.dtype).T.reshape(
            p, dsz, dsz)
        us = np.flatnonzero(a == au)
        yield us, Zh[(b[us, None] - b) % p, :, a]


def _embed_all_pairs(P: Params, rows: np.ndarray) -> Optional[dict]:
    """Every basis pair (u, v) with u on the arrow rows a_u in rows,
    through the Kronecker factors of E.

    Label j embeds as E[:, j] = S[:, a_j] ⊗ F[:, b_j] over the side
    indices d p + y, and (d y)^-1 (d' y') has P-part y' - y and a
    D-part δ(d, y, d') free of y'.  So, exactly,

      (E_u * E_v)[d' p + y'] = sum_y F[y, b_u] F[y'-y, b_v] Z[a_u, y, d', a_v]
      Z[a_u, y, d', a_v] = sum_d S[d, a_u] S[δ(d, y, d'), a_v]

    F is a character table, F[y, ξ] = p^-1 ζ_p^(-ξ y), so it
    diagonalizes the P-shifts: F[y'-y, b_v] F[y, b_u] = F[y', b_v]
    F[y, b_u - b_v].  Every product is then the pure tensor

      E_u * E_v = Ẑ[b_u - b_v, a_u, :, a_v] ⊗ F[:, b_v],
      Ẑ[c] = sum_y F[y, c] Z[y],

    p dsz^2 entries per row a_u.  The label rule sends (u, v) to 0 or to
    a label w with E_w = S[:, a_w] ⊗ F[:, b_w].  The columns of an
    invertible F are nonzero and independent, and S[:, a_w] is nonzero
    (_embed_tables inverts S), so a product x ⊗ F[:, b_v] is 0 iff
    x = 0, and equals E_w iff b_w = b_v and x = S[:, a_w].  Each pair
    compares dsz entries, with the verdict of the dense comparison, in
    (a_u, u, v) order.  Five gates make this a check, not a trusted
    formula: E is kron(S, F) at each label's slot a p + b, the library's
    product kernel keeps the side keys on their side, every side-table
    entry has the shape above, F diagonalizes the P-shifts on all p^4
    entries, and F Finv = I.  The sides share their dense data, so one
    pass serves both.
    """
    ctx, p, dsz, n, y = P.ctx, P.p, P.dsz, P.dsz * P.p, np.arange(P.p)
    data, tabs = _embed_side_data(P, 1), _embed_tables(P)
    S, F = tabs["S"], tabs["F"]
    a, b = np.divmod(data["slot"], p)
    for lo, hi in _lane_runs(n, n):
        js = np.arange(lo, hi)
        bad = np.flatnonzero((embed_columns(P, js) != ctx.vmul(
            S[:, None, a[js]], F[None, :, b[js]]).reshape(n, -1)).any(axis=0))
        if len(bad):
            return {"side": 1, "u": label_to_dict(data["labels"][js[bad[0]]]),
                    "defect": "embedded column is not S ⊗ F"}
    delta, defect = _side_table(P)
    if defect is not None:
        return defect
    y1, y0, bu, bv = np.ix_(y, y, y, y)  # y', y, b_u, b_v
    bad = np.argwhere(ctx.vmul(F[(y1 - y0) % p, bv], F[y0, bu])
                      != ctx.vmul(F[y1, bv], F[y0, (bu - bv) % p]))
    if len(bad):
        return {"at": bad[0].tolist(),
                "defect": "F does not diagonalize the P-shifts"}
    if not np.array_equal(gf_matmul(ctx, F, tabs["Finv"]),
                          np.diag(np.full(p, ctx.one))):
        return {"defect": "F is not invertible"}
    # the label rule once for the labels us on the rows against all n:
    # a pair wants the row a_w of zrows, the zero row dsz if it is
    # killed, and the row dsz + 1 of q, which no entry equals, if b_w != b_v
    psi, m = data["cols"]
    us = np.flatnonzero(np.isin(a, rows))
    i, j, _, prod = _leg_join(P, psi[us], m[us], psi, m,
                              np.zeros(1, dtype=np.int64))
    aw = np.full((len(us), n), dsz, dtype=np.min_scalar_type(dsz + 1))
    w_a, w_b = np.divmod(data["slot"][_label_index(P, psi[us[i]], prod)], p)
    aw[i, j] = np.where(w_b == b[j], w_a, dsz + 1)
    zrows = np.vstack([S.T, np.zeros(dsz, dtype=S.dtype), np.full(
        dsz, ctx.order)]).astype(np.min_scalar_type(ctx.order))
    for got_us, got in _embed_products(P, data, delta, rows):
        bad = (got != zrows[aw[np.searchsorted(us, got_us)]]).any(axis=2)
        if bad.any():
            k, v = np.argwhere(bad)[0]
            return {"side": 1, "u": label_to_dict(data["labels"][got_us[k]]),
                    "v": label_to_dict(data["labels"][v])}
    return None


def _check_embed_multiplicative(P: Params, theta: Character, suite: str,
                                rng: random.Random) -> Optional[dict]:
    _need_embed(P)
    if suite == "full":
        return _embed_all_pairs(P, np.arange(P.dsz)) or \
            _embed_pairs(P, rng, 20)
    # the arrow rows a_u of 16 sampled left labels u = psi dsz + a_u
    return _embed_all_pairs(P, np.array(sorted(
        {rng.randrange(P.dsz * P.p) % P.dsz for _ in range(16)})))


def _closed_route(P: Params, theta: Character, side: int) -> dict:
    """The folded closed corner route of one side: label j goes to phi
    of sum_t g_t^-1 (embed(j) e_triv e_theta) g_t, g_t the L_side powers
    and e_triv the trivial idempotent of the other L.  Its lanes are the
    side keys times phi(e_triv e_theta), then the r conjugations; its
    mix is the single move t = 0, so a label's column is its own
    embedding."""
    other = make_char(P, f"L{3 - side}", 0)
    e = block_fold(P, theta, ga_mul(P, char_idempotent(P, other),
                                    block_idempotent(P, theta)))
    hs = [h_elem(P, t, 0, 0) if side == 1 else h_elem(P, 0, t, 0)
          for t in range(P.r)]
    g = np.array([pack_key(P, h) for h in hs])
    gi = np.array([pack_key(P, group_inv(P, h)) for h in hs])
    n = P.dsz * P.p
    base = _mul_lanes(P, _embed_tables(P)["gkeys"][side - 1].reshape(1, -1),
                      e.keys[:, None])
    lanes = _mul_lanes(P, _mul_lanes(P, gi[:, None, None], base),
                       g[:, None, None]).reshape(-1, n)
    # the side keys have trivial H-part, so the shift is one per row
    z = key_z(P, lanes)
    if (z != z[:, :1]).any():
        raise ValueError("a closed-route lane row has no single Z-shift")
    lanes = key_drop(P, lanes, 1)
    keys, pos = np.unique(lanes, return_inverse=True)
    return {"keys": keys, "pos": pos.reshape(lanes.shape),
            "mix": np.full((1, 1), P.ctx.one, dtype=np.int64),
            "comp": np.zeros(len(lanes), dtype=np.int64),
            "w": P.ctx.vmul(np.tile(e.coeffs, P.r),
                            _theta_pow(P, theta)[z[:, 0]])}


def _check_corner_maps(P: Params, theta: Character, suite: str,
                       rng: random.Random) -> Optional[dict]:
    _need_embed(P)
    # b0_iota's route against the closed route on every basis label, as
    # dense matrices over the union of their keys; the blocks of labels
    # are small, since each block's columns are built on demand
    for side in (1, 2):
        routes = (_iota_table(P, theta, side), _closed_route(P, theta, side))
        keys = np.unique(np.concatenate([rt["keys"] for rt in routes]),
                         return_index=True)[0]
        for lo, hi in _lane_runs(P.dsz * P.p, len(keys)):
            got, want = (np.zeros((len(keys), hi - lo), dtype=np.int64)
                         for _ in routes)
            for dense, rt in zip((got, want), routes):
                dense[np.searchsorted(keys, rt["keys"])] = _route_cols(
                    P, rt, *_label_cols(P, np.arange(lo, hi)))
            bad = np.flatnonzero((got != want).any(axis=0))
            if len(bad):
                return {"routes_disagree_at": label_to_dict(
                    qa_labels(P, side)[lo + bad[0]])}
    n_hom = 12 if suite == "quick" else 20
    for side in (1, 2):
        for _ in range(n_hom):
            a = _random_qa(P, side, rng, 2, 1)
            b = _random_qa(P, side, rng, 2, 1)
            lhs = block_mul(P, theta, b0_iota(P, theta, a),
                            b0_iota(P, theta, b))
            if lhs != b0_iota(P, theta, qa_mul(P, a, b)):
                return {"side": side, "defect": "corner map not"
                        " multiplicative"}
    if suite == "quick":
        profiles = [(0, 0)] * 10 + [(1, 0), (0, 1)] * 5 + [(1, 1)] * 6 + \
            [(2, 0), (0, 2), (2, 1), (1, 2)]
    else:
        profiles = [(0, 0)] * 30 + [(1, 0), (0, 1)] * 13 + \
            [(1, 1)] * 16 + [(2, 0), (0, 2)] * 5 + [(2, 1), (1, 2)] * 6 + \
            [(2, 2)] * 6
    for d1, d2 in profiles:
        lu, lv = _random_label(P, 1, rng, d1), _random_label(P, 2, rng, d2)
        prod = block_mul(P, theta, b0_iota(P, theta, qa_basis(P, lu)),
                         b0_iota(P, theta, qa_basis(P, lv)))
        if b0_pi(P, theta, prod) != tt_from_terms(
                P, theta, [(lu, lv, P.ctx.one)], P.ctx):
            return {"u": label_to_dict(lu), "v": label_to_dict(lv),
                    "defect": "collapse is not the pure tensor"}
    for _ in range(4 if suite == "quick" else 6):
        side = rng.choice((1, 2))
        img = b0_iota(P, theta, _random_qa(P, side, rng, 2, 1))
        if not centralizes_block_H(P, theta, img):
            return {"side": side, "defect": "image not central for the"
                    " H-part"}
    return None


def _check_product_gate(P: Params, theta: Character, suite: str,
                        rng: random.Random) -> Optional[dict]:
    _need_embed(P)
    n = 30 if suite == "quick" else 100
    # the degree-1 x degree-1 lanes cost orders of magnitude more than
    # the vertex lanes, so the mix leans on cheap samples where the
    # group is large: c0 pairs of degree 0, c1 of degree 1, the rest 2
    w = (0.70, 0.28) if P.ell == 2 else (0.50, 0.40)
    c0, c1 = max(1, round(n * w[0])), max(1, round(n * w[1]))
    # the four places of the one arrow of a degree-1 pair
    ones = [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)),
            ((0, 0), (0, 1))]
    profiles = [((0, 0), (0, 0))] * c0 + [ones[rng.randrange(4)]
                                          for _ in range(c1)]
    profiles += [tuple((1, 0) if rng.random() < 0.5 else (0, 1)
                       for _ in range(2)) for _ in range(max(1, n - c0 - c1))]
    pairs = [tuple(tt_from_terms(P, theta, [(
        _random_label(P, 1, rng, d[0]), _random_label(P, 2, rng, d[1]),
        rng.randrange(1, P.ctx.order))], P.ctx) for d in prof)
        for prof in profiles]
    # one vertex pair per W entry: (1, 1) times (s_k1^-1, s_k2), with
    # s_k = g0^-k mod p, reaches W[k1, k2] alone
    g0 = P._g0pow
    pairs += [(_vertex_pairs(P, theta, [1], [1], P.ctx), _vertex_pairs(
        P, theta, [g0[k1]], [g0[-k2 % P.r]], P.ctx))
        for k1 in range(P.r) for k2 in range(P.r)]
    for t1, t2 in pairs:
        gate = b0_pi_product(P, theta, b0_pi_inv(P, theta, t1),
                             b0_pi_inv(P, theta, t2))
        if tt_mul(P, theta, t1, t2) != gate:
            return {"left": tt_to_json(P, t1), "right": tt_to_json(P, t2)}
    return None


def _check_simple_census(P: Params, theta: Character, suite: str,
                         rng: random.Random) -> Optional[dict]:
    S = simples(P, theta)
    k = (P.p - 1) // P.r
    want = 2 * P.p - 1 + k * k
    if len(S) != want or len({lab for lab, _ in S}) != want:
        return {"expected_count": want, "got": len(S)}
    degs = Counter(d for _, d in S)
    if degs != Counter({P.r: 2 * P.p - 1, P.r ** 2: k * k}):
        return {"degree_multiset": sorted(degs.items())}
    if sum(d * d for _, d in S) != P.p ** 2 * P.r ** 2:
        return {"sum_of_degree_squares": sum(d * d for _, d in S),
                "expected": P.p ** 2 * P.r ** 2}
    return None


def _check_idempotent_head(P: Params, theta: Character, suite: str,
                           rng: random.Random) -> Optional[dict]:
    # the head batch never uses F_{ell^d}; its refusal stands in for a
    # bound on the p^4 head terms (1.1e8 at (2,103,17))
    _need_field(P)
    head = head_batch(P, theta)
    labs, n = head.labels, len(head.labels)
    eps = tt_batch(P, theta, head.eps)
    # every product eps_i eps_j in one batch, row i n + j, against
    # eps_i on the diagonal and 0 off it
    want = TTElem(theta, eps.cols._replace(rows=eps.cols.rows * (n + 1)),
                  eps.ctx)
    bad = np.unique(tt_sub(P, tt_mul(P, theta, *tt_cross(eps, eps, n)),
                           want).cols.rows, return_index=True)[0]
    i, j = np.divmod(bad, n)
    if (i == j).any():
        return {"label": simple_str(labs[i[i == j][0]]),
                "defect": "not idempotent"}
    if len(bad):
        return {"labels": [simple_str(labs[i[0]]), simple_str(labs[j[0]])],
                "defect": "not orthogonal"}
    if reduce(lambda a, b: tt_add(P, a, b), head.eps) != tt_unit(P, theta):
        return {"defect": "family does not resolve the unit"}
    # for an idempotent e, e x (1 - e) and (1 - e) x e both vanish
    # exactly when e x = x e; x runs over the vertex pairs, and every
    # (e, x) is a row of the head's batch
    bad = tt_sub(P, tt_mul(P, theta, head.E, head.X), head.XE).cols.rows
    if len(bad):
        return {"label": simple_str(labs[bad[0] // P.p ** 2]),
                "defect": "not central in the head"}
    k = (P.p - 1) // P.r
    dims = Counter(d for _, d in head_algebra(P, theta, head))
    if dims != Counter({1: 2 * P.p - 1, P.r ** 2: k * k}):
        return {"head_dims": sorted(dims.items())}
    return None


def _check_ext_quiver(P: Params, theta: Character, suite: str,
                      rng: random.Random) -> Optional[dict]:
    _need_field(P)  # as idempotent_head, for 2 p^2 (p-1) degree-1 rows
    labs = [s for s, _ in simples(P, theta)]
    unit = labs[0]
    left = [s for s in labs if simple_kind(s) == "left"]
    right = [s for s in labs if simple_kind(s) == "right"]
    orbit_pairs = [s for s in labs if simple_kind(s) == "pair"]
    if suite == "quick":
        left, right, orbit_pairs = left[:2], right[:2], orbit_pairs[:1]
    # (a, b, wanted rank), in the order the witness names the first miss
    want = [(a, b, int(a != b)) for family in ([unit] + left, [unit] + right)
            for a in family for b in family]
    want += [(x, y, 0) for a in left for b in right
             for x, y in ((a, b), (b, a))]
    want += [(v, v, ">= 1") for v in orbit_pairs]
    got = ext_dim(P, theta, [(a, b) for a, b, _ in want])
    for (a, b, w), g in zip(want, got):
        if (g < 1) if w == ">= 1" else g != w:
            return {"from": simple_str(a), "to": simple_str(b),
                    "expected": w, "got": g}
    return None


def _check_radical_powers(P: Params, theta: Character, suite: str,
                          rng: random.Random) -> Optional[dict]:
    ell, p = P.ell, P.p
    if (p - 1) ** (ell - 1) > _CHAINS_LIMIT:
        raise SkipCheck(f"(p-1)^(ell-1) = {(p - 1) ** (ell - 1)} arrow"
                        f" chains are over the bound {_CHAINS_LIMIT}")
    # the chains in itertools.product order of their first ell - 1
    # steps, each closed by the step that makes the characters sum to 0
    head = np.indices((p - 1,) * (ell - 1)).reshape(ell - 1, -1).T + 1
    last = -head.sum(axis=1) % p
    steps = np.column_stack([head, last])[last != 0]
    at = (np.cumsum(steps, axis=1) - steps) % p
    arrows = {(v, s): tt_arrow(P, theta, 1, make_char(P, "P1", v),
                               make_char(P, "P1", s))
              for v in range(p) for s in range(1, p)}
    t = None
    for k in range(ell):
        # chain i's k-th arrow is row i of one batch
        batch = tt_batch(P, theta, [arrows[v, s] for v, s in zip(
            at[:, k].tolist(), steps[:, k].tolist())])
        t = batch if t is None else tt_mul(P, theta, t, batch)
    # a chain lands in J^(ell+1) when its product is 0 or every term has
    # degree above ell; the terms of a row are contiguous
    c = t.cols
    deg = c.m1.sum(axis=1, dtype=np.int64) + c.m2.sum(axis=1, dtype=np.int64)
    start = np.flatnonzero(np.diff(c.rows, prepend=-1))
    in_next = np.ones(len(steps), dtype=bool)
    in_next[c.rows[start]] = np.minimum.reduceat(deg, start) >= ell + 1
    bad = np.flatnonzero(in_next != (steps == steps[:, :1]).all(axis=1))
    if len(bad):
        return {"steps": steps[bad[0]].tolist(),
                "lands_in_next_power": bool(in_next[bad[0]])}
    return None


def _pairing_defect(P: Params, theta: Character, table, X) -> Optional[dict]:
    """The extracted exponent table T against theta on the commutators
    [h2[f], h1[e]] = [g2^t, g1^s]^-1, read off X; then T(e, 0) = T(0, f)
    = 0 and additivity in each slot.  None when all hold."""
    i, r = np.arange(P.r), P.r
    T = np.array([[table.value(e, f) for f in range(r)] for e in range(r)])
    h1, h2 = (_tt_consts(P, P.lctx, theta)[f"h{k}"] for k in (1, 2))
    plus = (i[:, None] + i[None, :]) % r
    defects = {
        "extracted scalar disagrees with the character route":
            T != -X[np.ix_([h.b for h in h1], [h.a for h in h2])] % r,
        "unit row or column is not one":  # at 0, e: T(e, 0); 1, f: T(0, f)
            np.stack([T[:, 0], T[0]]) != 0,
        "pairing is not multiplicative in the first slot":  # at e, g, f
            T[plus] != (T[:, None, :] + T[None, :, :]) % r,
        "pairing is not multiplicative in the second slot":  # at e, f, g
            T[i[:, None, None], plus] != (T[:, :, None] + T[:, None, :]) % r,
    }
    for defect, bad in defects.items():
        if bad.any():
            return {"at": np.argwhere(bad)[0].tolist(), "defect": defect}
    return None


def _h_element_defect(P: Params, theta: Character, X) -> Optional[dict]:
    """The model's h-elements against a search: h_chi must be the one
    candidate h in the other L with theta([h, g]) = chi(g) on all of L_i,
    the row of h in X (side 1) or -X^T (side 2)."""
    s = np.arange(P.r)
    for i, A in ((1, X), (2, -X.T % P.r)):
        hs = subgroup_elements(P, f"L{3 - i}")
        for e in range(P.r):
            found = [hs[k] for k in np.flatnonzero((A == e * s % P.r).all(1))]
            if found != [_tt_consts(P, P.lctx, theta)[f"h{i}"][e]]:
                return {"h_element_disagrees": {"side": i, "chi": e}}
    return None


def _check_pairing_recovery(P: Params, theta: Character, suite: str,
                            rng: random.Random) -> Optional[dict]:
    js = [theta.e]
    if suite == "full" and P.r <= 9:
        js += [j for j in range(1, P.r)
               if math.gcd(j, P.r) == 1 and j != theta.e]
    rec = {}
    for j in js:
        tj = make_char(P, "Z", j)
        X = np.array([[char_exponent(P, tj, commutator(
            P, h_elem(P, 0, t), h_elem(P, s))) for s in range(P.r)]
            for t in range(P.r)])
        defect = _h_element_defect(P, tj, X)
        if defect is None:
            table = commutation_pairing(P, tj)
            defect = _pairing_defect(P, tj, table, X)
        if defect is not None:
            return {"j": j, **defect}
        rec[j] = recover_theta(table, P)
    want = frozenset({theta.e % P.r, (P.r - theta.e) % P.r})
    if rec[theta.e] != want:
        return {"recovered": sorted(rec[theta.e]), "expected": sorted(want)}
    for j, k in itertools.product(js, repeat=2):
        same = rec[j] == rec[k]
        equiv = morita_equivalent(P, make_char(P, "Z", j),
                                  make_char(P, "Z", k))
        if same != equiv:
            return {"j": j, "k": k, "recovered_equal": same,
                    "equivalent": equiv}
    return None


def _brute_mf(ell: int, rs: np.ndarray) -> np.ndarray:
    """Least m >= 1 with ell^m = +-1 mod r for each modulus r > 1 of rs,
    by multiplying all still open residues by ell until each closes."""
    out = np.zeros(len(rs), dtype=np.int64)
    open_, x, m = np.arange(len(rs)), ell % rs, 1
    while len(open_):
        done = (x == 1) | (x == rs[open_] - 1)
        out[open_[done]] = m
        open_, x = open_[~done], x[~done]
        x, m = x * ell % rs[open_], m + 1
    return out


def _check_frobenius_mf(P: Params, theta: Character, suite: str,
                        rng: random.Random) -> Optional[dict]:
    # mult_order factors ell^n + 1 by trial division: cheap below 2^40
    for n in range(1, 21 if P.ell == 2 else 13):
        if P.ell ** n + 1 < 2 ** 40 and mf_number(P.ell, P.ell ** n + 1) != n:
            return {"n": n, "got": mf_number(P.ell, P.ell ** n + 1)}
    bound = 1000 if suite == "quick" else 10 ** 4
    for ell in (2, 3, 5):
        rs = np.array([r for r in range(2, bound + 1)
                       if math.gcd(ell, r) == 1])
        for r, brute in zip(rs.tolist(), _brute_mf(ell, rs).tolist()):
            if mf_number(ell, r) != brute:
                return {"ell": ell, "r": r, "closed_form": mf_number(ell, r),
                        "brute": brute}
    recipe = {(2, 1): (3, 7), (2, 2): (5, 11), (2, 3): (9, 19),
              (2, 4): (17, 103)}
    for (ell, n), want in recipe.items():
        if params_for_target(ell, n) != want:
            return {"ell": ell, "n": n,
                    "got": list(params_for_target(ell, n))}
    # the twist acts on kG, over F_{ell^d}; it builds no product table
    _need_field(P)
    for tj in (make_char(P, "Z", j) for j in range(1, P.r)
               if math.gcd(j, P.r) == 1):
        lhs = ga_frobenius_twist(P, block_idempotent(P, tj))
        if lhs != block_idempotent(P, char_frob_power(tj, 1, P.ell)):
            return {"j": tj.e, "defect": "twist misses the shifted block"}
    return None


def _check_isomorphisms(P: Params, theta: Character, suite: str,
                        rng: random.Random) -> Optional[dict]:
    _need_group_algebra(P)
    n = 30 if suite == "quick" else 100
    samples = ((_random_terms(P, rng, 3), _random_terms(P, rng, 3))
               for _ in range(n))
    # then one pair whose D-digits sum to 2 (ell - 1) in every slot, the
    # largest sums that the D-addition of the lanes adds
    top = (0,) + (P.ell - 1,) * (P.p - 1)
    extreme = [(GroupElem(top, 0, top, 0, 0, 0, 0), 1)]
    for xt, yt in itertools.chain(samples, [(extreme, extreme)]):
        x, y = ga_from_terms(P, xt), ga_from_terms(P, yt)
        xy = ga_mul(P, x, y)
        if xy != ga_from_terms(P, [(group_mul(P, g, h), P.ctx.mul(c, d))
                                   for g, c in xt for h, d in yt]):
            return {"x": [elem_to_dict(g) for g, _ in xt],
                    "y": [elem_to_dict(h) for h, _ in yt],
                    "defect": "packed product is not the normal-form"
                    " product"}
        if swap_isomorphism(P, xy) != ga_mul(P, swap_isomorphism(P, x),
                                             swap_isomorphism(P, y)):
            return {"map": "swap", "defect": "not multiplicative"}
        u1, u2 = rng.randrange(1, P.p), rng.randrange(1, P.p)
        lhs = fp_automorphism(P, u1, u2, xy)
        if lhs != ga_mul(P, fp_automorphism(P, u1, u2, x),
                         fp_automorphism(P, u1, u2, y)):
            return {"map": "scaling", "u": [u1, u2],
                    "defect": "not multiplicative"}
    e_th = block_idempotent(P, theta)
    inv = make_char(P, "Z", (P.r - theta.e) % P.r)
    if swap_isomorphism(P, e_th) != block_idempotent(P, inv):
        return {"map": "swap", "defect": "block idempotent misses the"
                " inverse block"}
    if fp_automorphism(P, 2 % P.p, P.p - 1, e_th) != e_th:
        return {"map": "scaling", "defect": "block idempotent moved"}
    if not qa_embed_available(P):
        return None
    # (map, label under theta, theta', image label under theta', witness)
    swap = partial(swap_isomorphism, P)
    cases = [(swap, simple_make(P, e, 0), inv, simple_make(P, 0, e),
              {"map": "swap", "e": e,
               "defect": "one-sided idempotent family not swapped"})
             for e in (1, 2)]
    # at p = 3 the unit 3 is 0: skipped
    cases += [(partial(fp_automorphism, P, u, 1), simple_make(P, e, 0), theta,
               simple_make(P, e * pow(u, -1, P.p), 0),
               {"map": "scaling", "u": u, "e": e,
                "defect": "idempotent family misses the index scaling"})
              for u in (2, 3) if u % P.p for e in (1, 2)]
    pair = next((s for s in (lab for lab, _ in simples(P, theta))
                 if simple_kind(s) == "pair" and s.phi != s.psi), None)
    if pair is not None:
        cases.append((swap, pair, inv, simple_make(P, pair.psi, pair.phi),
                      {"map": "swap", "pair": simple_str(pair),
                       "defect": "orbit-pair idempotent not transposed"}))
    for iso, s, theta2, s2, witness in cases:
        if iso(b0_pi_inv(P, theta, tt_eps(P, theta, s, P.ctx))) != \
                b0_pi_inv(P, theta2, tt_eps(P, theta2, s2, P.ctx)):
            return witness
    return None


# ---------------------------------------------------------------------------
# Registry and runner


CHECK_STATEMENTS: Dict[str, str] = {
    "dimensions":
        "Each side algebra has ell^(p-1) * p basis labels with"
        " ell^(p-1) - 1 nonzero monomial classes, and the block model"
        " carries the square of that label count.",
    "group_relations":
        "H multiplies by (a,b,c)(a',b',c') = (a+a', b+b', c+c'-a'b), its"
        " three generators have order r, and the kernel of its"
        " conjugation action on the two side groups is exactly the"
        " central subgroup Z.",
    "embed_multiplicative":
        "The label-rule product agrees with the group-algebra"
        " convolution through the embedding on every basis label pair"
        " whose left label lies on a checked arrow row (all rows in the"
        " full suite, those of 16 sampled labels in the quick one), and"
        " the full suite multiplies 20 sampled pairs in kG as well.",
    "corner_maps":
        "Both corner-embedding formulas agree on every basis label, the"
        " embedding is multiplicative, collapsing a product of two"
        " corner images returns the pure tensor, and corner images"
        " centralize the H-part of the block.",
    "product_gate":
        "The twisted tensor product equals the collapse of the honest"
        " group-algebra product on sampled element pairs.",
    "simple_census":
        "Simple labels number 2p - 1 + ((p-1)/r)^2 with degree r on the"
        " one-sided classes and r^2 on the orbit pairs, and the degree"
        " squares sum to p^2 r^2.",
    "idempotent_head":
        "The idempotent family is orthogonal, central in the head,"
        " resolves the unit, and cuts the head into 2p - 1"
        " one-dimensional blocks plus ((p-1)/r)^2 blocks of dimension"
        " r^2.",
    "ext_quiver":
        "Arrow multiplicities are 1 between distinct vertices inside"
        " each one-sided family, 0 on those diagonals, 0 across the two"
        " families, with a self-extension at every orbit-pair vertex.",
    "radical_powers":
        "A chain of ell arrows whose steps multiply to the trivial"
        " character lies in radical power ell + 1 exactly when all"
        " steps coincide.",
    "pairing_recovery":
        "Each h-element of the model solves its commutator equations"
        " alone, the pairing extracted from model products matches the"
        " commutator table, and recovery returns the exponent set"
        " {j, r-j}; over all faithful exponents the recovered sets"
        " separate exactly the non-equivalent blocks.",
    "frobenius_mf":
        "Coefficientwise Frobenius carries the block of theta to the"
        " block of theta^ell; the closed-form Frobenius number matches"
        " brute force and equals n at r = ell^n + 1; the parameter"
        " recipe reproduces its desk examples.",
    "isomorphisms":
        "The packed group-algebra product equals the normal-form product"
        " term by term on every sampled pair and on a pair whose D-digits"
        " sum to 2(ell - 1) in every slot; the side-swapping map and the"
        " index-scaling maps are multiplicative, send the block"
        " idempotent to the inverse block resp. fix it, and, where the"
        " embedding tables fit, permute the idempotent family by"
        " transposition resp. index scaling.",
}

_CHECKS: Dict[str, Callable] = {
    "dimensions": _check_dimensions,
    "group_relations": _check_group_relations,
    "embed_multiplicative": _check_embed_multiplicative,
    "corner_maps": _check_corner_maps,
    "product_gate": _check_product_gate,
    "simple_census": _check_simple_census,
    "idempotent_head": _check_idempotent_head,
    "ext_quiver": _check_ext_quiver,
    "radical_powers": _check_radical_powers,
    "pairing_recovery": _check_pairing_recovery,
    "frobenius_mf": _check_frobenius_mf,
    "isomorphisms": _check_isomorphisms,
}


def check_names() -> List[str]:
    return list(_CHECKS)


@dataclass
class CheckRow:
    check: str
    status: str
    ms: float
    witness: Optional[dict] = None


@dataclass
class VerifyReport:
    params: dict
    suite: str
    seed: int
    rows: List[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.status != "fail" for row in self.rows)

    def row_dicts(self) -> List[dict]:
        return [{"params": self.params, "check": row.check,
                 "status": row.status, "ms": row.ms,
                 **({} if row.witness is None else {"witness": row.witness})}
                for row in self.rows]


def run_checks(P: Params, theta: Character, suite: str = "quick",
               seed: int = 0, names: Optional[List[str]] = None,
               emit: Optional[Callable[[dict], None]] = None) -> VerifyReport:
    """Run named checks and collect one timed row per check.

    Rows stream through emit as they finish.  A check that raises
    fails with the error as witness; a check that cannot run at these
    parameters is reported as skipped and does not fail the report.
    """
    if suite not in ("quick", "full"):
        raise ValueError(f"suite must be quick or full, got {suite}")
    check_faithful(theta)
    report = VerifyReport(
        params={"ell": P.ell, "p": P.p, "r": P.r, "theta": theta.e},
        suite=suite, seed=seed)
    names = check_names() if names is None else names
    if unknown := [name for name in names if name not in _CHECKS]:
        raise ValueError(f"unknown check: {unknown[0]}")
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        t0 = time.perf_counter()
        try:
            witness = _CHECKS[name](P, theta, suite, rng)
            status = "pass" if witness is None else "fail"
        except SkipCheck as stop:
            status, witness = "skip", {"reason": str(stop)}
        except Exception as err:
            status, witness = "fail", {"error": f"{type(err).__name__}:"
                                       f" {err}"}
        ms = round((time.perf_counter() - t0) * 1000.0, 1)
        report.rows.append(CheckRow(name, status, ms, witness))
        if emit is not None:
            emit(report.row_dicts()[-1])
    return report
