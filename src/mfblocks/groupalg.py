"""Sparse group-algebra arithmetic over the splitting field F_{ell^d}.

Elements of kG are kept as two parallel numpy arrays: packed group keys
(sorted, unique) and packed nonzero field coefficients.  Products run
fully vectorized: component-wise unpacking of the key lanes, small
precomputed action tables for the side twists, and the field's binned
sum to merge colliding support elements.  Block products run through
kG e_theta ~ k_theta[G/Z], on one key per Z-coset.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from .field import _reduce, digit_sum
from .groups import (
    GroupElem, Params, d_digits, d_key, d_scale, group_inv, h_elem,
    key_array, key_cols, key_z, l_fourier, pack_key, root_powers,
)

# Most lanes, counted as entries of its widest array, that one block of
# a block-bounded kernel forms; _lane_runs cuts every such block
_LANES = 1 << 14
# Most int64 entries the product tables of _tables may hold (256 MB)
_TABLE_ENTRIES = 1 << 25


class GAElem:
    """Group-algebra element: sorted unique keys, matching coefficients."""

    __slots__ = ("keys", "coeffs")

    def __init__(self, keys: np.ndarray, coeffs: np.ndarray):
        self.keys = keys
        self.coeffs = coeffs

    def __len__(self):
        return len(self.keys)

    def __eq__(self, other):
        if not isinstance(other, GAElem):
            return NotImplemented
        return (len(self.keys) == len(other.keys)
                and bool(np.array_equal(self.keys, other.keys))
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.keys.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        return f"GAElem({len(self.keys)} terms)"


def ga_zero() -> GAElem:
    return GAElem(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _key_sums(ctx, coeffs: np.ndarray, inv: np.ndarray, size: int):
    """Sums in ctx of coeffs per key id inv, over size keys, and the mask
    of the nonzero sums: where no id repeats, a scatter through inv."""
    if size == len(coeffs):
        sums = np.empty(size, dtype=coeffs.dtype)
        sums[inv] = coeffs
    else:
        sums = ctx.bin_sum(inv, size, coeffs)
    return sums, sums != 0


def _dedupe(P: Params, keys: np.ndarray, coeffs: np.ndarray) -> GAElem:
    """Sort, merge equal keys with field addition, drop zeros."""
    if keys.size == 0:
        return ga_zero()
    uk, inv = np.unique(keys, return_inverse=True)
    sums, live = _key_sums(P.ctx, coeffs, inv, uk.size)
    return GAElem(uk[live], sums[live])


def ga_from_terms(P: Params, terms: Iterable[Tuple[GroupElem, int]]) -> GAElem:
    keys, coeffs = [], []
    for g, c in terms:
        keys.append(pack_key(P, g))
        coeffs.append(c)
    return _dedupe(P, key_array(keys), np.array(coeffs, dtype=np.int64))


def ga_basis(P: Params, g: GroupElem, coeff: int = 1) -> GAElem:
    if coeff == 0:
        return ga_zero()
    return GAElem(key_array([pack_key(P, g)]),
                  np.array([coeff], dtype=np.int64))


def ga_sum(P: Params, xs) -> GAElem:
    """Sum of a list of elements with one merge."""
    if len(xs) <= 1:
        return xs[0] if xs else ga_zero()
    return _dedupe(P, np.concatenate([x.keys for x in xs]),
                   np.concatenate([x.coeffs for x in xs]))


def ga_add(P: Params, x: GAElem, y: GAElem) -> GAElem:
    return ga_sum(P, [x, y])


def _table_entries(P: Params) -> int:
    """Entries of the arrays _tables builds: full vectors, trans, scale."""
    return P.dsz * (2 * P.p + P.r)


def _tables(P: Params) -> dict:
    """Action tables for the vectorized product, built once per Params.

    Each table maps packed D-indices through a rewrite of the length-p
    vectors: trans shifts the entries by x, scale relabels s -> s g0^t.
    """
    tabs = P._cache.get("ga_tables")
    if tabs is not None:
        return tabs
    if _table_entries(P) > _TABLE_ENTRIES:
        raise ValueError(f"product tables of {_table_entries(P)} entries"
                         f" are over the bound of {_TABLE_ENTRIES}")
    ell, p = P.ell, P.p
    full = np.pad(d_digits(P, np.arange(P.dsz)), ((0, 0), (1, 0)))

    def pack(v):
        # entry 0 normalised to zero, entries 1..p-1 as base-ell digits
        return d_key(P, (v[..., 1:] - v[..., :1]) % ell)

    h = np.arange(p)
    tabs = {"trans": np.stack([pack(full[:, (h + x) % p]) for x in h]),
            "scale": np.stack([d_scale(P, u, np.arange(P.dsz))
                               for u in P._g0pow])}
    P._cache["ga_tables"] = tabs
    return tabs


def _mul_lanes(P: Params, gk: np.ndarray, hk: np.ndarray):
    """Packed product keys for broadcastable key arrays, through flat
    takes in the action tables of _tables.  Each sum is bounded, and
    field._reduce's floor division reduces it: no lane takes a
    remainder.  The key is built in place, a part at a time."""
    tabs, r, p, dsz = _tables(P), P.r, P.p, P.dsz
    gd1, gx1, gd2, gx2, ga, gb, gc = key_cols(P, gk)
    hd1, hx1, hd2, hx2, ha, hb, hc = key_cols(P, hk)
    g0, key = np.array(P._g0pow), 0
    for gd, gx, hd, hx, t in ((gd1, gx1, hd1, hx1, ga),
                              (gd2, gx2, hd2, hx2, gb)):
        # the side of h relabelled by g0^-t (row -t of scale: a negative
        # index wraps once) and shifted by gx, then added to that of g
        lanes = tabs["scale"].take(hd - t * dsz)
        lanes += gx * dsz
        lanes = digit_sum(gd, tabs["trans"].take(lanes), P.ell, p - 1)
        key *= dsz
        key += lanes
        key *= p
        key += _reduce(g0[-t] * hx + gx, p)
    for part in (lambda: ga + ha, lambda: gb + hb,
                 lambda: gc + hc - ha * gb):
        key *= r
        key += _reduce(part(), r)
    return key


def _lane_runs(n: int, lanes):
    """Runs [lo, hi) of the items 0..n-1, in order, of at most _LANES
    lanes each; lanes is each item's count, or one count for all.  An
    item over the budget runs alone; one with no lanes opens no run."""
    end, done = np.cumsum(np.broadcast_to(lanes, n), dtype=np.int64), 0
    while n and done < end[-1]:
        lo = int(np.searchsorted(end, done, "right"))
        hi = max(lo + 1, int(np.searchsorted(end, done + _LANES, "right")))
        yield lo, hi
        done = end[hi - 1]


def _lanes(P: Params, x: GAElem, y: GAElem):
    """The unmerged (keys, coeffs) lanes of x y, one pair per run of
    rows of x (_lane_runs)."""
    for lo, hi in _lane_runs(len(x), len(y)):
        yield (_mul_lanes(P, x.keys[lo:hi, None], y.keys).ravel(),
               P.ctx.vmul(x.coeffs[lo:hi, None], y.coeffs).ravel())


def _folded_lanes(P: Params, tp, pairs, rekey=None) -> GAElem:
    """The sum of the products x y over pairs, merged.  Each chunk of
    lanes is merged as it is formed, its Z-part (the H-cocycle) absorbed
    as a theta power if tp is given and its keys mapped by rekey if
    given; the partial sums are merged once, at the end."""
    def merged(keys, coeffs):
        if tp is not None:
            keys, coeffs = _absorb_z(P, tp, keys, coeffs)
        return _dedupe(P, keys if rekey is None else rekey(P, keys), coeffs)
    return ga_sum(P, [merged(*lanes) for x, y in pairs
                      for lanes in _lanes(P, x, y)])


def ga_mul(P: Params, x: GAElem, y: GAElem) -> GAElem:
    return _folded_lanes(P, None, [(x, y)])


def ga_frobenius_twist(P: Params, x: GAElem) -> GAElem:
    """sigma: coefficients to the ell-th power, group elements fixed."""
    return GAElem(x.keys, P.ctx.vfrob(x.coeffs))


def _theta_pow(P: Params, theta) -> np.ndarray:
    """theta(gz)^c for c < r; rejects a theta that labels no block."""
    if theta.group != "Z":
        raise ValueError("block labels are characters of Z")
    if math.gcd(theta.e, P.r) != 1:
        raise ValueError("theta must be faithful on Z")
    return root_powers(P, P.ctx, P.r)[theta.e * np.arange(P.r) % P.r]


def block_idempotent(P: Params, theta) -> GAElem:
    """e_theta, the central idempotent of the block kG e_theta."""
    from .characters import char_idempotent
    _theta_pow(P, theta)
    return char_idempotent(P, theta)


def _absorb_z(P: Params, tp: np.ndarray, keys: np.ndarray,
              coeffs: np.ndarray):
    """Keys moved to c = 0, each coefficient times theta(gz)^c."""
    z = key_z(P, keys)
    return keys - z, P.ctx.vmul(coeffs, tp[z])


def block_fold(P: Params, theta, x: GAElem) -> GAElem:
    """phi(x) in k_theta[G/Z], one key per Z-coset (c = 0).

    Z is central, so phi: g gz^c -> theta(gz)^c g is an algebra map on
    all of kG; it is injective on kG e_theta and sends e_theta to 1."""
    return _dedupe(P, *_absorb_z(P, _theta_pow(P, theta), x.keys, x.coeffs))


def block_unfold(P: Params, theta, f: GAElem) -> GAElem:
    """The inverse of phi on the block: a folded key g goes to g e_theta
    = r^-1 sum_c theta(gz)^-c g gz^c, whose keys stay sorted; the
    weights are row theta.e of the Fourier matrix."""
    _theta_pow(P, theta)
    if key_z(P, f.keys).any():
        raise ValueError("a folded element has its keys at c = 0")
    return GAElem((f.keys[:, None] + np.arange(P.r)).ravel(), P.ctx.vmul(
        f.coeffs[:, None], l_fourier(P, P.ctx)[theta.e]).ravel())


def _fold_block(P: Params, theta, x: GAElem):
    """theta's powers and phi(x) for x in kG e_theta; x outside raises.

    x e_theta = x exactly when theta(gz)^-1 x gz = x: each Z-coset of x
    is r sorted keys in a row, c = 0..r-1, whose coefficient at c is
    theta(gz)^-c times that at c = 0; phi(x) is r times the latter."""
    tp, r = _theta_pow(P, theta), P.r
    k, c = (a[:len(a) - len(a) % r].reshape(-1, r)
            for a in (x.keys, x.coeffs))
    if len(x) % r or key_z(P, k[:, 0]).any() or not all(
            np.array_equal(k[:, j], k[:, 0] + j) and np.array_equal(
                c[:, j], P.ctx.vscale(int(tp[-j]), c[:, 0]))
            for j in range(1, r)):
        raise ValueError("x does not lie in the block (x e_theta != x)")
    return tp, GAElem(k[:, 0].copy(), P.ctx.vscale(r % P.ell, c[:, 0]))


def block_mul(P: Params, theta, x: GAElem, y: GAElem) -> GAElem:
    """x y for x in kG e_theta and any y, formed in k_theta[G/Z] on r
    times fewer keys per factor; x outside the block raises."""
    tp, fx = _fold_block(P, theta, x)
    return block_unfold(P, theta, _folded_lanes(
        P, tp, [(fx, block_fold(P, theta, y))]))


def _centralizes_folded(P: Params, tp: np.ndarray, f: GAElem) -> bool:
    """Whether phi(x) = f is fixed by conjugation with g1 and g2: each
    conjugated key, a run at a time, is found in f with its coefficient
    (conjugation permutes the Z-cosets, so none is left over)."""
    for h in (h_elem(P, 1, 0, 0), h_elem(P, 0, 1, 0)):
        hk = np.array([pack_key(P, group_inv(P, h)), pack_key(P, h)])
        for lo, hi in _lane_runs(len(f), 1):
            keys, coeffs = _absorb_z(P, tp, _mul_lanes(P, _mul_lanes(
                P, hk[:1], f.keys[lo:hi]), hk[1:]), f.coeffs[lo:hi])
            at = np.minimum(np.searchsorted(f.keys, keys), len(f) - 1)
            if not (np.array_equal(f.keys[at], keys)
                    and np.array_equal(f.coeffs[at], coeffs)):
                return False
    return True


def centralizes_block_H(P: Params, theta, x: GAElem) -> bool:
    """True iff x in kG e_theta commutes with kH e_theta; x outside the
    block raises.  e_theta absorbs into x, so this is x^h = x for h = g1,
    g2 (gz is central), tested on phi(x), one key per Z-coset: phi is
    injective on the block and commutes with conjugation."""
    return _centralizes_folded(P, *_fold_block(P, theta, x))

