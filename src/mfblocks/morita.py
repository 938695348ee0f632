"""Invariants that see through a Morita equivalence, and two that use it.

The reduced block B_0 determines and is determined by a short list of
combinatorial data: the census of simple modules, the semisimple head,
the Ext quiver, and the commutation pairing between the two loop
families.  This module extracts each of them from the twisted model,
inverts the pairing to recover theta up to inversion, and packages the
equivalence predicate together with the Frobenius-number arithmetic
that the whole construction exists to realize.  The two explicit
group-algebra isomorphisms (coordinate swap and F_p^x rescaling) close
the circle: they realize the symmetries the invariants are quotiented
by.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .characters import Character, check_faithful, make_char
from .field import is_prime
from .groups import (
    Params, d_scale, digit_dtype, key_cols, key_join, l_fourier,
    mult_order, root_powers,
)
from .groupalg import GAElem, _dedupe, ga_zero
from .linalg import gf_apply_axis, gf_rank
from .quiver import _sort_key
from .twisted import (
    TTElem, _Cols, _orbit, tt_batch, tt_conjugates, tt_cross, tt_eps,
    tt_from_columns, tt_loop_conjugates, tt_mul, tt_rows, tt_unit,
)


class SimpleLabel(NamedTuple):
    """Isomorphism class of a simple module, by character exponents.

    phi indexes a character of P_1 and psi one of P_2.  When both are
    nontrivial the class only depends on the pair of orbits under the
    scaling action, and the stored representative is the entrywise
    least one; one-sided classes are not identified.
    """

    phi: int
    psi: int


def simple_make(P: Params, phi: int, psi: int) -> SimpleLabel:
    phi %= P.p
    psi %= P.p
    if phi and psi:
        phi, psi = _orbit(P, phi)[0], _orbit(P, psi)[0]
    return SimpleLabel(phi, psi)


def simple_kind(s: SimpleLabel) -> str:
    if s.phi == 0 and s.psi == 0:
        return "unit"
    if s.psi == 0:
        return "left"
    if s.phi == 0:
        return "right"
    return "pair"


def simple_str(s: SimpleLabel) -> str:
    return {"unit": "(1,1)",
            "left": f"(phi{s.phi},1)",
            "right": f"(1,psi{s.psi})",
            "pair": f"([phi{s.phi}],[psi{s.psi}])"}[simple_kind(s)]


def simples(P: Params, theta: Character) -> List[Tuple[SimpleLabel, int]]:
    """All simple-module classes with their dimensions.

    One trivial class and two one-sided families of p - 1 classes, all
    of dimension r; and ((p-1)/r)^2 orbit-pair classes of dimension
    r^2.
    """
    check_faithful(theta)
    p, r = P.p, P.r
    reps = sorted({_orbit(P, e)[0] for e in range(1, p)})
    out = [(SimpleLabel(0, 0), r)]
    out += [(SimpleLabel(e, 0), r) for e in range(1, p)]
    out += [(SimpleLabel(0, e), r) for e in range(1, p)]
    out += [(SimpleLabel(a, b), r * r) for a in reps for b in reps]
    return out


def _block_ranks(P: Params, t: TTElem, blocks: int, n: int) -> list:
    """Ranks of the row blocks [i n, (i + 1) n) of a batch, i < blocks,
    each as the coefficient matrix of its rows over its label pairs."""
    c = t.cols
    _, col = np.unique(_sort_key(*c[1:5]), return_inverse=True)
    bounds = np.searchsorted(c.rows, np.arange(blocks + 1) * n)
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            out.append(0)
            continue
        _, i = np.unique(c.rows[lo:hi], return_inverse=True)
        _, j = np.unique(col[lo:hi], return_inverse=True)
        M = np.zeros((i.max() + 1, j.max() + 1), dtype=np.int64)
        M[i, j] = c.coeffs[lo:hi]
        out.append(gf_rank(t.ctx, M))
    return out


class HeadBatch(NamedTuple):
    """The simple labels, their idempotents eps, and with n = p^2 the
    batches over the rows i n + j: E holding eps_i, X the j-th vertex
    pair, and XE = X E."""

    labels: list
    eps: list
    E: TTElem
    X: TTElem
    XE: TTElem


def head_batch(P: Params, theta: Character) -> HeadBatch:
    check_faithful(theta)
    labs = [s for s, _ in simples(P, theta)]
    eps = [tt_eps(P, theta, s) for s in labs]
    E, X = tt_cross(tt_batch(P, theta, eps), tt_rows(tt_unit(P, theta)),
                    P.p ** 2)
    return HeadBatch(labs, eps, E, X, tt_mul(P, theta, X, E))


def head_algebra(P: Params, theta: Character,
                 head: HeadBatch = None) -> List[Tuple[SimpleLabel, int]]:
    """Block decomposition of the degree-0 part of the twisted model.

    The span of the p^2 vertex pairs is a subalgebra complementing the
    radical.  Each simple class contributes the corner eps x eps cut
    out by its idempotent; the returned dimensions are exact ranks.
    All classes and vertex pairs x run as the rows of one batch, head
    when given (verify's idempotent_head shares it).  That the
    idempotents are central and the blocks fill the head is checked by
    verify's idempotent_head.
    """
    head = head or head_batch(P, theta)
    Z = tt_mul(P, theta, head.E, head.XE)
    return list(zip(head.labels, _block_ranks(P, Z, len(head.labels),
                                              P.p ** 2)))


def _degree_one_span(P: Params, theta: Character) -> TTElem:
    """The 2p^2(p-1) products of one arrow with a vertex on the other
    side, each with coefficient one; they span the degree-1 layer."""
    key = ("degree_one_span", theta.e)
    span = P._cache.get(key)
    if span is not None:
        return span
    p = P.p
    psi, s, xi = (g.ravel() for g in np.meshgrid(
        np.arange(p), np.arange(1, p), np.arange(p), indexing="ij"))
    arrow = np.zeros((len(s), p - 1), dtype=digit_dtype(P))
    arrow[np.arange(len(s)), s - 1] = 1
    vertex = np.zeros_like(arrow)
    span = tt_from_columns(
        P, theta, np.concatenate([psi, xi]), np.concatenate([arrow, vertex]),
        np.concatenate([xi, psi]), np.concatenate([vertex, arrow]),
        np.ones(2 * len(s), dtype=np.int64))
    P._cache[key] = span
    return span


def ext_dim(P: Params, theta: Character, pairs) -> List[int]:
    """dim of the (a, b) corner of the degree-1 layer, per pair (a, b).

    Counts arrows a -> b in the quiver: the exact rank of the sandwich
    images eps_a * w * eps_b over the explicit degree-1 spanning set.
    The terms w run as the rows of one batch: w eps_b is one product
    per target b, and eps_a times the stacked rows of its targets one
    product per source a.
    """
    check_faithful(theta)
    pairs = list(pairs)
    span = _degree_one_span(P, theta)
    n = len(span.cols.coeffs)
    rows = tt_rows(span)
    eps = {s: tt_eps(P, theta, s)
           for s in dict.fromkeys(s for pair in pairs for s in pair)}
    right = {b: tt_mul(P, theta, rows, eps[b])
             for b in dict.fromkeys(b for _, b in pairs)}
    ranks = {}
    for a in dict.fromkeys(a for a, _ in pairs):
        targets = list(dict.fromkeys(b for x, b in pairs if x == a))
        # target i takes the rows i n .. (i + 1) n - 1
        parts = [right[b].cols._replace(rows=right[b].cols.rows + i * n)
                 for i, b in enumerate(targets)]
        stack = TTElem(theta, _Cols(*map(np.concatenate, zip(*parts))),
                       span.ctx)
        Z = tt_mul(P, theta, eps[a], stack)
        ranks.update(zip(((a, b) for b in targets),
                         _block_ranks(P, Z, len(targets), n)))
    return [ranks[pair] for pair in pairs]


class PairingTable(NamedTuple):
    """Scalar table of the loop-family commutation: (e, f) -> the
    exponent k of the scalar zeta_r^k, e indexing characters of L_1 and
    f of L_2, the same over every field (each reads its own zeta_r).

    A nondegenerate bicharacter of Z/r x Z/r when extracted from a
    faithful theta.
    """

    r: int
    entries: Dict[Tuple[int, int], int]

    def value(self, e: int, f: int) -> int:
        return self.entries[(e % self.r, f % self.r)]


def pairing_to_json(P: Params, table: PairingTable) -> list:
    """The entries as packed elements zeta_r^k of the label field."""
    zr = root_powers(P, P.lctx, P.r)
    return [{"chi": e, "eta": f, "value": int(zr[k])}
            for (e, f), k in sorted(table.entries.items())]


def _commutation_scalars(P: Params, theta: Character, S: TTElem,
                         T: TTElem) -> list:
    """At e r + f, the exponent k of the unique c = zeta_r^k with S_e T_f
    = c T_f S_e, or None where both products are 0: S_e is the sum of
    D[e, t] S[t] over the rows t < r of the batch S, D = l_fourier, and
    T_f likewise; all over the field of S and T.

    The product is bilinear, so each pair of rows (t, t') is multiplied
    once, in one product of a cross batch per order.  Held densely over
    one ranking of their label pairs, the products S_e T_f and T_f S_e
    are the 2-D Fourier transform of these: D on the t and t' axes.
    """
    r, ctx = P.r, S.ctx
    A, B = tt_cross(S, T, r)
    ST, TS = tt_mul(P, theta, A, B).cols, tt_mul(P, theta, B, A).cols
    labels, ids = np.unique(_sort_key(*map(np.concatenate, zip(
        ST[1:5], TS[1:5]))), return_inverse=True)
    if not len(labels):  # no product has a term
        return [None] * (r * r)
    X = np.zeros((r * r, 2, len(labels)), dtype=np.int64)
    X[ST.rows, 0, ids[:len(ST.rows)]] = ST.coeffs
    X[TS.rows, 1, ids[len(ST.rows):]] = TS.coeffs
    D, X = l_fourier(P, ctx), X.reshape(r, r, 2, -1)
    st, ts = gf_apply_axis(ctx, D, gf_apply_axis(ctx, D, X, 0), 1).reshape(
        r * r, 2, -1).swapaxes(0, 1)
    live = ts.any(axis=1)
    # c is read at the first label of T S, inverting each of the few
    # distinct denominators once; S T = c T S must then hold on every
    # row, so S T also vanishes where T S does
    at = (np.flatnonzero(live), (ts[live] != 0).argmax(axis=1))
    y, k = np.unique(ts[at], return_inverse=True)
    c = np.zeros(r * r, dtype=np.int64)
    c[live] = ctx.vmul(st[at], np.int64([ctx.inv(int(x)) for x in y])[k])
    if not np.array_equal(st, ctx.vmul(c[:, None], ts)):
        raise ValueError("no unique commutation scalar")
    exponent = {int(z): k for k, z in enumerate(root_powers(P, ctx, r))}
    if not all(int(x) in exponent for x in c[live]):
        raise ValueError("a commutation scalar is no power of zeta_r")
    return [exponent[int(x)] if ok else None for x, ok in zip(c, live)]


def commutation_pairing(P: Params, theta: Character, phi_e: int = 1,
                        zeta_e: int = 1) -> PairingTable:
    """Extract the full commutation table from products in the model
    over the label field.

    The scalars come from the loop families S~_e and T~_f on the steps
    phi_e, zeta_e, each a weighted sum of the r L-conjugates of one
    loop path (tt_loop_conjugates), through _commutation_scalars: two
    products, however large r is.  When r is even, conjugates t and
    t + r/2 of a loop path coincide and cancel for odd weights, so every
    entry with e or f odd has both products 0; those are read off one
    more pair, the r L-conjugates of the arrow at vertex 0 along step 1
    times the vertex sum: distinct labels, which row e of l_fourier
    weighs into a nonzero element of weight e.  verify's
    pairing_recovery compares the table with the commutator values of
    theta and checks that it is a bicharacter.
    """
    check_faithful(theta)
    c = _commutation_scalars(P, theta, *(tt_loop_conjugates(
        P, theta, side, make_char(P, f"P{side}", step))
        for side, step in ((1, phi_e), (2, zeta_e))))
    if None in c:
        iso = _commutation_scalars(P, theta, *(tt_conjugates(
            P, theta, side, 0, np.eye(1, P.p - 1), np.arange(P.p))
            for side in (1, 2)))
        c = [iso[i] if x is None else x for i, x in enumerate(c)]
    return PairingTable(P.r, {divmod(i, P.r): x for i, x in enumerate(c)})


def recover_theta(table: PairingTable, P: Params) -> frozenset:
    """Invert the pairing: the exponent pair {j, r-j} with theta_j
    producing the table.  The two members are indistinguishable, the
    coordinate swap interchanges them."""
    r = table.r
    if r != P.r:
        raise ValueError("table size does not match the parameters")
    k = table.value(1, 1)
    if k is None or math.gcd(k, r) != 1:
        raise ValueError("degenerate pairing table")
    j = pow(-k % r, -1, r)
    return frozenset({j, (r - j) % r})


def morita_equivalent(P: Params, theta: Character,
                      theta2: Character) -> bool:
    """Whether the two blocks are equivalent: exponents agree up to
    sign.  The invariant route (pairing extraction and recovery) is
    exercised against this predicate in the test suite."""
    check_faithful(theta)
    check_faithful(theta2)
    return (theta2.e - theta.e) % P.r == 0 or \
        (theta2.e + theta.e) % P.r == 0


def mf_number(ell: int, r: int) -> int:
    """min{m >= 1 : ell^m = +-1 mod r}.

    Computed through the multiplicative order d: the minimum is d/2
    when -1 is a power of ell (necessarily the d/2-th), else d.
    """
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if not isinstance(r, int) or r <= 1:
        raise ValueError(f"r must be an integer > 1, got {r}")
    if math.gcd(ell, r) != 1:
        raise ValueError(f"ell and r must be coprime, got {ell}, {r}")
    if r == 2:
        return 1
    d = mult_order(ell, r)
    if d % 2 == 0 and pow(ell, d // 2, r) == r - 1:
        return d // 2
    return d


def params_for_target(ell: int, n: int,
                      cap: int = 10 ** 8) -> Tuple[int, int]:
    """The construction recipe for a block with mf number exactly n:
    r = ell^n + 1 and the least prime p = 1 both mod ell and mod r."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    r = ell ** n + 1
    step = math.lcm(ell, r)
    p = 1 + step
    while p <= cap:
        if is_prime(p):
            return r, p
        p += step
    raise RuntimeError(f"no prime p = 1 mod lcm({ell}, {r}) below {cap}")


def swap_isomorphism(P: Params, x: GAElem) -> GAElem:
    """Linear extension of the coordinate swap of G.

    Swaps the two plain coordinates and g1 with g2, inverts gz.  An
    algebra isomorphism carrying the theta-block onto the block of the
    inverse character.
    """
    if len(x.keys) == 0:
        return ga_zero()
    d1, x1, d2, x2, a, b, c = key_cols(P, x.keys)
    # g1 <-> g2 and gz -> gz^-1; the cocycle forces the -ab correction
    keys = key_join(P, d2, x2, d1, x1, b, a, (-a * b - c) % P.r)
    return _dedupe(P, keys, x.coeffs.copy())


def fp_automorphism(P: Params, u1: int, u2: int, x: GAElem) -> GAElem:
    """Linear extension of the index-rescaling automorphism of G.

    Scales the support of each plain coordinate by the unit u_i (both
    the D-indices and the P-coordinate) and fixes H pointwise; fixes
    every central character idempotent of Z.
    """
    p = P.p
    u1 %= p
    u2 %= p
    if u1 == 0 or u2 == 0:
        raise ValueError("scalars must be nonzero mod p")
    if len(x.keys) == 0:
        return ga_zero()
    d1, x1, d2, x2, a, b, c = key_cols(P, x.keys)
    keys = key_join(P, d_scale(P, u1, d1), x1 * u1 % p,
                    d_scale(P, u2, d2), x2 * u2 % p, a, b, c)
    return _dedupe(P, keys, x.coeffs.copy())
