"""Normal forms and products for the block-source group family.

The group is G = ((D1 x P1) x (D2 x P2)) x H (semidirect), built from
primes ell, p and a divisor r of p - 1 coprime to ell:

  * P_i = (F_p, +),
  * D_i = (prod_{F_p} C_ell) / diagonal, stored as length-p exponent
    vectors normalized to 0 at index 0,
  * H of order r^3 with generators g1, g2 and central gz = [g1, g2],
  * L_i = <g_i> acts on D_i x P_i through the order-r subgroup of
    F_p^* generated by g0; gz acts trivially on everything.

Elements are kept in the normal form d1(v1)*x1 * d2(v2)*x2 * g1^a g2^b gz^c.
All operations use the right-action convention x^g = g^-1 x g, so
[g, h] = g^-1 h^-1 g h.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .field import (
    digits, factorize, field_make, field_refusal, is_prime, root_of_unity,
    undigits,
)


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n.

    Starts from the lcm of phi(q^k) over the prime powers q^k of n,
    which a^t = 1 holds for, and divides out each prime f of t while
    a^(t/f) = 1 still holds.
    """
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    t = math.lcm(*((q - 1) * q ** (k - 1) for q, k in factorize(n).items()))
    for f in factorize(t):
        while t % f == 0 and pow(a, t // f, n) == 1:
            t //= f
    return t


def least_primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    if p == 2:
        return 1
    target = p - 1
    prime_facs = sorted(factorize(target))
    for g in range(2, p):
        if all(pow(g, target // q, p) != 1 for q in prime_facs):
            return g
    raise ValueError(f"no primitive root found modulo {p}")


class Params:
    """Parameter pack: primes, g0 and the two coefficient fields.

    ell, p are distinct primes; r > 1 divides p - 1 and is coprime to
    ell.  g0 generates the order-r subgroup of F_p^*.  The label model
    computes over lctx = F_ell(zeta_r) = F_{ell^m}, m = ord_r(ell), built
    here with its Fourier matrix.  The group algebra also needs zeta_p:
    ctx = F_{ell^d}, d = lcm(ord_p(ell), m), is built on first access.
    """

    def __init__(self, ell: int, p: int, r: int):
        if not is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p == ell:
            raise ValueError("p must differ from ell")
        if not isinstance(r, int) or r <= 1:
            raise ValueError(f"r must be an integer > 1, got {r}")
        if (p - 1) % r != 0:
            raise ValueError(f"r must divide p - 1, got r={r}, p={p}")
        if r % ell == 0:
            raise ValueError(f"r must be coprime to ell, got r={r}, ell={ell}")

        self.ell = ell
        self.p = p
        self.r = r
        self.dsz = ell ** (p - 1)
        self.m = mult_order(ell, r)
        self.d = math.lcm(mult_order(ell, p), self.m)
        gamma = least_primitive_root(p)
        self.g0 = pow(gamma, (p - 1) // r, p)
        # g0 powers indexed mod r; g0 has exact order r
        self._g0pow = [pow(self.g0, t, p) for t in range(r)]
        # lazy attachments (action tables, algebra contexts) keyed by name
        self._cache: dict = {}
        if refusal := field_refusal(ell, self.m, "m"):
            raise ValueError(f"label field: {refusal}")
        self.lctx = field_make(ell, self.m)
        l_fourier(self, self.lctx)

    @cached_property
    def ctx(self):
        return self.lctx if self.d == self.m else field_make(self.ell, self.d)

    def __repr__(self) -> str:
        return f"Params(ell={self.ell}, p={self.p}, r={self.r}, d={self.d})"


@lru_cache(maxsize=None)
def params_make(ell: int, p: int, r: int) -> Params:
    return Params(ell, p, r)


def root_powers(P: Params, ctx, order: int) -> np.ndarray:
    """zeta^k for k < order, zeta = root_of_unity(ctx, order): the one
    power table of each root and field, built once per Params.  Any
    power is a lookup at its exponent mod order."""
    key = ("root_powers", ctx.order, order)
    tab = P._cache.get(key)
    if tab is None:
        zeta = root_of_unity(ctx, order)
        tab = P._cache[key] = np.array(
            [ctx.pow(zeta, k) for k in range(order)], dtype=np.int64)
    return tab


def l_fourier(P: Params, ctx) -> np.ndarray:
    """D[e, t] = r^-1 zeta_r^(-e t) over the field ctx, built once per
    Params and field from the table of zeta_r: row e weighs the r powers
    t of a cyclic group of order r (L_1, L_2 or Z) into the part of the
    character of exponent e."""
    key = ("l_fourier", ctx.order)
    D = P._cache.get(key)
    if D is None:
        e = np.arange(P.r)
        D = P._cache[key] = ctx.vscale(
            ctx.inv(ctx.from_int(P.r)),
            root_powers(P, ctx, P.r)[-np.outer(e, e) % P.r])
    return D


class GroupElem(namedtuple("GroupElem", "v1 x1 v2 x2 a b c")):
    """Group element in the normal form d1(v1)*x1 * d2(v2)*x2 * g1^a g2^b gz^c.

    v1, v2 are length-p tuples of residues mod ell with entry 0 equal
    to 0; x1, x2 are residues mod p; a, b, c residues mod r.  A named
    tuple: it equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, v1, x1, v2, x2, a, b, c):
        return tuple.__new__(cls, (tuple(v1), x1, tuple(v2), x2, a, b, c))


def identity(P: Params) -> GroupElem:
    z = (0,) * P.p
    return GroupElem(z, 0, z, 0, 0, 0, 0)


def _normalize(v: list, ell: int) -> tuple:
    """Shift a coset representative so that entry 0 vanishes."""
    z = v[0]
    if z:
        return tuple((t - z) % ell for t in v)
    return tuple(v)


def d_elem(P: Params, side: int, index: int, count: int = 1) -> GroupElem:
    """d_side^index raised to count, as a normalized element."""
    v = [0] * P.p
    v[index % P.p] = count % P.ell
    v = _normalize(v, P.ell)
    z = (0,) * P.p
    if side == 1:
        return GroupElem(v, 0, z, 0, 0, 0, 0)
    if side == 2:
        return GroupElem(z, 0, v, 0, 0, 0, 0)
    raise ValueError(f"side must be 1 or 2, got {side}")


def p_elem(P: Params, side: int, x: int) -> GroupElem:
    z = (0,) * P.p
    if side == 1:
        return GroupElem(z, x % P.p, z, 0, 0, 0, 0)
    if side == 2:
        return GroupElem(z, 0, z, x % P.p, 0, 0, 0)
    raise ValueError(f"side must be 1 or 2, got {side}")


def h_elem(P: Params, a: int = 0, b: int = 0, c: int = 0) -> GroupElem:
    z = (0,) * P.p
    return GroupElem(z, 0, z, 0, a % P.r, b % P.r, c % P.r)


def _scale_side(P: Params, v: Sequence[int], x: int, u: int):
    """Conjugation twist: D-indexes and the P-coordinate scale by u."""
    if u == 1 or not any(v):
        return tuple(v), (x * u) % P.p
    p = P.p
    w = [0] * p
    for g in range(p):
        w[(g * u) % p] = v[g]
    return tuple(w), (x * u) % p


def _side_mul(P: Params, v, x, w, y):
    """(d(v)x)(d(w)y) = (d(v + T_x w), x + y) with (T_x w)[h] = w[h+x]."""
    ell, p = P.ell, P.p
    if not any(w):
        return _normalize(v, ell), (x + y) % p
    out = [(v[h] + w[(h + x) % p]) % ell for h in range(p)]
    return _normalize(out, ell), (x + y) % p


def _side_inv(P: Params, v, x):
    ell, p = P.ell, P.p
    out = [(-v[(h - x) % p]) % ell for h in range(p)] if any(v) else v
    return _normalize(out, ell), (-x) % p


def group_mul(P: Params, g: GroupElem, h: GroupElem) -> GroupElem:
    """Product in G.

    The H-part of g is moved past the plain part of h, twisting side i
    by g0^-a (i = 1) resp. g0^-b (i = 2); H-parts compose through the
    cocycle (a,b,c)(a',b',c') = (a+a', b+b', c+c'-a'b).
    """
    r = P.r
    s1 = P._g0pow[(-g.a) % r]
    s2 = P._g0pow[(-g.b) % r]
    w1, y1 = _scale_side(P, h.v1, h.x1, s1)
    w2, y2 = _scale_side(P, h.v2, h.x2, s2)
    v1, x1 = _side_mul(P, g.v1, g.x1, w1, y1)
    v2, x2 = _side_mul(P, g.v2, g.x2, w2, y2)
    return GroupElem(v1, x1, v2, x2,
                     (g.a + h.a) % r,
                     (g.b + h.b) % r,
                     (g.c + h.c - h.a * g.b) % r)


def group_inv(P: Params, g: GroupElem) -> GroupElem:
    """Inverse: g = n*w gives g^-1 = (n^w)^-1 * w^-1."""
    r = P.r
    s1 = P._g0pow[g.a % r]
    s2 = P._g0pow[g.b % r]
    v1, x1 = _scale_side(P, g.v1, g.x1, s1)
    v2, x2 = _scale_side(P, g.v2, g.x2, s2)
    w1, y1 = _side_inv(P, v1, x1)
    w2, y2 = _side_inv(P, v2, x2)
    return GroupElem(w1, y1, w2, y2,
                     (-g.a) % r, (-g.b) % r, (-(g.a * g.b) - g.c) % r)


def conjugate(P: Params, x: GroupElem, h: GroupElem) -> GroupElem:
    """x^h = h^-1 x h."""
    return group_mul(P, group_mul(P, group_inv(P, h), x), h)


def commutator(P: Params, x: GroupElem, y: GroupElem) -> GroupElem:
    """[x, y] = x^-1 y^-1 x y."""
    return group_mul(P, group_mul(P, group_inv(P, x), group_inv(P, y)),
                     group_mul(P, x, y))


# The character groups are cyclic, each generated by one coordinate of
# the normal form (v1, x1, v2, x2, a, b, c): a tag maps to the position
# of that coordinate and to the Params attribute of its order.
CHAR_GROUPS = {"P1": (1, "p"), "P2": (3, "p"), "L1": (4, "r"), "L2": (5, "r"),
               "Z": (6, "r")}


def char_group(P: Params, tag: str) -> tuple[int, int]:
    """The generating coordinate and the order of a character group."""
    if tag not in CHAR_GROUPS:
        raise ValueError(f"unknown subgroup tag {tag!r}")
    coord, order = CHAR_GROUPS[tag]
    return coord, getattr(P, order)


def generator_power(P: Params, tag: str, k: int) -> GroupElem:
    """g^k for the generator g of a character group, 0 <= k < |S|."""
    parts = list(identity(P))
    parts[char_group(P, tag)[0]] = k
    return GroupElem(*parts)


def subgroup_elements(P: Params, tag: str) -> list:
    """Enumerate a character group, Z, L1, L2, P1 or P2, by ascending
    powers of its generator."""
    return [generator_power(P, tag, k) for k in range(char_group(P, tag)[1])]


def d_pack(P: Params, v: Sequence[int]) -> int:
    """Pack a normalized D-vector into an integer (entry 0 dropped)."""
    t = 0
    for g in range(P.p - 1, 0, -1):
        t = t * P.ell + v[g]
    return t


def digit_dtype(P: Params) -> np.dtype:
    """Integer type of digit matrices: one byte while digits fit."""
    return np.dtype(np.int8 if P.ell < 128 else np.int64)


def d_digits(P: Params, packed: np.ndarray) -> np.ndarray:
    """Digit matrix of packed D-vectors, one row per key.

    Column j holds the base-ell digit of ell^j, that is entry j + 1 of
    the vector; arrow multiplicities of labels pack the same way.
    """
    return digits(np.ravel(packed), P.ell, P.p - 1, axis=1,
                  dtype=digit_dtype(P))


def d_key(P: Params, rows: np.ndarray) -> np.ndarray:
    """Packed D-vectors of digit rows (the last axis), the int64 inverse
    of d_digits."""
    return undigits(rows, P.ell, axis=-1)


def slot_scale_index(P: Params, u: int) -> np.ndarray:
    """Gather index of the relabelling s -> s*u mod p on the p - 1 slots.

    Slot j stands for index j + 1 of F_p^x; for a digit matrix D,
    D[:, slot_scale_index(P, u)] moves the entry at s to s*u.
    """
    uinv = pow(u, -1, P.p)
    return np.arange(1, P.p, dtype=np.int64) * uinv % P.p - 1


def d_scale(P: Params, u: int, packed: np.ndarray) -> np.ndarray:
    """Packed D-vectors with their indices relabelled s -> s*u: the slot
    gather on their digit rows."""
    return d_key(P, d_digits(P, packed)[:, slot_scale_index(P, u)])


def key_cols(P: Params, keys):
    """Columns (d1, x1, d2, x2, a, b, c) of packed group keys.

    Layout, most significant first: d1, x1, d2, x2, a, b, c, with radices
    dsz, p, dsz, p, r, r, r.  Plain integer arithmetic, so the same code
    is exact on Python ints and runs lane-wise on int64 arrays.
    """
    cols = []
    for radix in (P.r, P.r, P.r, P.p, P.dsz, P.p):
        high = keys // radix
        cols.append(keys - high * radix)
        keys = high
    c, b, a, x2, d2, x1 = cols
    return keys, x1, d2, x2, a, b, c


def key_join(P: Params, d1, x1, d2, x2, a, b, c):
    """Packed group keys of reduced columns, the inverse of key_cols."""
    key = (d1 * P.p + x1) * P.dsz + d2
    key = key * P.p + x2
    return ((key * P.r + a) * P.r + b) * P.r + c


def key_z(P: Params, keys):
    """The c coordinate (the Z-part gz^c) of packed group keys."""
    return keys % P.r


def key_drop(P: Params, keys, n: int):
    """Packed group keys with their n lowest coordinates (c, then b,
    then a) set to zero."""
    return keys - keys % P.r ** n


def key_n(P: Params, keys):
    """The N-part d1 x1 d2 x2 of packed group keys, as the flat index
    ((d1 p + x1) dsz + d2) p + x2 into (dsz p)^2."""
    return keys // P.r ** 3


def key_array(keys) -> np.ndarray:
    """Packed group keys as an int64 array; a key past 63 bits raises."""
    bits = max(keys, default=0).bit_length()
    if bits > 63:
        raise ValueError(f"a group key needs {bits} bits, more than the 63"
                         f" of an int64 key")
    return np.array(keys, dtype=np.int64)


def pack_key(P: Params, g: GroupElem) -> int:
    """Pack a normalized element into a single integer key, exact at any
    size."""
    return key_join(P, d_pack(P, g.v1), g.x1, d_pack(P, g.v2), g.x2,
                    g.a, g.b, g.c)


def key_bits(P: Params) -> int:
    """Bits of the largest key in the pack_key layout, dsz^2 p^2 r^3 - 1.

    The group algebra holds keys in int64, so it needs at most 63.
    """
    return (key_join(P, P.dsz, 0, 0, 0, 0, 0, 0) - 1).bit_length()


def elem_to_dict(g: GroupElem) -> dict:
    return {"v1": list(g.v1), "x1": g.x1, "v2": list(g.v2), "x2": g.x2,
            "h": [g.a, g.b, g.c]}
