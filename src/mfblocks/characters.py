"""Linear characters of the abelian ell'-subgroups and their idempotents.

A character is stored as an exponent against the fixed generator of its
subgroup and the fixed root of unity of matching order, never as a
value table.  That makes Galois twisting (exponent scaling by ell) and
all later invariant extraction purely arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .groups import (
    CHAR_GROUPS, GroupElem, Params, char_group, generator_power, h_elem,
    key_array, pack_key, root_powers,
)
from .groupalg import GAElem


class Character(namedtuple("Character", "group e order")):
    """Linear character of one tagged abelian subgroup."""

    __slots__ = ()

    def __new__(cls, group: str, e: int, order: int):
        if group not in CHAR_GROUPS:
            raise ValueError(f"unknown character group {group!r}")
        return tuple.__new__(cls, (group, e % order, order))


def make_char(P: Params, group: str, e: int) -> Character:
    return Character(group, e, char_group(P, group)[1])


def is_faithful(chi: Character) -> bool:
    return math.gcd(chi.e, chi.order) == 1


def check_faithful(theta: Character) -> None:
    """Reject a theta that is not a faithful character of Z."""
    if theta.group != "Z" or not is_faithful(theta):
        raise ValueError("theta must be a faithful character of Z")


def _exponent_of(P: Params, group: str, g: GroupElem) -> int:
    """Generator exponent of g inside the tagged subgroup, or raise."""
    k = g[char_group(P, group)[0]]
    if g != generator_power(P, group, k):
        raise ValueError(f"element lies outside {group}")
    return k


def char_exponent(P: Params, chi: Character, g: GroupElem) -> int:
    """The exponent of chi(g) against the root of unity of order |S|,
    which is the same in every coefficient field."""
    return chi.e * _exponent_of(P, chi.group, g) % chi.order


def char_idempotent(P: Params, chi: Character) -> GAElem:
    """e_chi = |S|^-1 sum_k chi(g^-k) g^k over the powers of the generator
    g of the subgroup S; the key of g^k is k times that of g, so the keys
    ascend with k."""
    n = char_group(P, chi.group)[1]
    step = pack_key(P, generator_power(P, chi.group, 1))
    coeffs = root_powers(P, P.ctx, n)[-chi.e * np.arange(n) % n]
    return GAElem(key_array(range(0, n * step, step)),
                  P.ctx.vscale(P.ctx.inv(P.ctx.from_int(n)), coeffs))


def h_element(P: Params, theta: Character, chi: Character, i: int) -> GroupElem:
    """The unique h in L_j (j != i) with theta([h, g]) = chi(g) on L_i.

    The commutator relation [g2^b, g1^a] = gz^{-ab} forces the exponent
    -e/j (side 1) resp. e/j (side 2) for theta = theta_j; verify's
    pairing_recovery checks it against a search over the r candidates.
    """
    check_faithful(theta)
    if i not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {i}")
    if chi.group != f"L{i}":
        raise ValueError(f"chi must live on L{i}")
    t = chi.e * pow(theta.e, -1, P.r) % P.r
    return h_elem(P, 0, -t % P.r, 0) if i == 1 else h_elem(P, t, 0, 0)


def char_frob_power(theta: Character, m: int, ell: int) -> Character:
    """Exponent scaled by ell^m: the coefficient-Frobenius on labels."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return Character(theta.group,
                     (theta.e * pow(ell, m, theta.order)) % theta.order,
                     theta.order)
