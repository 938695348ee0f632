"""Linear characters of the abelian ell'-subgroups and their idempotents.

A character is stored as an exponent against the fixed generator of its
subgroup and the fixed root of unity of matching order, never as a
value table.  That makes Galois twisting (exponent scaling by ell) and
all later invariant extraction purely arithmetic.
"""

from __future__ import annotations

import math

from .groups import (
    GroupElem, Params, group_inv, h_elem, root_powers, subgroup_elements,
)
from .groupalg import GAElem, ga_from_terms

_Z_GROUPS = ("Z", "L1", "L2")
_P_GROUPS = ("P1", "P2")


class Character:
    """Linear character of one tagged abelian subgroup."""

    __slots__ = ("group", "e", "order")

    def __init__(self, group: str, e: int, order: int):
        if group not in _Z_GROUPS + _P_GROUPS:
            raise ValueError(f"unknown character group {group!r}")
        self.group = group
        self.order = order
        self.e = e % order

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return (self.group, self.e, self.order) == \
            (other.group, other.e, other.order)

    def __hash__(self):
        return hash((self.group, self.e, self.order))

    def __repr__(self):
        return f"Character({self.group}, e={self.e})"


def make_char(P: Params, group: str, e: int) -> Character:
    order = P.r if group in _Z_GROUPS else P.p
    return Character(group, e, order)


def is_faithful(chi: Character) -> bool:
    return math.gcd(chi.e, chi.order) == 1


def _exponent_of(P: Params, group: str, g: GroupElem) -> int:
    """Generator exponent of g inside the tagged subgroup, or raise."""
    zero = (0,) * P.p
    plain = g.v1 == zero and g.v2 == zero
    if group == "Z":
        if plain and (g.x1, g.x2, g.a, g.b) == (0, 0, 0, 0):
            return g.c
    elif group == "L1":
        if plain and (g.x1, g.x2, g.b, g.c) == (0, 0, 0, 0):
            return g.a
    elif group == "L2":
        if plain and (g.x1, g.x2, g.a, g.c) == (0, 0, 0, 0):
            return g.b
    elif group == "P1":
        if plain and (g.x2, g.a, g.b, g.c) == (0, 0, 0, 0):
            return g.x1
    elif group == "P2":
        if plain and (g.x1, g.a, g.b, g.c) == (0, 0, 0, 0):
            return g.x2
    raise ValueError(f"element lies outside {group}")


def char_eval(P: Params, chi: Character, g: GroupElem) -> int:
    """Value of chi on g, as a packed field element."""
    k = _exponent_of(P, chi.group, g)
    return int(root_powers(P, chi.order)[chi.e * k % chi.order])


def char_idempotent(P: Params, chi: Character) -> GAElem:
    """e_chi = |S|^-1 sum_g chi(g^-1) g, supported on the subgroup S."""
    elems = subgroup_elements(P, chi.group)
    inv_size = P.ctx.inv(P.ctx.from_int(len(elems)))
    terms = []
    for g in elems:
        val = char_eval(P, chi, group_inv(P, g))
        terms.append((g, P.ctx.mul(inv_size, val)))
    return ga_from_terms(P, terms)


def h_element(P: Params, theta: Character, chi: Character, i: int) -> GroupElem:
    """The unique h in L_j (j != i) with theta([h, g]) = chi(g) on L_i.

    The commutator relation [g2^b, g1^a] = gz^{-ab} forces the exponent
    -e/j (side 1) resp. e/j (side 2) for theta = theta_j; verify's
    pairing_recovery checks it against a search over the r candidates.
    """
    if theta.group != "Z" or not is_faithful(theta):
        raise ValueError("theta must be a faithful character of Z")
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
