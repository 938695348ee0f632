"""Acceptance gate: every headline property as one exact, budgeted test.

Each test freezes the expected values outright and runs the matching
named check in its exhaustive (full) form at the desk configurations
(2,7,3) over F_64 and (3,5,2) over F_81, with wall-clock budgets.
All equalities are exact; there is no tolerance anywhere.
"""

import time
from collections import Counter
from functools import lru_cache

from mfblocks.characters import make_char
from mfblocks.groups import params_make
from mfblocks.morita import (
    ext_dim, head_algebra, mf_number, morita_equivalent, params_for_target,
    recover_theta, commutation_pairing, simple_kind, simple_make, simples,
)
from mfblocks.quiver import qa_labels
from mfblocks.verify import run_checks


@lru_cache(maxsize=None)
def desk(ell: int, p: int, r: int):
    return params_make(ell, p, r)


@lru_cache(maxsize=None)
def theta1(ell: int, p: int, r: int):
    return make_char(desk(ell, p, r), "Z", 1)


def run_one(config: tuple, name: str, suite: str = "full"):
    P = desk(*config)
    rep = run_checks(P, theta1(*config), suite=suite, seed=0, names=[name])
    row = rep.rows[0]
    assert row.status == "pass", (config, name, row.witness)
    return row


def test_dimensions_448_labels_63_classes_200704_block():
    t0 = time.perf_counter()
    P = desk(2, 7, 3)
    assert len(qa_labels(P, 1)) == len(qa_labels(P, 2)) == 448
    assert 448 == 2 ** 6 * 7 == P.dsz * P.p
    classes = {lab.m for lab in qa_labels(P, 1) if any(lab.m)}
    assert len(classes) == 63 == 2 ** 6 - 1
    assert len(qa_labels(P, 1)) * len(qa_labels(P, 2)) == 200704
    run_one((2, 7, 3), "dimensions")
    assert time.perf_counter() - t0 < 1.0


def test_group_presentation_exhaustive_and_action_kernel_is_z():
    t0 = time.perf_counter()
    assert desk(2, 7, 3).r ** 3 == 27
    assert desk(3, 5, 2).r ** 3 == 8
    run_one((2, 7, 3), "group_relations")
    run_one((3, 5, 2), "group_relations")
    assert time.perf_counter() - t0 < 1.0


def test_embedding_multiplicative_on_all_200704_basis_pairs():
    t0 = time.perf_counter()
    run_one((2, 7, 3), "embed_multiplicative", suite="full")
    assert time.perf_counter() - t0 < 120.0
    t0 = time.perf_counter()
    run_one((2, 7, 3), "embed_multiplicative", suite="quick")
    assert time.perf_counter() - t0 < 1.0


def test_corner_maps_dual_formulas_homomorphism_and_collapse():
    for config in ((2, 7, 3), (3, 5, 2)):
        t0 = time.perf_counter()
        run_one(config, "corner_maps")
        assert time.perf_counter() - t0 < 30.0


def test_twisted_product_equals_group_route_on_100_pairs_each():
    t0 = time.perf_counter()
    run_one((2, 7, 3), "product_gate")
    run_one((3, 5, 2), "product_gate")
    assert time.perf_counter() - t0 < 60.0


def test_simple_census_17_with_degrees_3x13_9x4_and_13():
    t0 = time.perf_counter()
    first = simples(desk(2, 7, 3), theta1(2, 7, 3))
    assert len(first) == 17
    assert Counter(d for _, d in first) == Counter({3: 13, 9: 4})
    assert sum(d * d for _, d in first) == 441 == 7 * 7 * 3 * 3
    assert len(simples(desk(3, 5, 2), theta1(3, 5, 2))) == 13
    run_one((2, 7, 3), "simple_census")
    run_one((3, 5, 2), "simple_census")
    assert time.perf_counter() - t0 < 1.0


def test_idempotent_family_resolves_unit_head_is_13x1_plus_4x9():
    t0 = time.perf_counter()
    dims = Counter(d for _, d in head_algebra(desk(2, 7, 3), theta1(2, 7, 3)))
    assert dims == Counter({1: 13, 9: 4})
    run_one((2, 7, 3), "idempotent_head")
    assert time.perf_counter() - t0 < 60.0


def test_ext_quiver_exact_table_within_across_and_self():
    t0 = time.perf_counter()
    P, theta = desk(2, 7, 3), theta1(2, 7, 3)
    unit = simple_make(P, 0, 0)
    left1, left2 = simple_make(P, 1, 0), simple_make(P, 2, 0)
    right1 = simple_make(P, 0, 1)
    pair = next(s for s, _ in simples(P, theta)
                if simple_kind(s) == "pair")
    assert ext_dim(P, theta, [(unit, left1)]) == [1]
    assert ext_dim(P, theta, [(left1, left2)]) == [1]
    assert ext_dim(P, theta, [(left1, left1)]) == [0]
    assert ext_dim(P, theta, [(unit, unit)]) == [0]
    assert ext_dim(P, theta, [(left1, right1)]) == [0]
    assert ext_dim(P, theta, [(right1, left1)]) == [0]
    assert ext_dim(P, theta, [(pair, pair)])[0] >= 1
    run_one((2, 7, 3), "ext_quiver")
    run_one((3, 5, 2), "ext_quiver")
    assert time.perf_counter() - t0 < 120.0


def test_radical_power_membership_iff_equal_characters():
    t0 = time.perf_counter()
    run_one((3, 5, 2), "radical_powers")
    run_one((2, 7, 3), "radical_powers")
    assert time.perf_counter() - t0 < 120.0


def test_pairing_table_recovery_and_non_equivalence_at_p11():
    t0 = time.perf_counter()
    P, theta = desk(2, 7, 3), theta1(2, 7, 3)
    assert recover_theta(commutation_pairing(P, theta), P) == {1, 2}
    run_one((2, 7, 3), "pairing_recovery")

    Q = desk(2, 11, 5)
    th1, th2 = make_char(Q, "Z", 1), make_char(Q, "Z", 2)
    got1 = recover_theta(commutation_pairing(Q, th1), Q)
    got2 = recover_theta(commutation_pairing(Q, th2), Q)
    assert got1 == {1, 4} and got2 == {2, 3}
    assert not got1 & got2
    assert not morita_equivalent(Q, th1, th2)
    assert morita_equivalent(Q, th1, make_char(Q, "Z", 4))
    run_one((2, 11, 5), "pairing_recovery")
    assert time.perf_counter() - t0 < 300.0


def test_frobenius_twist_mf_closed_form_and_recipe():
    t0 = time.perf_counter()
    assert all(mf_number(2, 2 ** n + 1) == n for n in range(1, 21))
    assert params_for_target(2, 1) == (3, 7)
    assert params_for_target(2, 2) == (5, 11)
    assert params_for_target(2, 3) == (9, 19)
    assert params_for_target(2, 4) == (17, 103)
    run_one((2, 7, 3), "frobenius_mf")
    run_one((3, 5, 2), "frobenius_mf")
    assert time.perf_counter() - t0 < 10.0


def test_swap_and_fp_isomorphisms_multiplicative_and_permuting():
    t0 = time.perf_counter()
    run_one((2, 7, 3), "isomorphisms")
    run_one((3, 5, 2), "isomorphisms")
    assert time.perf_counter() - t0 < 60.0
