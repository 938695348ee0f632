"""Exact invariants of a family of blocks with prescribed
Morita-Frobenius numbers.

The layers build bottom-up: finite field scalars, the group and its
algebra, the side quiver algebras, the twisted tensor model of the
basic block, and the Morita-level invariants extracted from it.
"""

from .field import FieldContext, field_make
from .groups import Params, params_make
from .characters import Character, char_frob_power, is_faithful, make_char
from .groupalg import (
    GAElem, block_idempotent, ga_add, ga_basis, ga_frobenius_twist, ga_mul,
)
from .quiver import (
    QuivAElem, QuivLabel, label_make, qa_add, qa_basis, qa_isotypic,
    qa_labels, qa_mul,
)
from .twisted import (
    TTElem, b0_iota, b0_pi, b0_pi_inv, tt_add, tt_eps, tt_from_terms,
    tt_mul, tt_tilde, tt_unit,
)
from .morita import (
    PairingTable, SimpleLabel, commutation_pairing, ext_dim,
    fp_automorphism, head_algebra, mf_number, morita_equivalent,
    params_for_target, recover_theta, simple_str, simples,
    swap_isomorphism,
)
from .verify import VerifyReport, check_names, run_checks

__all__ = [
    "FieldContext", "field_make",
    "Params", "params_make",
    "Character", "char_frob_power", "is_faithful", "make_char",
    "GAElem", "block_idempotent", "ga_add", "ga_basis",
    "ga_frobenius_twist", "ga_mul",
    "QuivAElem", "QuivLabel", "label_make", "qa_add", "qa_basis",
    "qa_isotypic", "qa_labels", "qa_mul",
    "TTElem", "b0_iota", "b0_pi", "b0_pi_inv", "tt_add", "tt_eps",
    "tt_from_terms", "tt_mul", "tt_tilde", "tt_unit",
    "PairingTable", "SimpleLabel", "commutation_pairing", "ext_dim",
    "fp_automorphism", "head_algebra", "mf_number", "morita_equivalent",
    "params_for_target", "recover_theta", "simple_str", "simples",
    "swap_isomorphism",
    "VerifyReport", "check_names", "run_checks",
]
