"""Finite-field BRK-type sets: exact field arithmetic, sparse polynomials
with Hasse derivatives, multiplicity counting, vanishing-polynomial
construction, set generation/search, and certificate-emitting proof replay.
"""

from .errors import FFKakeyaError
from .ffield import FieldElement, FieldSpec, all_elements, field_for_q, make_field
from .mpoly import (
    NEG_INFINITY,
    SparsePoly,
    binom_multi,
    compose,
    expand_shift,
    hasse_derivative,
    lex_compare,
    min_lex_exponent,
    weighted_degree,
)
from .multiplicity import INFINITE, mult_at, schwartz_zippel_audit, vanishes_with_mult
from .vanish import VanishProblem, build_system, find_vanishing_poly, nullspace_trivial
from .brkset import (
    BrkInstance,
    PerRho,
    PointSet,
    generate_set,
    kakeya_set,
    min_brk_search,
    proof_params,
    theorem_bound,
    verify_brk,
)
from .replay import (
    Certificate,
    KeyLemmaInstance,
    check_derivs_zero,
    check_key_lemma,
    check_proposition,
    check_warmup,
    key_lemma_table,
    weighted_partition,
)

__version__ = "0.1.0"
