"""Monomial quantum gate entanglers with separability and braid certification.

Three pillars:

* :mod:`braidgate.segre`: full-separability verdicts for pure multipartite
  states via quadric generators, cross-checked by a rank-1 flattening
  oracle;
* :mod:`braidgate.entangler`: the monomial gate entangler R, the swap
  pattern P, and the phase gate tau = R @ P, in both antidiagonal fill
  conventions;
* :mod:`braidgate.braid`: Yang-Baxter residuals and Artin braid relation
  checks for operators on tensor factors.
"""

from .braid import (
    BraidRelationReport,
    BraidWord,
    YbeReport,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    evaluate_braid_word,
    r_from_phase_matrix,
    to_algebraic,
)
from .entangler import (
    Convention,
    EntanglerReport,
    MonomialGateMatrix,
    apply_entangler,
    certify_entangler,
    construct_entangler,
    pattern_permutation,
    phase_gate,
)
from .errors import InputError, ResourceLimitError
from .segre import (
    QuadricGenerator,
    SeparabilityVerdict,
    evaluate_quadric,
    is_fully_separable,
    quadric_generators,
    rank1_oracle,
    segre_map,
)
from .tensorops import (
    CoefficientTensor,
    StateVector,
    is_unitary,
    kron,
    lex_index,
    random_phases,
)

__version__ = "0.1.0"

__all__ = [
    "BraidRelationReport",
    "BraidWord",
    "CoefficientTensor",
    "Convention",
    "EntanglerReport",
    "InputError",
    "MonomialGateMatrix",
    "QuadricGenerator",
    "ResourceLimitError",
    "SeparabilityVerdict",
    "StateVector",
    "YbeReport",
    "apply_entangler",
    "certify_entangler",
    "check_algebraic_yang_baxter",
    "check_braid_relations",
    "check_yang_baxter",
    "construct_entangler",
    "evaluate_braid_word",
    "evaluate_quadric",
    "is_fully_separable",
    "is_unitary",
    "kron",
    "lex_index",
    "pattern_permutation",
    "phase_gate",
    "quadric_generators",
    "r_from_phase_matrix",
    "random_phases",
    "rank1_oracle",
    "segre_map",
    "to_algebraic",
]
