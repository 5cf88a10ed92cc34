"""The public surface: every exported name resolves, and caps are not call options."""

import inspect

import braidgate

# Every public name has a library, CLI, benchmark or acceptance-suite caller.
PUBLIC_NAMES = [
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


def test_public_api_is_the_names_callers_use():
    assert braidgate.__all__ == PUBLIC_NAMES


def test_exported_names_resolve_and_take_no_cap_parameter():
    # the two caps are module constants (TENSOR_SIZE_CAP, GENERATOR_CAP): every
    # public call is bounded the same way for every caller
    takes_a_cap = []
    for name in braidgate.__all__:
        obj = getattr(braidgate, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        members = [(name, obj)]
        if isinstance(obj, type):
            members += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(member)]
        for label, member in members:
            if callable(member) and "max_dim" in inspect.signature(member).parameters:
                takes_a_cap.append(label)
    assert takes_a_cap == []
    assert len(set(braidgate.__all__)) == len(braidgate.__all__)
