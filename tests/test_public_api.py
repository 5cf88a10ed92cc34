"""The public surface: every exported name resolves, and caps are not call options."""

import inspect

import braidgate


def test_exported_names_resolve_and_take_no_cap_parameter():
    # caps are module constants (REP_DIM_CAP, KRON_DIM_CAP, TENSOR_SIZE_CAP):
    # every public call is bounded the same way for every caller
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
