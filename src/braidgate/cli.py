"""Command-line interface.

Subcommands: construct | entangle | separability | generators | ybe | braid
| random. ``main`` writes the payload each returns as JSON on stdout (or
``--output FILE``); diagnostics go to stderr. Exit codes: 0 success (and
asserted checks passed), 1 a check failed, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import serialize
from .braid import DEFAULT_YBE_TOL, _check_strands, _operator, _phase_swap, _relations, _ybe
from .entangler import (
    Convention,
    apply_entangler,
    construct_entangler,
    pattern_permutation,
    phase_gate,
)
from .errors import InputError, ResourceLimitError
from .segre import DEFAULT_SEPARABILITY_TOL, _oracle_agrees, _verdict, quadric_generators
from .tensorops import CoefficientTensor, _as_dims, _as_tol, random_phases


def _load_tensor(path: str) -> CoefficientTensor:
    return serialize.tensor_from_payload(serialize.load_json(path))


def _require(value, flag: str):
    if value is None:
        raise InputError(f"missing required flag {flag}")
    return value


def _resolve_r_source(args, n_strands: int) -> tuple[np.ndarray, int]:
    """Build the two-factor operator R for the ybe/braid commands.

    Sources, in order of precedence: ``--phases`` (seeded unimodular phase
    matrix, needs square --dims and --seed); ``--input`` with a tensor file
    (two uniform slots; the entangler for it, honoring --convention);
    ``--input`` with a matrix file (used as-is, size must be a square).
    A matrix file is checked as R, and ``n_strands`` is refused before R is
    built from phases or a tensor.
    """
    if args.phases:
        dims = _as_dims(_require(args.dims, "--dims").split(","))
        if len(dims) != 2 or dims[0] != dims[1]:
            raise InputError(f"--phases needs square dims N,N, got {dims}")
        seed = _require(args.seed, "--seed")
        _check_strands(dims[0], n_strands)
        return _phase_swap(random_phases(dims, seed).as_array()), dims[0]
    path = _require(args.input, "--input (or --phases)")
    payload = serialize.load_json(path)
    if isinstance(payload, dict) and "entries" in payload:
        tensor = serialize.tensor_from_payload(payload)
        if tensor.n_slots != 2:
            raise InputError(
                f"an entangler used as R needs exactly 2 slots, got {tensor.n_slots}"
            )
        gate = construct_entangler(tensor, args.convention)
        _check_strands(tensor.dims[0], n_strands)
        return gate.dense(), tensor.dims[0]
    r, dim = _operator(serialize.matrix_from_payload(payload), None)
    _check_strands(dim, n_strands)
    return r, dim


def _cmd_construct(args) -> tuple[dict, int]:
    tensor = _load_tensor(args.input)
    gate = construct_entangler(tensor, args.convention)
    return {
        "convention": args.convention,
        "n": gate.n,
        "R": serialize.monomial_to_payload(gate),
        "P": serialize.monomial_to_payload(pattern_permutation(gate.n)),
        "tau": serialize.monomial_to_payload(phase_gate(tensor, args.convention)),
    }, 0


def _cmd_entangle(args) -> tuple[dict, int]:
    tensor = _load_tensor(args.input)
    return serialize.state_to_payload(apply_entangler(tensor, args.convention)), 0


def _cmd_separability(args) -> tuple[dict, int]:
    tensor = _load_tensor(args.input)
    # --tol was checked as it was parsed
    verdict = _verdict(tensor, args.tol)
    agrees = _oracle_agrees(tensor, verdict)
    if verdict.marginal:
        print(
            f"note: residual {verdict.max_violation:.3e} is in the marginal band; "
            "classified by the hard threshold",
            file=sys.stderr,
        )
    if not agrees:
        print("error: rank-1 oracle disagrees with the quadric verdict", file=sys.stderr)
    return serialize.verdict_to_payload(verdict, agrees), 0 if agrees else 1


def _cmd_generators(args) -> tuple[dict, int]:
    dims = _as_dims(args.dims.split(","))
    gens = quadric_generators(dims)
    return {
        "dims": list(dims),
        "count": len(gens),
        "generators": [serialize.generator_to_payload(g) for g in gens],
    }, 0


def _cmd_ybe(args) -> tuple[dict, int]:
    r, dim = _resolve_r_source(args, 3)
    # The algebraic residual of swap @ R is the braided residual of R
    # (check_algebraic_yang_baxter), so --form only labels the payload.
    report = _ybe(r, dim, args.tol)
    return serialize.ybe_to_payload(report, dim, args.form), 0 if report.passed else 1


def _cmd_braid(args) -> tuple[dict, int]:
    r, dim = _resolve_r_source(args, args.strands)
    report = _relations(r, dim, args.strands, args.tol)
    return serialize.relations_to_payload(report), 0 if report.passed else 1


def _cmd_random(args) -> tuple[dict, int]:
    return serialize.tensor_to_payload(random_phases(args.dims.split(","), args.seed)), 0


def _positive_float(text: str) -> float:
    try:
        return _as_tol(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_convention(p, help=None) -> None:
    choices = [c.value for c in Convention]  # the library converts the checked value
    p.add_argument("--convention", default=Convention.THEOREM.value, choices=choices, help=help)


def _add_r_source(p) -> None:
    p.add_argument("--input", metavar="FILE", help="tensor file (entangler) or matrix file")
    p.add_argument("--phases", action="store_true", help="seeded unimodular phase matrix as R")
    p.add_argument("--dims", help="comma-separated dims, e.g. 3,3 (with --phases)")
    p.add_argument("--seed", type=int, help="seed for --phases")
    _add_convention(p, "antidiagonal fill order when --input is a tensor file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidgate",
        description="Monomial gate entanglers, separability tests, and Yang-Baxter checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit R, P, and tau for a coefficient tensor")
    p.add_argument("--input", required=True, metavar="FILE", help="tensor JSON file")
    _add_convention(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("entangle", help="apply R to the uniform product state")
    p.add_argument("--input", required=True, metavar="FILE")
    _add_convention(p)
    p.set_defaults(func=_cmd_entangle)

    p = sub.add_parser("separability", help="quadric separability verdict with rank-1 cross-check")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_SEPARABILITY_TOL)
    p.set_defaults(func=_cmd_separability)

    p = sub.add_parser("generators", help="list the quadric generators for a shape")
    p.add_argument("--dims", required=True, help="comma-separated dims, e.g. 3,3")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("ybe", help="Yang-Baxter residual for an operator on two factors")
    _add_r_source(p)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_YBE_TOL)
    p.add_argument("--form", choices=["braided", "algebraic"], default="braided")
    p.set_defaults(func=_cmd_ybe)

    p = sub.add_parser("braid", help="Artin relation residuals for the strand representation")
    _add_r_source(p)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_YBE_TOL)
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("random", help="seeded unimodular random tensor")
    p.add_argument("--dims", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_random)

    for p in sub.choices.values():
        p.add_argument("--output", metavar="FILE", help="write JSON here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        serialize.emit_json(payload, args.output)
        return code
    except (InputError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
