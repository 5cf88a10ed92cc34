"""JSON schemas for tensors, matrices, gates, and reports.

Complex numbers are serialized as two-element ``[re, im]`` arrays. Floats
use Python's shortest round-trip decimal form, so every emitted artifact
re-parses to a bit-identical value. Multi-indices and row/column numbers in
payloads are 1-based.
"""

from __future__ import annotations

import json

import numpy as np

from .braid import BraidRelationReport, YbeReport
from .entangler import MonomialGateMatrix
from .errors import InputError
from .segre import QuadricGenerator, SeparabilityVerdict
from .tensorops import CoefficientTensor, StateVector


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_list(values) -> list[list[float]]:
    return [_pair(complex(z)) for z in values]


def _parse_pair(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise InputError(f"{where}: expected a [re, im] number pair, got {obj!r}")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise InputError(f"{where}: number too large for a float") from exc


def tensor_to_payload(tensor: CoefficientTensor) -> dict:
    return {"dims": list(tensor.dims), "entries": _complex_list(tensor.entries)}


def tensor_from_payload(obj) -> CoefficientTensor:
    if not isinstance(obj, dict) or "dims" not in obj or "entries" not in obj:
        raise InputError("tensor file must be an object with 'dims' and 'entries'")
    dims = obj["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise InputError("'dims' must be a list of integers")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise InputError("'entries' must be a list of [re, im] pairs")
    values = [_parse_pair(e, f"entries[{i}]") for i, e in enumerate(entries)]
    return CoefficientTensor(tuple(dims), np.array(values, dtype=np.complex128))


def state_to_payload(state: StateVector) -> dict:
    return {"dims": list(state.dims), "amplitudes": _complex_list(state.amplitudes)}


def matrix_to_payload(matrix) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    return {"rows": [_complex_list(row) for row in arr]}


def matrix_from_payload(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputError("matrix file must be an object with 'rows'")
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise InputError("'rows' must be a non-empty list of rows")
    width = None
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"rows[{i}] must be a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"rows[{i}] has {len(row)} entries, expected {width}")
        parsed.append([_parse_pair(e, f"rows[{i}][{k}]") for k, e in enumerate(row)])
    arr = np.array(parsed, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise InputError("matrix contains non-finite entries")
    return arr


def monomial_to_payload(gate: MonomialGateMatrix) -> dict:
    return {
        "n": gate.n,
        "rows": [
            {"row": r, "col": c, "value": _pair(v)} for r, c, v in gate.nonzeros()
        ],
    }


def generator_to_payload(gen: QuadricGenerator) -> dict:
    return {"j": gen.slot, "k": list(gen.k), "l": list(gen.l)}


def verdict_to_payload(verdict: SeparabilityVerdict, oracle_agrees: bool) -> dict:
    return {
        "separable": verdict.separable,
        "max_violation": verdict.max_violation,
        "witness": None if verdict.witness is None else generator_to_payload(verdict.witness),
        "tolerance": verdict.tolerance_used,
        "marginal": verdict.marginal,
        "oracle_agrees": oracle_agrees,
    }


def ybe_to_payload(report: YbeReport, dim: int, form: str) -> dict:
    return {
        "residual": report.residual,
        "passed": report.passed,
        "tolerance": report.tolerance,
        "dim": dim,
        "form": form,
    }


def relations_to_payload(report: BraidRelationReport) -> dict:
    return {
        "strands": report.n_strands,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "relations": [
            {
                "kind": c.kind,
                "i": c.i,
                "j": c.j,
                "residual": c.residual,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, UTF-8, depth or integer
            raise InputError(str(exc)) from exc


def emit_json(payload, path: str | None = None) -> None:
    """Write a payload to a file or stdout (pretty-printed, exact floats)."""
    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
