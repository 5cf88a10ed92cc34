"""JSON schemas for tensors, matrices, gates, and reports.

Complex numbers are serialized as two-element ``[re, im]`` arrays. Floats
use Python's shortest round-trip decimal form, so every emitted artifact
re-parses to a bit-identical value. Multi-indices and row/column numbers in
payloads are 1-based.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .braid import BraidRelationReport, YbeReport
from .entangler import MonomialGateMatrix
from .errors import InputError, ResourceLimitError
from .segre import QuadricGenerator, SeparabilityVerdict
from .tensorops import TENSOR_SIZE_CAP, CoefficientTensor, StateVector, _as_array

# The most bytes emit_json writes for one [re, im] entry is 97: a float's
# repr takes at most 24 characters (-2.2250738585072014e-308), an entry of a
# matrix row takes 36 more for its indentation, brackets, commas and newlines,
# and a row of one entry adds 13 for the row's own brackets (a tensor's or a
# state's entry takes at most 28 + 48 = 76). So every tensor, state or matrix
# file written for at most TENSOR_SIZE_CAP entries has at most this many
# bytes, and a larger input file is refused before json.load parses it.
INPUT_BYTES_CAP = 97 * TENSOR_SIZE_CAP


def _complex_list(values: np.ndarray) -> list:
    """A C-ordered complex128 array as nested lists of ``[re, im]`` pairs."""
    return values.view(np.float64).reshape(*values.shape, 2).tolist()


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
    return CoefficientTensor(tuple(dims), values)


def state_to_payload(state: StateVector) -> dict:
    return {"dims": list(state.dims), "amplitudes": _complex_list(state.amplitudes)}


def matrix_to_payload(matrix) -> dict:
    return {"rows": _complex_list(_as_array(matrix, "matrix", 2))}


def matrix_from_payload(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputError("matrix file must be an object with 'rows'")
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise InputError("'rows' must be a non-empty list of rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows[0]):
            raise InputError(f"rows[{i}] must be a list of [re, im] pairs as long as rows[0]")
        parsed.append([_parse_pair(e, f"rows[{i}][{k}]") for k, e in enumerate(row)])
    return _as_array(parsed, "matrix", 2)


def monomial_to_payload(gate: MonomialGateMatrix) -> dict:
    return {
        "n": gate.n,
        "rows": [{"row": r, "col": c, "value": [v.real, v.imag]} for r, c, v in gate.nonzeros()],
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
    """A JSON input file, parsed; one over ``INPUT_BYTES_CAP`` bytes is a
    :class:`ResourceLimitError`, refused before it is read."""
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > INPUT_BYTES_CAP:
            raise ResourceLimitError(f"input file of {size} bytes exceeds cap "
                                     f"{INPUT_BYTES_CAP} bytes")
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, UTF-8, depth or integer
            raise InputError(str(exc)) from exc


def emit_json(payload, path: str | None = None) -> None:
    """Write a payload to a file or stdout (pretty-printed, exact floats)."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        # a batch at a time: json.dumps holds every chunk until it joins them
        while batch := "".join(itertools.islice(chunks, 4096)):
            fh.write(batch)
        fh.write("\n")
