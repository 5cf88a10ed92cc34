"""The cap table: every public name and CLI subcommand with its cap, or the
reason it needs none.

Two caps bound every public operation: ``TENSOR_SIZE_CAP`` entries for any
array sized from the arguments or taken from the caller, and
``GENERATOR_CAP`` generators for the separability scan and the generator
listing; the CLI reads input files of at most ``INPUT_BYTES_CAP`` bytes,
derived from ``TENSOR_SIZE_CAP``. A capped entry lists calls
just past its cap, each refused with ``ResourceLimitError`` (CLI: exit 2)
under a ``tracemalloc`` peak of 1 MiB; README's caps paragraph lists the
same table. Other refusal tests stay in the files of what they test.
"""

import argparse
import json
import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import braidgate
import braidgate.tensorops as tensorops
from braidgate import (
    BraidWord,
    CoefficientTensor,
    MonomialGateMatrix,
    ResourceLimitError,
    StateVector,
    certify_entangler,
    check_algebraic_yang_baxter,
    check_braid_relations,
    check_yang_baxter,
    evaluate_braid_word,
    is_fully_separable,
    is_unitary,
    kron,
    pattern_permutation,
    quadric_generators,
    r_from_phase_matrix,
    random_phases,
    segre_map,
    to_algebraic,
)
from braidgate.cli import build_parser, main
from braidgate.segre import GENERATOR_CAP, _generator_count
from braidgate.serialize import INPUT_BYTES_CAP, matrix_to_payload, tensor_to_payload
from braidgate.tensorops import TENSOR_SIZE_CAP

ROOT = Path(__file__).parents[1]

# Inputs are made here, outside the traced calls. (28, 75) has the fewest
# generators past GENERATOR_CAP of the two-slot shapes up to 1500 per slot;
# no shape has exactly GENERATOR_CAP + 1. (46, 46) is the first uniform
# two-slot shape past it, for the entangler.
PAST_GENERATORS = CoefficientTensor((28, 75), np.ones(28 * 75))
UNIFORM_PAST_GENERATORS = CoefficientTensor((46, 46), np.ones(46 * 46))
ONE = np.ones((1, 1))
SWAP = np.eye(4)[[0, 2, 1, 3]]
EYE_17 = np.eye(17 * 17, dtype=np.complex128)  # dim 17: 17**3 rows, past 4096
GATE_4097 = pattern_permutation(4097)
# 97 * 673 rows by 257 columns: 2**24 + 1 entries, and so are the factors' sizes
KRON_LEFT, KRON_RIGHT = np.ones((97, 257), np.complex128), np.ones((673, 1), np.complex128)
FACTORS = [np.ones(97), np.ones(257), np.ones(673)]
# caller's arrays one entry past the cap, R of 4096 rows (dim 64), which no
# Yang-Baxter check takes, and R of 65**2 rows, past to_algebraic's 4096; all
# broadcast, so they hold no entries
PAST = (TENSOR_SIZE_CAP + 1,)
ENTRIES_PAST = np.broadcast_to(np.complex128(0), PAST)
COLUMNS_PAST = np.broadcast_to(np.int64(0), PAST)
R_4096 = np.broadcast_to(np.complex128(0), (4096, 4096))
R_4225 = np.broadcast_to(np.complex128(0), (65 * 65, 65 * 65))


@dataclass(frozen=True)
class Row:
    name: str  # a name in braidgate.__all__, or "cli <subcommand>"
    cap: str | None  # the constant that bounds it, or None
    text: str  # the bound, or why it needs none
    over: tuple = ()  # calls (CLI: argv) just past the bound, each refused


TENSOR, GENERATORS, BYTES = "TENSOR_SIZE_CAP", "GENERATOR_CAP", "INPUT_BYTES_CAP"
REP = "`dim**n_strands <= 4096` rows, at most 13 strands"
YBE = "`dim**3 <= 4096` rows"
ENTRIES = "`2**24` entries"
GENS = "`2**20` generators"

TABLE = [
    Row("BraidRelationReport", None, "a report; `check_braid_relations` bounds its checks"),
    Row("BraidWord", None, "holds the caller's letters"),
    Row("CoefficientTensor", TENSOR, ENTRIES,
        (lambda: CoefficientTensor(PAST, ENTRIES_PAST),
         lambda: CoefficientTensor.from_array(ENTRIES_PAST))),
    Row("Convention", None, "an enum of two tokens"),
    Row("EntanglerReport", None, "a report of values already computed"),
    Row("InputError", None, "an exception"),
    Row("MonomialGateMatrix", TENSOR, "`n <= 2**24` entries; `dense()`: `n * n <= 2**24` entries",
        (lambda: MonomialGateMatrix(PAST[0], COLUMNS_PAST, ENTRIES_PAST),
         lambda: GATE_4097.dense())),
    Row("QuadricGenerator", None, "four multi-indices"),
    Row("ResourceLimitError", None, "an exception"),
    Row("SeparabilityVerdict", None, "a report of values already computed"),
    Row("StateVector", TENSOR, ENTRIES, (lambda: StateVector(PAST, ENTRIES_PAST),)),
    Row("YbeReport", None, "a report of values already computed"),
    Row("apply_entangler", None, "a state the size of the caller's tensor"),
    Row("certify_entangler", GENERATORS, GENS,
        (lambda: certify_entangler(UNIFORM_PAST_GENERATORS),)),
    Row("check_algebraic_yang_baxter", TENSOR, YBE,
        (lambda: check_algebraic_yang_baxter(EYE_17, 17),
         lambda: check_algebraic_yang_baxter(R_4096))),
    Row("check_braid_relations", TENSOR, REP,
        (lambda: check_braid_relations(SWAP, 2, 13), lambda: check_braid_relations(ONE, 1, 14),
         lambda: check_braid_relations(R_4096, 64, 3))),
    Row("check_yang_baxter", TENSOR, YBE,
        (lambda: check_yang_baxter(EYE_17, 17), lambda: check_yang_baxter(R_4096))),
    Row("construct_entangler", None, "a gate the size of the caller's tensor"),
    Row("evaluate_braid_word", TENSOR, REP,
        (lambda: evaluate_braid_word(BraidWord(13, (1,)), SWAP, 2),
         lambda: evaluate_braid_word(BraidWord(14, (1,)), ONE, 1),
         lambda: evaluate_braid_word(BraidWord(3, (1,)), R_4096, 64))),
    Row("evaluate_quadric", None, "reads four entries"),
    Row("is_fully_separable", GENERATORS, GENS,
        (lambda: is_fully_separable(PAST_GENERATORS),)),
    Row("is_unitary", TENSOR, "`n * n <= 2**24` entries",
        (lambda: is_unitary(np.broadcast_to(np.complex128(0), (4097, 4097))),)),
    Row("kron", TENSOR, "`rows * cols <= 2**24` entries", (lambda: kron(KRON_LEFT, KRON_RIGHT),)),
    Row("lex_index", None, "an int from the caller's digits"),
    Row("pattern_permutation", TENSOR, "`n <= 2**24` entries",
        (lambda: pattern_permutation(TENSOR_SIZE_CAP + 1),)),
    Row("phase_gate", None, "a gate the size of the caller's tensor"),
    Row("quadric_generators", GENERATORS, GENS,
        (lambda: quadric_generators((28, 75)),)),
    Row("r_from_phase_matrix", TENSOR, "`dim**2 <= 4096` rows: 64 x 64 phases",
        (lambda: r_from_phase_matrix(np.broadcast_to(1.0, (65, 65))),)),
    Row("random_phases", TENSOR, ENTRIES,
        (lambda: random_phases((TENSOR_SIZE_CAP + 1,), 1),)),
    Row("rank1_oracle", None, "singular values of flattenings of the caller's tensor"),
    Row("segre_map", TENSOR, ENTRIES, (lambda: segre_map(FACTORS),)),
    Row("to_algebraic", TENSOR, "`dim**2 <= 4096` rows", (lambda: to_algebraic(R_4225),)),
    Row("cli construct", BYTES, "`97 * 2**24` bytes of input, parsed whole",
        (["construct", "--input", "{past_bytes}"],)),
    Row("cli entangle", BYTES, "as `construct`", (["entangle", "--input", "{past_bytes}"],)),
    Row("cli separability", GENERATORS, GENS,
        (["separability", "--input", "{past_generators}"],)),
    Row("cli generators", GENERATORS, GENS,
        (["generators", "--dims", "28,75"],)),
    Row("cli ybe", TENSOR, YBE, (["ybe", "--phases", "--dims", "17,17", "--seed", "1"],)),
    Row("cli braid", TENSOR, REP,
        (["braid", "--phases", "--dims", "2,2", "--seed", "1", "--strands", "13"],
         ["braid", "--input", "{one}", "--strands", "14"])),
    Row("cli random", TENSOR, ENTRIES,
        (["random", "--dims", str(TENSOR_SIZE_CAP + 1), "--seed", "1"],)),
]


def subcommands() -> list[str]:
    actions = build_parser()._actions
    return next(list(a.choices) for a in actions if isinstance(a, argparse._SubParsersAction))


@pytest.fixture
def files(tmp_path):
    paths = {"past_generators": tmp_path / "wide.json", "one": tmp_path / "one.json",
             "past_bytes": tmp_path / "past_bytes.json"}
    paths["past_generators"].write_text(json.dumps(tensor_to_payload(PAST_GENERATORS)))
    paths["one"].write_text(json.dumps(matrix_to_payload(ONE)))
    # sparse: truncate writes no data
    with open(paths["past_bytes"], "wb") as fh:
        fh.truncate(INPUT_BYTES_CAP + 1)
    return {k: str(v) for k, v in paths.items()}


def test_every_public_name_and_subcommand_is_in_the_table():
    names = [row.name for row in TABLE]
    assert len(names) == len(set(names))
    assert set(names) == set(braidgate.__all__) | {f"cli {c}" for c in subcommands()}
    for row in TABLE:
        assert row.text and (row.cap is None) == (not row.over), row.name


def test_the_table_states_its_inputs():
    assert _generator_count((28, 75)) == GENERATOR_CAP + 374
    assert _generator_count((46, 46)) > GENERATOR_CAP >= _generator_count((45, 45))
    assert 97 * 257 * 673 == TENSOR_SIZE_CAP + 1
    assert 4096**2 == TENSOR_SIZE_CAP and 16**6 == 64**4 == TENSOR_SIZE_CAP
    assert INPUT_BYTES_CAP == 97 * TENSOR_SIZE_CAP


@pytest.mark.parametrize("row", [row for row in TABLE if row.over], ids=lambda row: row.name)
def test_each_call_past_its_cap_is_refused_before_allocating(row, files, capsys):
    for call in row.over:
        tracemalloc.start()
        try:
            if row.name.startswith("cli "):
                code = main([a.format(**files) for a in call])
            else:
                with pytest.raises(ResourceLimitError):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if row.name.startswith("cli "):
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "") and captured.err.startswith("error: ")
        assert peak < 2**20, (row.name, peak)


# With TENSOR_SIZE_CAP at 2**12, each bound it sets is met by the first call
# and passed by the second: 64 representation rows, 8 x 8 phases and 6 strands
# at dim 2. A method's bound is listed as class.method. The strand limit at
# dim 1 is fixed when the package is imported.
AT_A_LOWER_CAP = {
    "CoefficientTensor": (lambda: CoefficientTensor.from_array(np.ones((64, 64))),
                          lambda: CoefficientTensor((4097,), np.ones(4097))),
    "MonomialGateMatrix": (lambda: MonomialGateMatrix(4096, np.arange(4096), np.ones(4096)),
                           lambda: MonomialGateMatrix(4097, np.arange(4097), np.ones(4097))),
    "MonomialGateMatrix.dense": (lambda: pattern_permutation(64).dense(),
                                 lambda: pattern_permutation(65).dense()),
    "StateVector": (lambda: StateVector((4096,), np.ones(4096)),
                    lambda: StateVector((4097,), np.ones(4097))),
    "check_algebraic_yang_baxter": (lambda: check_algebraic_yang_baxter(np.eye(16), 4),
                                    lambda: check_algebraic_yang_baxter(np.eye(25), 5)),
    "check_braid_relations": (lambda: check_braid_relations(SWAP, 2, 6),
                              lambda: check_braid_relations(SWAP, 2, 7)),
    "check_yang_baxter": (lambda: check_yang_baxter(np.eye(16), 4),
                          lambda: check_yang_baxter(np.eye(25), 5)),
    "evaluate_braid_word": (lambda: evaluate_braid_word(BraidWord(6, (1,)), SWAP, 2),
                            lambda: evaluate_braid_word(BraidWord(7, (1,)), SWAP, 2)),
    "is_unitary": (lambda: is_unitary(np.eye(64)), lambda: is_unitary(np.eye(65))),
    "kron": (lambda: kron(np.ones((1, 4096)), ONE), lambda: kron(np.ones((1, 4097)), ONE)),
    "pattern_permutation": (lambda: pattern_permutation(4096),
                            lambda: pattern_permutation(4097)),
    "r_from_phase_matrix": (lambda: r_from_phase_matrix(np.ones((8, 8))),
                            lambda: r_from_phase_matrix(np.ones((9, 9)))),
    "random_phases": (lambda: random_phases((4096,), 1), lambda: random_phases((4097,), 1)),
    "segre_map": (lambda: segre_map([np.ones(64), np.ones(64)]),
                  lambda: segre_map([np.ones(4097)])),
    "to_algebraic": (lambda: to_algebraic(np.eye(64)), lambda: to_algebraic(np.eye(81))),
    "cli ybe": (["ybe", "--phases", "--dims", "4,4", "--seed", "1"],
                ["ybe", "--phases", "--dims", "5,5", "--seed", "1"]),
    "cli braid": (["braid", "--phases", "--dims", "2,2", "--seed", "1", "--strands", "6"],
                  ["braid", "--phases", "--dims", "2,2", "--seed", "1", "--strands", "7"]),
    "cli random": (["random", "--dims", "4096", "--seed", "1"],
                   ["random", "--dims", "4097", "--seed", "1"]),
}


def test_every_entry_bound_moves_with_the_one_cap(monkeypatch, capsys):
    assert {name.partition(".")[0] for name in AT_A_LOWER_CAP} == {
        row.name for row in TABLE if row.cap == TENSOR}
    monkeypatch.setattr(tensorops, "TENSOR_SIZE_CAP", 2**12)
    for name, (at, over) in AT_A_LOWER_CAP.items():
        if name.startswith("cli "):
            assert main(at) == 0 and main(over) == 2, name
            assert capsys.readouterr().err.endswith("exceeds cap 4096 entries\n"), name
            continue
        at()
        with pytest.raises(ResourceLimitError, match="exceeds cap 4096 entries$"):
            over()


def test_the_library_raises_resource_limits_in_four_places():
    # _check_entries, the strand-count guard, the generator table and the
    # CLI's input bytes
    raises = {path.name: path.read_text().count("raise ResourceLimitError")
              for path in (ROOT / "src" / "braidgate").glob("*.py")}
    assert {name: n for name, n in raises.items() if n} == {
        "tensorops.py": 1, "braid.py": 1, "segre.py": 1, "serialize.py": 1}


def test_readme_lists_the_same_table():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| (`\w+`|none) \| (.+) \|$", readme, re.MULTILINE)
    assert rows == [(row.name, f"`{row.cap}`" if row.cap else "none", row.text)
                    for row in TABLE]
