"""The values the README states for the package's caps and bands are the
constants' values: a change to either fails here until the other follows."""

import math
import re
from pathlib import Path

import pytest

from braidgate.segre import (
    GENERATOR_CAP,
    MARGINAL_HIGH,
    MARGINAL_LOW,
    SCAN_CHUNK,
)
from braidgate.tensorops import TABLE_CACHE_BYTES, TENSOR_SIZE_CAP

README = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())

MIB = 2**20
ROWS = math.isqrt(TENSOR_SIZE_CAP)  # of a representation at the cap

# A pattern over the README with its whitespace collapsed, and the values
# its groups must read, in order.
STATED = {
    "SCAN_CHUNK": (r"`SCAN_CHUNK` = (\d+) generators", [SCAN_CHUNK]),
    "TABLE_CACHE_BYTES": (r"`TABLE_CACHE_BYTES` = (\d+) MiB", [TABLE_CACHE_BYTES / MIB]),
    "GENERATOR_CAP": (r"`GENERATOR_CAP` = (2\*\*\d+) generators", [GENERATOR_CAP]),
    "TENSOR_SIZE_CAP": (r"at most `(2\*\*\d+)` entries \(`TENSOR_SIZE_CAP`, (\d+) MiB of complex128",
                        [TENSOR_SIZE_CAP, TENSOR_SIZE_CAP * 16 / MIB]),
    # the one rule's limits: rows, phases, the Yang-Baxter dim and strands
    "limits of TENSOR_SIZE_CAP": (
        r"so it has at most (\d+) rows; .*? takes at most (\d+)x(\d+) phases; .*? so `dim` is "
        r"at most (\d+); and more than (\d+) strands \(the bit length of (\d+)\)",
        [ROWS, math.isqrt(ROWS), math.isqrt(ROWS), max(d for d in range(99) if d**6 <= ROWS**2),
         ROWS.bit_length(), ROWS]),
    "marginal band": (r"open band `\(([0-9.e+-]+), ([0-9.e+-]+)\)`", [MARGINAL_LOW, MARGINAL_HIGH]),
}


def _number(text: str) -> float:
    """A number as the README writes it: decimal, or a power ``b**e``."""
    base, _, exponent = text.partition("**")
    return float(base) ** int(exponent) if exponent else float(base)


@pytest.mark.parametrize("name", STATED)
def test_readme_states_the_constant(name):
    pattern, values = STATED[name]
    found = re.findall(pattern, README)
    assert found, f"the README no longer states {name} in the form {pattern!r}"
    for groups in found:
        groups = groups if isinstance(groups, tuple) else (groups,)
        assert [_number(g) for g in groups] == values, f"README states {name} as {groups}"
