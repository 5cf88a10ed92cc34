"""The values the README states for the package's caps and bands are the
constants' values: a change to either fails here until the other follows."""

import re
from pathlib import Path

import pytest

from braidgate.braid import REP_DIM_CAP
from braidgate.segre import (
    GENERATOR_CAP,
    MARGINAL_HIGH,
    MARGINAL_LOW,
    SCAN_CHUNK,
)
from braidgate.tensorops import KRON_DIM_CAP, TABLE_CACHE_BYTES, TENSOR_SIZE_CAP

README = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())

MIB = 2**20

# A pattern over the README with its whitespace collapsed, and the values
# its groups must read, in order.
STATED = {
    "SCAN_CHUNK": (r"`SCAN_CHUNK` = (\d+) generators", [SCAN_CHUNK]),
    "TABLE_CACHE_BYTES": (r"`TABLE_CACHE_BYTES` = (\d+) MiB", [TABLE_CACHE_BYTES / MIB]),
    "GENERATOR_CAP": (r"`GENERATOR_CAP` = (2\*\*\d+) generators", [GENERATOR_CAP]),
    "TENSOR_SIZE_CAP": (r"more than `(2\*\*\d+)` entries \(`TENSOR_SIZE_CAP`, (\d+) MiB of complex128",
                        [TENSOR_SIZE_CAP, TENSOR_SIZE_CAP * 16 / MIB]),
    "REP_DIM_CAP": (r"may have at most (\d+) rows, so `dim\*\*n_strands` is capped at (\d+), and "
                    r"more than (\d+) strands \(the bit length of (\d+)\)",
                    [REP_DIM_CAP, REP_DIM_CAP, REP_DIM_CAP.bit_length(), REP_DIM_CAP]),
    "KRON_DIM_CAP": (r"refuse results beyond (\d+)x(\d+)", [KRON_DIM_CAP, KRON_DIM_CAP]),
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
