"""Reference computations and output checks, made apart from the program.

Every check returns a list of problems; an empty list means the output is
right. Nothing here calls braidgate: the references are plain numpy
(flattening minors, einsum Yang-Baxter residuals, the documented entangler
layout and seeded generator), so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

EPS = float(np.finfo(float).eps)
# The program and the reference round complex products independently, so a
# largest minor (entries scaled to modulus at most 1) may differ by a few ulps.
MINOR_ULPS = 8
SEP_TOL = 1e-9
MARGINAL = (1e-12, 1e-6)
UNITARY_TOL = 1e-12
YBE_TOL = 1e-12
EINSUM_TOL = 1e-12


# --- separability -----------------------------------------------------------


def peak_normalized(arr: np.ndarray) -> np.ndarray:
    return arr / np.abs(arr).max()


def max_minor(arr: np.ndarray) -> float:
    """Largest |2x2 minor| over all mode flattenings of ``arr``."""
    best = 0.0
    for j in range(arr.ndim):
        m = np.moveaxis(arr, j, 0).reshape(arr.shape[j], -1)
        for a, b in itertools.combinations(range(m.shape[0]), 2):
            p = np.multiply.outer(m[a], m[b])
            best = max(best, float(np.abs(p - p.T).max()))
    return best


def witness_minor(arr: np.ndarray, slot: int, k, l) -> float:
    """|a[k] a[l] - a[k'] a[l']| for a 1-based generator (slot, k, l)."""
    j = slot - 1
    k0 = tuple(int(x) - 1 for x in k)
    l0 = tuple(int(x) - 1 for x in l)
    kp = k0[:j] + (l0[j],) + k0[j + 1:]
    lp = l0[:j] + (k0[j],) + l0[j + 1:]
    return abs(complex(arr[k0] * arr[l0] - arr[kp] * arr[lp]))


class Reference:
    """A tensor with its peak-normalized form and largest minor, each made once when asked."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    @functools.cached_property
    def norm(self) -> np.ndarray:
        return peak_normalized(self.arr)

    @functools.cached_property
    def minor(self) -> float:
        return max_minor(self.norm)


def check_verdict(ref: Reference, separable, violation, witness, expect=None) -> list[str]:
    """A separability verdict against the reference minors.

    ``witness`` is ``None`` or ``(slot, k, l)``; ``expect`` is the known
    class of the input (True for separable), if it has one.
    """
    out = []
    if abs(violation - ref.minor) > MINOR_ULPS * EPS:
        out.append(f"max_violation {violation!r} != reference {ref.minor!r}")
    if bool(separable) != (violation <= SEP_TOL):
        out.append(f"separable={separable} contradicts max_violation {violation!r}")
    if expect is not None and bool(separable) != expect:
        out.append(f"separable={separable}, expected {expect}")
    if separable:
        if witness is not None:
            out.append("separable verdict carries a witness")
    elif witness is None:
        out.append("entangled verdict has no witness")
    else:
        value = witness_minor(ref.norm, *witness)
        if abs(value - violation) > MINOR_ULPS * EPS:
            out.append(f"witness minor {value!r} does not attain {violation!r}")
    return out


def check_oracle(ref: Reference, oracle) -> list[str]:
    """The rank-1 oracle must match the reference outside the marginal band."""
    if MARGINAL[0] < ref.minor < MARGINAL[1] or bool(oracle) == (ref.minor <= SEP_TOL):
        return []
    return [f"rank-1 oracle says {oracle} for reference minor {ref.minor!r}"]


def distinct_minor_count(dims) -> int:
    """Number of distinct 2x2 minor polynomials (up to sign) of all flattenings."""
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    seen = set()
    for j in range(len(dims)):
        m = np.moveaxis(idx, j, 0).reshape(dims[j], -1)
        for a, b in itertools.combinations(range(m.shape[0]), 2):
            for u, v in itertools.combinations(range(m.shape[1]), 2):
                plus = tuple(sorted((m[a, u], m[b, v])))
                minus = tuple(sorted((m[a, v], m[b, u])))
                seen.add(frozenset((plus, minus)))
    return len(seen)


# --- entanglers --------------------------------------------------------------


def entangler_layout(entries: np.ndarray, convention: str):
    """Expected 0-based column and value of every row of R."""
    n = entries.size
    cols = np.arange(n - 1, -1, -1)
    cols[0], cols[-1] = 0, n - 1
    values = entries[::-1].copy() if convention == "paper-matrix" else entries.copy()
    values[0], values[-1] = entries[0], entries[-1]
    return cols, values


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_monomial(cols, values, want_cols, want_values, what: str) -> list[str]:
    if len(cols) != len(want_cols):
        return [f"{what} has {len(cols)} rows, expected {len(want_cols)}"]
    out = []
    if not np.array_equal(cols, want_cols):
        out.append(f"{what} has the wrong column pattern")
    if not same_bits(values, want_values):
        out.append(f"{what} values differ from the coefficients")
    return out


def unitarity_residual(entries: np.ndarray) -> float:
    return float(np.max(np.abs(entries.real**2 + entries.imag**2 - 1.0)))


def check_certificate(entries, dims, convention, unitary, residual, entangling,
                      coefficient, expect) -> list[str]:
    """``entangling`` and ``coefficient`` are (separable, violation, witness) triples."""
    out = []
    ref = unitarity_residual(entries)
    if bool(unitary) != (ref <= UNITARY_TOL):
        out.append(f"unitary={unitary}, but max||c|^2-1| = {ref!r}")
    if abs(residual - ref) > UNITARY_TOL:
        out.append(f"unitarity residual {residual!r} != reference {ref!r}")
    out += check_verdict(Reference(entries.reshape(dims)), *coefficient, expect=expect)
    _, gate_values = entangler_layout(entries, convention)
    out += check_verdict(Reference(gate_values.reshape(dims)), *entangling)
    if convention == "theorem" and entangling[:2] != coefficient[:2]:
        out.append("theorem convention: entangling verdict differs from coefficient verdict")
    return out


# --- Yang-Baxter and braids ----------------------------------------------------


def phase_swap(m: np.ndarray) -> np.ndarray:
    """Phase-decorated swap: row (k, l) holds m[k, l] at column (l, k)."""
    d = m.shape[0]
    r = np.zeros((d * d, d * d), dtype=np.complex128)
    k, l = np.divmod(np.arange(d * d), d)
    r[k * d + l, l * d + k] = m[k, l]
    return r


def ybe_residual(r: np.ndarray, d: int) -> float:
    """max |R12 R23 R12 - R23 R12 R23| by einsum on the 4-leg tensor of R."""
    t = r.reshape(d, d, d, d)
    lhs = np.einsum("abxz,zcyf,xyde->abcdef", t, t, t)
    rhs = np.einsum("bcwz,awdy,yzef->abcdef", t, t, t)
    return float(np.max(np.abs(lhs - rhs)))


def algebraic_residual(x: np.ndarray, d: int) -> float:
    """max |X12 X13 X23 - X23 X13 X12| by einsum on the 4-leg tensor of X."""
    t = x.reshape(d, d, d, d)
    eye = np.eye(d)
    x12 = np.einsum("abde,cf->abcdef", t, eye)
    x13 = np.einsum("acdf,be->abcdef", t, eye)
    x23 = np.einsum("bcef,ad->abcdef", t, eye)

    def mul(p, q):
        return np.einsum("abcghi,ghidef->abcdef", p, q)

    return float(np.max(np.abs(mul(mul(x12, x13), x23) - mul(mul(x23, x13), x12))))


def check_ybe(residual, passed, ref=None) -> list[str]:
    """A YBE report: against an einsum residual, or as a known solution."""
    if ref is None:
        if not (passed and residual <= YBE_TOL):
            return [f"known solution reported residual {residual!r}, passed={passed}"]
        return []
    out = []
    if abs(residual - ref) > EINSUM_TOL:
        out.append(f"residual {residual!r} != einsum residual {ref!r}")
    if bool(passed) != (ref <= YBE_TOL):
        out.append(f"passed={passed} for einsum residual {ref!r}")
    return out


def expected_relations(n: int) -> list[tuple[str, int, int | None]]:
    far = [("far_commutation", i, j) for i in range(1, n) for j in range(i + 2, n)]
    return far + [("braid", i, None) for i in range(1, n - 1)]


def check_relations(n, passed, relations) -> list[str]:
    """``relations`` is a list of (kind, i, j, residual, passed) for a YBE solution.

    Far-commutation residuals are mathematically 0, but the dense products
    leave rounding on some inputs, so only the tolerance is checked.
    """
    got = [(kind, i, j) for kind, i, j, _, _ in relations]
    if got != expected_relations(n):
        return [f"{len(got)} relations reported, expected {len(expected_relations(n))}"]
    bad = [(kind, i, j, res) for kind, i, j, res, ok in relations if not (ok and res <= YBE_TOL)]
    out = [f"relation {b} fails on a YBE solution" for b in bad]
    if not passed:
        out.append("braid report not passed on a YBE solution")
    return out


# --- CLI ---------------------------------------------------------------------


def seeded_phases(dims, seed: int) -> np.ndarray:
    """The CLI's documented generator: exp(i * uniform(0, 2 pi)) from default_rng(seed)."""
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, int(np.prod(dims)))
    return np.exp(1j * theta)


def pairs(rows) -> np.ndarray:
    return np.array([complex(re, im) for re, im in rows], dtype=np.complex128)


def monomial_rows(payload):
    rows = payload["rows"]
    cols = np.array([r["col"] - 1 for r in rows])
    values = pairs([r["value"] for r in rows])
    if [r["row"] for r in rows] != list(range(1, len(rows) + 1)):
        return None, None
    return cols, values
