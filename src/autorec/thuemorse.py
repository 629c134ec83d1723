"""Exact analysis of Thue-Morse partial sums at roots of unity.

T(n; x) = sum of (-1)^(binary weight of m) x^m over m < n satisfies
T(2^s n; x) = T(n; x^(2^s)) T(2^s; x), so at a root of unity w of odd
conductor r0 the single number T(2^s0; w), s0 the order of 2 mod r0,
controls the whole recurrence.  This module computes that coefficient
exactly, classifies its value (integer p, purely imaginary i*sqrt(p),
unit +-1, real non-integer) and tabulates the classification over
ranges of conductors.

tm_classify works on the exact value in Q(zeta_r0).  The scan table
only asks whether the value is +1, -1 or neither, and answers without
building the value or using floating point: it reduces the product
modulo primes p = 1 mod r0, where a residue other than +-1 refutes,
and agreement proves once the primes multiply past an integer bound
on the conjugates of the value (or at once, when the value is
rational).

Classification is checked against theory: what the arithmetic of
(r0, s0, phi) predicts is compared with what was measured, and a
disagreement would falsify a theorem, so it raises instead of being
reported as data.
"""

from __future__ import annotations

import sys
from typing import Optional

from .errors import AutorecError
from .numberfield import (
    GaloisMap,
    _split_primes,
    coset_reps,
    cyclo_field,
    euler_phi,
    is_prime_power,
    multiplicative_order,
)

CASE_PRIME_POWER_PRIMITIVE = "PrimePowerPrimitiveRoot"
CASE_PRIME_POWER_HALF_ODD = "PrimePowerHalfOdd"
CASE_TWO_FACTOR_UNIT = "TwoFactorUnit"
CASE_TWO_FACTOR_REAL = "TwoFactorRealNonInt"
CASE_OTHER = "Other"


# ----------------------------------------------------------------------
# the coefficient T(2^s0; w)


def _tm_cyclic(r0: int, e: int = 1) -> list[int]:
    """Integer vector of prod (1 - x^(2^i e)) mod x^r0 - 1, i < ord_2(r0)."""
    vec = [0] * r0
    vec[0] = 1
    s0 = multiplicative_order(2, r0)
    j = e % r0
    for _ in range(s0):
        rot = vec[r0 - j:] + vec[:r0 - j] if j else vec[:]
        vec = [a - b for a, b in zip(vec, rot)]
        j = (j * 2) % r0
    return vec


class TmClassification:
    """Exact value of T(2^s0; w) together with its classification."""

    def __init__(self, r0, s0, phi, case, value, is_real, is_imaginary, abs_square):
        self.r0 = r0
        self.s0 = s0
        self.phi = phi
        self.case = case
        self.value = value
        self.is_real = is_real
        self.is_imaginary = is_imaginary
        self.abs_square = abs_square  # value * conj(value) when computed

    def integer_value(self) -> Optional[int]:
        q = self.value.rational_value()
        return int(q) if q is not None and q.denominator == 1 else None

    def to_json_dict(self) -> dict:
        iv = self.integer_value()
        return {
            "r0": self.r0,
            "s0": self.s0,
            "phi": self.phi,
            "case": self.case,
            "value": iv if iv is not None else self.value.pretty(),
            "is_real": self.is_real,
            "is_imaginary": self.is_imaginary,
            "abs_square": str(self.abs_square) if self.abs_square is not None else None,
        }

    def __repr__(self):
        return f"TmClassification(r0={self.r0}, case={self.case}, value={self.value.pretty()})"


def tm_classify(r0: int) -> TmClassification:
    """Classify T(2^s0; w), w = zeta_r0, cross-checking theory vs value.

    Predictions (realness from the parity of s0, integer p at prime
    powers with 2 a primitive root, i*sqrt(p) in the half-odd case,
    units and real non-integers at several prime factors) are recomputed
    from the exact value; any mismatch raises.
    """
    if r0 < 3 or r0 % 2 == 0:
        raise AutorecError("conductor must be odd and at least 3")
    s0 = multiplicative_order(2, r0)
    phi = euler_phi(r0)
    value = cyclo_field(r0).element(_tm_cyclic(r0))
    conj = value.conjugate()
    if GaloisMap(value.field, 2)(value) != value:
        raise AutorecError(f"value not invariant under psi_2 at r0 = {r0}")

    is_real = value == conj
    is_imag = conj == -value
    if is_real != (s0 % 2 == 0) or (s0 % 2 == 1 and not is_imag):
        raise AutorecError(f"realness contradicts the parity of s0 at r0 = {r0}")

    pp = is_prime_power(r0)
    abs_square = None
    if pp is not None:
        p, _ = pp
        if s0 == phi:
            case = CASE_PRIME_POWER_PRIMITIVE
            if value.rational_value() != p:
                raise AutorecError(f"expected the prime {p} at r0 = {r0}")
        else:
            if value.rational_value() is not None:
                raise AutorecError(f"unexpected rational value at prime power r0 = {r0}")
            if 2 * s0 == phi and s0 % 2 == 1:
                case = CASE_PRIME_POWER_HALF_ODD
                abs_square = (value * conj).rational_value()
                if abs_square != p:
                    raise AutorecError(f"expected |T|^2 = {p} at r0 = {r0}")
            else:
                case = CASE_OTHER
    else:
        q = value.rational_value()
        if q is not None and q not in (1, -1):
            raise AutorecError(f"integer value {q} other than a unit at r0 = {r0}")
        if s0 % 2 == 0 and pow(2, s0 // 2, r0) == r0 - 1:
            case = CASE_TWO_FACTOR_REAL
            if not is_real or q is not None:
                raise AutorecError(f"expected a real non-integer at r0 = {r0}")
        elif s0 % 2 == 0 and 2 * s0 == phi:
            case = CASE_TWO_FACTOR_UNIT
            if q not in (1, -1):
                raise AutorecError(f"expected a unit at r0 = {r0}")
        else:
            case = CASE_OTHER
    return TmClassification(r0, s0, phi, case, value, is_real, is_imag, abs_square)


# ----------------------------------------------------------------------
# scanning many conductors


ROW_ONE = "one"
ROW_MINUS_ONE = "minus_one"
ROW_NONINTEGER = "noninteger"
COL_PHI_EQ = "phi_eq_2s0"
COL_PHI_GT = "phi_gt_2s0"

_ROWS = (ROW_ONE, ROW_MINUS_ONE, ROW_NONINTEGER)
_COLS = (COL_PHI_EQ, COL_PHI_GT)


class TmTable:
    """Counts of T(2^s0; w) classes over scanned conductors.

    Rows split by value (1, -1, non-integer), columns by whether
    phi(r0) = 2 s0 or phi(r0) > 2 s0.  Only conductors with s0 even and
    2^(s0/2) not congruent to -1 are tabulated: the others have a value
    that is forced purely imaginary or real non-integral, and both
    exclusion counts are kept alongside.
    """

    def __init__(self, bound, cells, considered, in_set, odd_s0, forced_real):
        self.bound = bound
        self.cells = cells  # dict row -> dict col -> count
        self.considered = considered
        self.in_set = in_set
        self.excluded_odd_s0 = odd_s0
        self.excluded_forced_real = forced_real

    def row_total(self, row: str) -> int:
        return sum(self.cells[row].values())

    def col_total(self, col: str) -> int:
        return sum(self.cells[row][col] for row in _ROWS)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "method": "exact",
            "considered": self.considered,
            "in_set": self.in_set,
            "excluded_odd_s0": self.excluded_odd_s0,
            "excluded_forced_real": self.excluded_forced_real,
            "cells": {r: dict(self.cells[r]) for r in _ROWS},
            "row_totals": {r: self.row_total(r) for r in _ROWS},
            "col_totals": {c: self.col_total(c) for c in _COLS},
        }

    def pretty(self) -> str:
        labels = {
            ROW_ONE: "T = 1",
            ROW_MINUS_ONE: "T = -1",
            ROW_NONINTEGER: "T not integer",
        }
        head = f"{'':16}{'phi = 2 s0':>12}{'phi > 2 s0':>12}{'total':>10}"
        lines = [head]
        for r in _ROWS:
            lines.append(
                f"{labels[r]:16}{self.cells[r][COL_PHI_EQ]:>12}"
                f"{self.cells[r][COL_PHI_GT]:>12}{self.row_total(r):>10}"
            )
        lines.append(
            f"{'total':16}{self.col_total(COL_PHI_EQ):>12}"
            f"{self.col_total(COL_PHI_GT):>12}{self.in_set:>10}"
        )
        lines.append(
            f"scanned {self.considered} odd conductors with >= 2 prime factors"
            f" up to {self.bound}; excluded {self.excluded_odd_s0} with odd s0"
            f" and {self.excluded_forced_real} forced real non-integers"
        )
        return "\n".join(lines)


def _tm_residue(p: int, x: int, s0: int) -> int:
    """prod (1 - x^(2^i)) mod p over i < s0."""
    v = 1
    for _ in range(s0):
        v = v * (1 - x) % p
        x = x * x % p
    return v


def _conjugate_bounds(r0: int, s0: int, reps: list[int]) -> list[int]:
    """Integer upper bounds on |sigma_u(T)| = prod 2 |sin(pi u 2^i / r0)|, u in reps.

    A factor is 2 sin x, x = pi j'/r0 < pi/2 with j' = min(j, r0 - j),
    j = u 2^i mod r0, and x <= x_hi = 355 j'/(113 r0) as 355/113 > pi.
    For x >= 0, sin x <= P(x), the Taylor sum ending in +x^9/9!, and P
    increases on [0, 355/226], which contains pi/2; so the factor is at
    most min(2 P(x_hi), 2).  Each factor is rounded up to 64 fractional
    bits, and the product is kept as a 64-bit mantissa times a power of
    two, rounded up after every factor.
    """
    b = 113 * r0
    bb = b * b
    c1, c2, c3, c4 = 72 * bb, 3024 * bb**2, 60480 * bb**3, 362880 * bb**4
    den = 362880 * b**9  # P(a/b) = a h(a^2) / den, h(t) = t^4 - c1 t^3 + c2 t^2 - c3 t + c4
    cap = 1 << 65  # the factor 2 with 64 fractional bits
    bounds = []
    for u in reps:
        m, e, j = 1, 0, u  # the product so far is at most m 2^e
        for _ in range(s0):
            a = 355 * (j if 2 * j < r0 else r0 - j)
            t = a * a
            f = -((-a * ((((t - c1) * t + c2) * t - c3) * t + c4) << 65) // den)
            m *= f if f < cap else cap
            n = m.bit_length() - 64
            if n > 0:
                m = -(-m >> n)
                e += n
            e -= 64
            j = 2 * j % r0
        bounds.append(m << e if e >= 0 else -(-m >> -e))
    return bounds


def _unit_certificate(r0: int, s0: int, phi: int):
    """Decide whether T = T(2^s0; zeta_r0) is +1 or -1, with integers only.

    s0 is even and r0 not a prime power.  Returns (sign, reps, bounds,
    rows): sign is +-1 when T equals it, else None; reps are the least
    representatives u of (Z/r0)^* modulo H = <2, -1> that were used;
    bounds[i] >= |sigma_u(T)| for u = reps[i], or [] if none was needed;
    rows holds (p, g, residues), residues[i] the image of T under
    zeta -> g^u mod p (cut short at a refutation).

    T is fixed by zeta -> zeta^2 and, by identity (iv) at zeta, by
    zeta -> 1/zeta, so by H.  For p = 1 mod r0 the maps zeta -> g^u are
    the reductions modulo the primes above p.  Refute: a residue other
    than +-1, or two of opposite sign, proves T != +-1; the first one is
    taken before any other work.  If H is all of (Z/r0)^* (phi = 2 s0,
    -1 not in <2>), T is rational and a unit (its norm is a power of
    Phi_r0(1) = 1), so +-1, and any other residue raises.  Otherwise,
    residues all equal to eps modulo primes whose product M exceeds
    max(bounds) + 1 give T - eps = M beta with every conjugate of beta
    below 1 in absolute value; the norm of beta, an integer, is then 0.
    """
    primes = _split_primes(r0)
    p, g = next(primes)
    residues = [_tm_residue(p, g, s0)]
    rows = [(p, g, residues)]
    sign = {1: 1, p - 1: -1}.get(residues[0])
    if phi == 2 * s0 and pow(2, s0 // 2, r0) != r0 - 1:
        if sign is None:
            raise AutorecError(f"rational T(2^s0; w) other than +-1 at r0 = {r0}")
        return sign, [1], [], rows
    if sign is None:
        return None, [1], [], rows
    reps = coset_reps((2, -1), r0)
    bounds, modulus = [], p
    while True:
        for u in reps[len(residues):]:
            residues.append(_tm_residue(p, pow(g, u, p), s0))
            if residues[-1] != sign % p:
                return None, reps, bounds, rows
        # bounding after the first prime's residues keeps it off refutations
        bounds = bounds or _conjugate_bounds(r0, s0, reps)
        if modulus > max(bounds) + 1:
            return sign, reps, bounds, rows
        p, g = next(primes)
        residues = []
        rows.append((p, g, residues))
        modulus *= p


def _scan_exact(r0: int):
    """Classify one conductor for the table by _unit_certificate.

    The non-integer row means T != +-1, and T is then not rational
    either: T is a unit, and the only rational units are +-1.
    """
    s0 = multiplicative_order(2, r0)
    if s0 % 2:
        return (r0, "odd_s0")
    phi = euler_phi(r0)
    sign = _unit_certificate(r0, s0, phi)[0]
    if pow(2, s0 // 2, r0) == r0 - 1:
        if sign is not None:
            raise AutorecError(f"forced real non-integer fails at r0 = {r0}")
        return (r0, "forced_real")
    row = {None: ROW_NONINTEGER, 1: ROW_ONE, -1: ROW_MINUS_ONE}[sign]
    col = COL_PHI_EQ if phi == 2 * s0 else COL_PHI_GT
    return (r0, (row, col))


def _collect(outcomes, total: int, progress: bool) -> list:
    """Gather outcomes in order, logging every 1000th when progress is on."""
    results = []
    for i, outcome in enumerate(outcomes):
        results.append(outcome)
        if progress and i % 1000 == 999:
            print(f"scan: {i + 1}/{total} conductors done", file=sys.stderr, flush=True)
    return results


def tm_table(
    bound: int,
    jobs: Optional[int] = None,
    progress: bool = False,
) -> TmTable:
    """Scan odd conductors with >= 2 distinct prime factors up to bound.

    Every outcome is proved with integer arithmetic modulo primes
    p = 1 mod r0 (see _unit_certificate): a residue other than +-1
    refutes T = +-1 after O(s0) work, and T = +-1 is confirmed by one
    residue when phi = 2 s0 and otherwise, usually, by the residues of
    one prime against an integer bound on the conjugates of T.  jobs
    spreads the scan over that many worker processes, at least 1; None
    and 1 scan in this process.  The merge is deterministic because
    results are keyed by conductor.  progress logs every 1000
    conductors to stderr, from this process whether or not jobs is set.
    """
    if bound < 15:
        raise AutorecError("bound must be at least 15, the smallest valid conductor")
    if jobs is not None and jobs < 1:
        raise AutorecError(f"jobs must be at least 1, got {jobs}")
    targets = [r0 for r0 in range(15, bound + 1, 2) if is_prime_power(r0) is None]
    if jobs is not None and jobs > 1 and len(targets) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(targets) // (8 * jobs))
            results = _collect(pool.map(_scan_exact, targets, chunksize=chunk), len(targets), progress)
    else:
        results = _collect(map(_scan_exact, targets), len(targets), progress)
    cells = {r: {c: 0 for c in _COLS} for r in _ROWS}
    odd_s0 = forced_real = in_set = 0
    for _, outcome in sorted(results):
        if outcome == "odd_s0":
            odd_s0 += 1
        elif outcome == "forced_real":
            forced_real += 1
        else:
            row, col = outcome
            cells[row][col] += 1
            in_set += 1
    return TmTable(bound, cells, len(targets), in_set, odd_s0, forced_real)
