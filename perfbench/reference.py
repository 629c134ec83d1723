"""Reference answers for the benchmark's checks.

Nothing here imports autorec: every expected value is either frozen from
the test suite or computed by a route that shares no code with the
package under test.
"""

from __future__ import annotations

import cmath
import math

# tm_table outcomes frozen in the test suite: bound 2000 is acceptance
# criterion 07 (tests/test_acceptance.py), bound 300 is
# test_table_frozen_grid_at_300 (tests/test_thuemorse.py).  Only the
# fields those tests assert are frozen.
FROZEN_TM_TABLES = {
    300: {
        "cells": {
            "one": {"phi_eq_2s0": 13, "phi_gt_2s0": 0},
            "minus_one": {"phi_eq_2s0": 18, "phi_gt_2s0": 1},
            "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 29},
        },
        "considered": 78,
        "in_set": 61,
    },
    2000: {
        "cells": {
            "one": {"phi_eq_2s0": 79, "phi_gt_2s0": 11},
            "minus_one": {"phi_eq_2s0": 95, "phi_gt_2s0": 22},
            "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 319},
        },
        "considered": 676,
        "in_set": 526,
        "excluded_odd_s0": 26,
        "excluded_forced_real": 124,
    },
}


def _is_prime_power(n: int) -> bool:
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        return True  # n itself is prime
    while n % p == 0:
        n //= p
    return n == 1


def _order_of_two(r0: int) -> int:
    s, x = 1, 2 % r0
    while x != 1:
        x = 2 * x % r0
        s += 1
    return s


def _tm_row(r0: int, s0: int) -> str:
    """Decide T = prod_{i < s0} (1 - w^(2^i)), w a primitive r0-th root.

    Each factor is 1 - e^(it) = 2 sin(t/2) e^(i(t - pi)/2) with
    t = 2 pi a / r0 and 0 < a < r0, so the argument of a conjugate of T
    is the exact angle pi (2 sum(a) - s0 r0) / (2 r0); only its modulus
    is a floating-point sum of logarithms, with error far below the
    margins used here.  T = 1 exactly when every conjugate has angle 0
    and modulus within e^0.1 of 1: then |N(T - 1)| < (e^0.1 - 1)^phi < 1,
    and that norm is an integer.  Likewise for T = -1 with angle pi.  A
    conjugate off either value by more than 1e-6 rules that value out.
    Conjugates depend only on the coset of the unit u modulo <2>.
    """
    logs = [0.0] + [math.log(2.0 * math.sin(math.pi * a / r0)) for a in range(1, r0)]
    could_be = {"one": True, "minus_one": True}
    proven = {"one": True, "minus_one": True}
    seen = set()
    for u in range(1, r0):
        if u in seen or math.gcd(u, r0) != 1:
            continue
        a, total, log_abs = u, 0, 0.0
        for _ in range(s0):
            seen.add(a)
            total += a
            log_abs += logs[a]
            a = 2 * a % r0
        angle = (2 * total - s0 * r0) % (4 * r0)  # in units of pi / (2 r0)
        for row, want in (("one", 0), ("minus_one", 2 * r0)):
            if angle != want or abs(log_abs) > 1e-6:
                could_be[row] = False
            if angle != want or abs(log_abs) >= 0.1:
                proven[row] = False
    for row in ("one", "minus_one"):
        if proven[row]:
            return row
    if could_be["one"] or could_be["minus_one"]:
        raise ArithmeticError(f"reference cannot decide the Thue-Morse value at r0 = {r0}")
    return "noninteger"


def tm_table_reference(bound: int) -> dict:
    """The fields of tm_table(bound), computed without autorec."""
    cells = {
        row: {"phi_eq_2s0": 0, "phi_gt_2s0": 0} for row in ("one", "minus_one", "noninteger")
    }
    considered = odd_s0 = forced_real = 0
    for r0 in range(15, bound + 1, 2):
        if _is_prime_power(r0):
            continue
        considered += 1
        s0 = _order_of_two(r0)
        if s0 % 2:
            odd_s0 += 1
        elif pow(2, s0 // 2, r0) == r0 - 1:
            forced_real += 1
        else:
            phi = sum(1 for u in range(1, r0) if math.gcd(u, r0) == 1)
            col = "phi_eq_2s0" if phi == 2 * s0 else "phi_gt_2s0"
            cells[_tm_row(r0, s0)][col] += 1
    return {
        "cells": cells,
        "considered": considered,
        "in_set": considered - odd_s0 - forced_real,
        "excluded_odd_s0": odd_s0,
        "excluded_forced_real": forced_real,
    }


def table_mismatches(table, want: dict) -> list[str]:
    """Fields of a TmTable that differ from a reference dict."""
    return [
        f"{field}: got {getattr(table, field)!r}, want {value!r}"
        for field, value in want.items()
        if getattr(table, field) != value
    ]


def pattern_count(v: tuple, n: int, k: int) -> int:
    """Overlapping occurrences of the digit block v in the base-k expansion of n."""
    digits = []
    while n:
        n, d = divmod(n, k)
        digits.append(d)
    digits.reverse()
    return sum(1 for i in range(len(digits) - len(v) + 1) if tuple(digits[i : i + len(v)]) == v)


def root_of_unity(m: int, c: int) -> complex:
    """zeta_m^c as a complex number."""
    return cmath.exp(2j * math.pi * (c % m) / m)
