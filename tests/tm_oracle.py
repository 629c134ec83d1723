"""The Thue-Morse partial-sum polynomials T(n; x) and the coefficient T(2^s0; w) at any exponent.

autorec classifies T(2^s0; w) at w = zeta_r0 (thuemorse.tm_classify) and
never forms T(n; x) itself.  These helpers are the reference the tests
compare it against: the terms and coefficient lists of T(n; x), the four
classical identities checked on them, and T(2^s0; w) at w = zeta_r0^e.
"""

from __future__ import annotations

import math

from autorec.errors import AutorecError
from autorec.numberfield import CycloElement, _stretch, cyclo_field
from autorec.thuemorse import _tm_cyclic


def tm_term(m: int) -> int:
    """(-1)^(number of ones in the binary expansion of m)."""
    return -1 if bin(m).count("1") % 2 else 1


def tm_poly(n: int) -> tuple[int, ...]:
    """The coefficients of T(n; x), lowest degree first."""
    return tuple(tm_term(m) for m in range(n))


def _int_mul(a, b) -> tuple[int, ...]:
    """The coefficients of the product of two integer polynomials, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def tm_identities_check(n_max: int, s_max: int) -> bool:
    """Verify the four classical T(n; x) identities exactly, on integer coefficient lists.

    (i)   T(2n; x) = (1 - x) T(n; x^2)
    (ii)  T(2^s; x) = product of (1 - x^(2^i)) over i < s
    (iii) T(2^s n; x) = T(n; x^(2^s)) T(2^s; x)
    (iv)  x^(2^s - 1) T(2^s; 1/x) = (-1)^s T(2^s; x)

    Returns True; a failure (impossible unless the code is wrong) raises
    with the identity label and the offending (n, s).
    """
    for n in range(1, n_max + 1):
        if tm_poly(2 * n) != _int_mul((1, -1), _stretch(tm_poly(n), 2)):
            raise AutorecError(f"identity (i) fails at n = {n}")
    for s in range(s_max + 1):
        t = tm_poly(2 ** s)
        prod = (1,)
        for i in range(s):
            prod = _int_mul(prod, (1,) + (0,) * (2 ** i - 1) + (-1,))
        if t != prod:
            raise AutorecError(f"identity (ii) fails at s = {s}")
        if t[::-1] != (t if s % 2 == 0 else tuple(-c for c in t)):
            raise AutorecError(f"identity (iv) fails at s = {s}")
        for n in range(1, n_max + 1):
            lhs = tm_poly(2 ** s * n)
            rhs = _int_mul(_stretch(tm_poly(n), 2 ** s), t)
            if lhs != rhs:
                raise AutorecError(f"identity (iii) fails at n = {n}, s = {s}")
    return True


def tm_coefficient(r0: int, e: int = 1) -> CycloElement:
    """T(2^s0; w) for w = zeta_r0^e, with s0 the order of 2 mod cond(w).

    The product is accumulated modulo x^r0 - 1 (one shift-and-subtract
    per factor) and brought into normal form at the end.
    The pair (r0, e) is normalized to the actual conductor first, so
    gcd(e, r0) > 1 is allowed; e = 0 gives T(2; 1) = 0.
    """
    if r0 < 3 or r0 % 2 == 0:
        raise AutorecError("conductor must be odd and at least 3")
    e %= r0
    if e == 0:
        return cyclo_field(1).zero()
    g = math.gcd(e, r0)
    return cyclo_field(r0 // g).element(_tm_cyclic(r0 // g, e // g))
