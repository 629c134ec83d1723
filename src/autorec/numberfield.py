"""Exact arithmetic in cyclotomic fields.

An element of Q(w), w = exp(2*pi*i/n), is one vector of n integers on
w^0, ..., w^(n-1) over one positive denominator, in lowest terms and in
a canonical normal form: its coordinates on the integral basis of
Zumbroich (W. Bosma, "Canonical bases for cyclotomic fields", AAECC 1,
1990; GAP's basis for its cyclotomic numbers).  Normalizing costs
O(n * number of primes of n) and keeps integer vectors integral.
Equality and rationality are comparisons of ints, lifts and Galois maps
are index maps followed by a normalization, and a product is one
big-integer multiply folded mod x^n - 1, or, when one factor is
rational, a scaling of the other vector.  The inverse is the product of
the other Galois conjugates over the norm, built along a chain of
subgroups (CycloElement.inverse).  Power-basis coordinates on 1, w,
..., w^(phi(n)-1), by long division modulo Phi_n, are computed only for
pretty and coords.  Floating point enters only through complex_embed,
which exists for sanity checks and reports, never for decisions.

Elements of different conductors may be mixed freely; they are lifted to
the compositum Q(zeta_lcm) on demand.

There is no polynomial class: cyclotomic_int divides integer lists
exactly by a monic Phi_m, and CycloField.reduce divides in place by the
monic Phi_n.

Modulo a split prime p = 1 (mod n), Z[zeta_n] maps onto F_p in phi(n)
ways, which _embeddings inverts in closed form.  The one elimination of
the package, _certified_rref, runs over F_p (_rref_mod) and lifts by CRT
and rational reconstruction, proved exact by a height bound; it serves
span_analysis and _minimal_poly's derogatory fallback, and _rref_mod
alone serves _minimal_poly's non-derogatory test.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from fractions import Fraction
from typing import Iterable, Optional

from .errors import AutorecError


# ----------------------------------------------------------------------
# small integer helpers


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_prime_power(n: int) -> Optional[tuple[int, int]]:
    """Return (p, a) when n = p^a with a >= 1, otherwise None."""
    fac = factorize(n) if n > 1 else []
    if len(fac) == 1:
        return fac[0]
    return None


def multiplicative_order(k: int, n: int) -> int:
    """Least s >= 1 with k^s = 1 mod n.  Requires gcd(k, n) = 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(k, n) != 1:
        raise ValueError(f"gcd({k}, {n}) != 1, no multiplicative order")
    if n == 1:
        return 1
    # start from the Carmichael exponent lambda(n), which every unit's
    # order divides, and strip prime factors while the power stays 1
    s = math.lcm(*(2 ** (e - 2) if p == 2 and e > 2 else (p - 1) * p ** (e - 1)
                   for p, e in factorize(n)))
    k %= n
    for q, _ in factorize(s):
        while s % q == 0 and pow(k, s // q, n) == 1:
            s //= q
    return s


def coset_reps(k, n: int) -> list[int]:
    """Least positive representatives of (Z/nZ)^* modulo <k>, ascending; the first is 1.

    k is one generator or a tuple of them, each prime to n.  A coset is
    marked on a table of the units by walking the cycles of one generator
    after another; with -1 among them, each residue with its negative.
    """
    gens = (k,) if isinstance(k, int) else tuple(k)
    if any(math.gcd(g, n) != 1 for g in gens):
        raise ValueError(f"gcd({k}, {n}) != 1")
    if n <= 2:
        return [1]
    mirror = n if any(g % n == n - 1 for g in gens) else 0  # abs(mirror - w) is -w or w
    gens = [g for g in gens if g % n != n - 1]
    seen = bytearray(n)
    seen[0] = 1
    for q, _ in factorize(n):
        seen[q::q] = b"\x01" * ((n - 1) // q)
    reps = []
    u = seen.find(0)
    while u != -1:
        reps.append(u)
        seen[u] = seen[abs(mirror - u)] = 1
        orbit = [u]
        for g in gens:
            for v in orbit[:]:
                w = v * g % n
                while not seen[w]:
                    seen[w] = seen[abs(mirror - w)] = 1
                    orbit.append(w)
                    w = w * g % n
        u = seen.find(0, u)
    return reps


# Miller-Rabin with the first 12 primes as bases is deterministic below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic primality test for 2 <= n < _MR_BOUND."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_primes(r0: int, start: int = 0):
    """Yield (p, g): the primes p = 1 mod 2 r0 above start in increasing order, each
    with the least g = h^((p-1)/r0), h = 2, 3, ..., of exact order r0 mod p."""
    qs = [q for q, _ in factorize(r0)]
    for p in range((start // (2 * r0) + 1) * 2 * r0 + 1, _MR_BOUND, 2 * r0):
        if _is_prime(p):
            for h in range(2, p):
                g = pow(h, (p - 1) // r0, p)
                if all(pow(g, r0 // q, p) != 1 for q in qs):
                    yield p, g
                    break
    raise AutorecError(f"no prime certificate below {_MR_BOUND} at r0 = {r0}")


@functools.lru_cache(maxsize=256)
def _split_prime(r0: int, start: int = 1 << 61) -> tuple[int, int]:
    """The first (p, g) of _split_primes(r0, start); the 256 most recently asked for are kept.

    A caller that needs the next prime asks again from p.
    """
    return next(_split_primes(r0, start))


def _num(c):
    """Normalize a coefficient: Fractions with denominator 1 become ints."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


# ----------------------------------------------------------------------
# printing sums


def power_atom(var: str, i: int) -> str:
    """The atom of x^i in pretty_sum: "" for the constant term."""
    return "" if i == 0 else var if i == 1 else f"{var}^{i}"


def pretty_sum(terms: Iterable) -> str:
    """Human form of the sum of c * atom over (c, atom) pairs; the empty atom stands for 1.

    c is rational or a CycloElement.  Zero terms are skipped, signs of
    rational terms are pulled out, irrational ones are parenthesized, and
    the empty sum is "0".
    """
    parts = []
    for c, atom in terms:
        if isinstance(c, CycloElement) and not any(c.vec):
            continue
        q = c.rational_value() if isinstance(c, CycloElement) else c
        if q == 0:
            continue
        neg = q is not None and q < 0
        if q is None:
            coef = f"({c.pretty()})"
        else:
            coef = "" if abs(q) == 1 and atom else str(abs(q))
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + "*".join(filter(None, (coef, atom))))
    return " ".join(parts) or "0"


# ----------------------------------------------------------------------
# cyclotomic polynomials

def cyclotomic_int(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first.

    Built one prime at a time: Phi_1 = x - 1, then for a new prime p,
    Phi_(mp)(x) = Phi_m(x^p) / Phi_m(x), an exact long division by the
    monic Phi_m in integers; finally Phi_n(x) = Phi_rad(x^(n/rad)).  Much
    cheaper than dividing x^n - 1 by every proper divisor's factor when n
    has large prime parts.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    f = [-1, 1]
    rad = 1
    for p, _ in factorize(n):
        rad *= p
        rem, db = _stretch(f, p), len(f) - 1
        quo = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                lo = i - db
                quo[lo] = c
                rem[lo : i + 1] = [x - c * y for x, y in zip(rem[lo : i + 1], f)]
        assert not any(rem), "division was not exact"
        f = quo
    return tuple(_stretch(f, n // rad))


def _stretch(f: list, e: int) -> list:
    """The coefficients of f(x^e)."""
    out = [0] * (e * (len(f) - 1) + 1)
    out[::e] = f
    return out


# ----------------------------------------------------------------------
# the field


@functools.lru_cache(maxsize=256)
def cyclo_field(conductor: int) -> "CycloField":
    """Shared CycloField instance for the given conductor; the 256 most recently used are kept."""
    return CycloField(conductor)


def _relations(n: int) -> tuple:
    """(q, n/p, forbidden residues mod q) for each prime power q = p^a || n.

    w^j has the p-part zeta_q^t, t = j * (n/q)^(-1) mod q; it is forbidden
    when the top base-p digit of t is 0 (odd p) or 1 (p = 2).  The relation
    sum over c < p of w^(j + c n/p) = 0 runs that digit through all p
    values and fixes the other prime parts, so a forbidden coefficient is
    cleared by subtracting it at its p - 1 allowed partners.
    """
    out = []
    for p, a in factorize(n):
        q = p**a
        top = q // p
        unit = pow(n // q, -1, q)
        forbidden = 1 if p == 2 else 0
        residues = tuple(r for r in range(q) if (r * unit % q) // top == forbidden)
        out.append((q, n // p, residues))
    return tuple(out)


def _width(bound: int) -> int:
    """The fewest bytes of a signed slot that holds every integer of size at most bound."""
    return (bound.bit_length() + 8) // 8


# the fixed-size struct formats of signed slots of 1, 2, 4 and 8 bytes
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _top(width: int, n: int) -> int:
    """sum 2^(8 width j + 8 width - 1) over j < n: the sign bit of every slot."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * n, "little")


def _pack(v: list[int], width: int) -> int:
    """sum v[j] 2^(8 width j) for |v[j]| < 2^(8 width - 1): mod 2^(8 width n) - 1, v mod x^n - 1.

    Slots of 1, 2, 4 or 8 bytes are written as machine words by one
    struct.pack, in two's complement; slots of any other width are
    written one to_bytes call each.  With top the sign bit of every slot,
    (bytes ^ top) - top is the signed sum: the xor turns each two's
    complement slot x into x + 2^(8 width - 1), and no slot carries.
    """
    n = len(v)
    if width in _FORMATS:
        raw = struct.pack(f"<{n}{_FORMATS[width]}", *v)
    else:
        raw = b"".join([x.to_bytes(width, "little", signed=True) for x in v])
    top = _top(width, n)
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(r: int, width: int, n: int) -> list[int]:
    """The v of _pack(v, width) = r mod N = 2^(8 width n) - 1, 0 <= r < N: the packed sum is r or r - N.

    Adding top (the sign bit of every slot) to the packed sum makes each
    slot x into x + 2^(8 width - 1) without a carry, and the xor with top
    then leaves x in two's complement.  Slots of 1, 2, 4 or 8 bytes are
    read as machine words by one struct.unpack; slots of any other width
    are read one from_bytes call each.
    """
    full, top = (1 << 8 * width * n) - 1, _top(width, n)
    raw = ((r + top - (full if r > full >> 1 else 0)) ^ top).to_bytes(width * n, "little")
    if width in _FORMATS:
        return list(struct.unpack(f"<{n}{_FORMATS[width]}", raw))
    return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, width * n, width)]


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """a * b mod x^n - 1 for integer vectors of length n, by Kronecker substitution.

    A slot holds every entry and every cyclic coefficient, at most n max|a| max|b| in size.
    """
    n = len(a)
    ma, mb = max(map(abs, a)), max(map(abs, b))
    width = _width(max(ma, mb, n * ma * mb))
    full, prod = (1 << 8 * width * n) - 1, _pack(a, width) * _pack(b, width)
    return _unpack(((prod & full) + (prod >> 8 * width * n)) % full, width, n)


def _integral(vec) -> tuple[list[int], int]:
    """Integer numerators of a rational vector over their least common denominator."""
    den = math.lcm(*[x.denominator for x in vec])
    return [x.numerator * (den // x.denominator) for x in vec], den


def _over(vec, den: int) -> tuple:
    """The rational vector of integers vec over den."""
    return tuple(vec) if den == 1 else tuple([_num(Fraction(x, den)) for x in vec])


def _lowest(field: "CycloField", vec, den: int) -> "CycloElement":
    """The element vec / den of field, for an integer normal form vec, in lowest terms with den > 0."""
    if den != 1:
        g = math.gcd(den, *vec) if den > 0 else -math.gcd(den, *vec)
        if g != 1:
            vec, den = [x // g for x in vec], den // g
    return CycloElement(field, tuple(vec), den)


class CycloField:
    """Q(zeta_n); elements are integer normal-form vectors on w^0, ..., w^(n-1) over a denominator."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        self.conductor = conductor
        self.phi = euler_phi(conductor)
        self._relations = _relations(conductor)
        one = [0] * conductor
        one[0] = 1
        # the normal form of 1, a product of its prime-power parts: one sign on a fixed support
        self._one = self._normal(one)
        support = [j for j, x in enumerate(self._one) if x]
        self._lead, self._zeros = support[0], conductor - len(support)
        # the support's slots, the first one twice so that even one slot gives a tuple
        self._on_support = operator.itemgetter(*support, support[0])
        self._support_run = len(support) + 1

    @functools.cached_property
    def modulus_int(self) -> tuple[int, ...]:
        return cyclotomic_int(self.conductor)

    @functools.cached_property
    def _chain(self) -> list[tuple[GaloisMap, int]]:
        """Steps (sigma_g, o): g the least unit outside H, the group of the steps before, o = [<H, g> : H]."""
        n, group, chain = self.conductor, {1}, []
        for g in range(2, n):
            if math.gcd(g, n) == 1 and g not in group:
                o = next(i for i in range(2, n) if pow(g, i, n) in group)
                group = {h * pow(g, i, n) % n for h in group for i in range(o)}
                chain.append((GaloisMap(self, g), o))
        return chain

    def __repr__(self):
        return f"CycloField({self.conductor})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("CycloField", self.conductor))

    def _normal(self, v: list) -> tuple:
        """Normal form of sum v[j] w^j, for a list of length n that is overwritten."""
        n = self.conductor
        for q, h, residues in self._relations:
            for r in residues:
                for j in range(r, n, q):
                    x = v[j]
                    if x:
                        v[j] = 0
                        for t in range(j + h, j + n, h):
                            v[t % n] -= x
        return tuple(v)

    def reduce(self, coeffs: Iterable) -> tuple:
        """Power-basis coordinates of sum c_j w^j: one long division by the monic Phi_n, in place."""
        phi = self.phi
        low = [(j, c) for j, c in enumerate(self.modulus_int[:phi]) if c]  # Phi_n - x^phi, sparse
        rem, den = _integral(list(coeffs))
        rem += [0] * (phi - len(rem))
        for i in range(len(rem) - 1, phi - 1, -1):
            x = rem[i]
            if x:
                lo = i - phi
                for j, c in low:
                    rem[lo + j] -= c * x
        return _over(rem[:phi], den)

    # -- constructors

    def element(self, coeffs: Iterable) -> "CycloElement":
        """Element with the given coefficients over powers of w (any length)."""
        n = self.conductor
        v = [0] * n
        coeffs, den = _integral(list(coeffs))
        for i, c in enumerate(coeffs):
            if c:
                v[i % n] += c
        return _lowest(self, self._normal(v), den)

    def zero(self) -> "CycloElement":
        return CycloElement(self, (0,) * self.conductor)

    def one(self) -> "CycloElement":
        return CycloElement(self, self._one)

    def from_rational(self, q) -> "CycloElement":
        q = Fraction(q)
        return self.one()._scale(q.numerator, q.denominator)

    def _rational(self, vec: tuple) -> Optional[int]:
        """q when the tuple vec is q times the normal form of 1, else None.

        q is read at the first slot of the support of 1, where 1 has +-1.
        For q = 1 the tuples are compared whole; for another q != 0, vec
        is rational when it has as many zeros as 1 and one value on every
        slot of that support, which, nonzero, is then its whole support.
        """
        x = vec[self._lead]
        q = x * self._one[self._lead]
        if q == 1:
            hit = vec == self._one
        elif q:
            hit = vec.count(0) == self._zeros and self._on_support(vec) == (x,) * self._support_run
        else:
            hit = not any(vec)
        return q if hit else None

    def omega(self) -> "CycloElement":
        return self.omega_power(1)

    def omega_power(self, j: int) -> "CycloElement":
        return self.element([0] * (j % self.conductor) + [1])

    def coerce(self, v) -> "CycloElement":
        if isinstance(v, CycloElement):
            small = v.field.conductor
            if small == self.conductor:
                return v
            if self.conductor % small == 0:
                # zeta_small = w^(n/small): the vector spreads onto every (n/small)-th place
                out = [0] * self.conductor
                out[:: self.conductor // small] = v.vec
                return CycloElement(self, self._normal(out), v.den)
            raise ValueError(f"cannot coerce conductor {small} into {self.conductor}")
        if isinstance(v, (int, Fraction)):
            return self.from_rational(v)
        raise TypeError(f"cannot coerce {type(v).__name__} into {self!r}")


def common_field(f1: CycloField, f2: CycloField) -> CycloField:
    """The compositum Q(zeta_lcm) of two cyclotomic fields."""
    return cyclo_field(math.lcm(f1.conductor, f2.conductor))


class CycloElement:
    """An element of Q(zeta_n): its integer normal-form vector on w^0, ..., w^(n-1) over den.

    den > 0 and gcd(den, *vec) = 1, so the pair is canonical and equality
    compares (vec, den).
    """

    __slots__ = ("field", "vec", "den")

    def __init__(self, field: CycloField, vec: tuple, den: int = 1):
        if len(vec) != field.conductor:
            raise ValueError("vector length does not match the conductor")
        self.field = field
        self.vec = vec
        self.den = den

    @property
    def coords(self) -> tuple:
        """Power-basis coordinates on 1, w, ..., w^(phi-1)."""
        return _over(self.field.reduce(self.vec), self.den)

    # -- coercion

    def _pair(self, other):
        if isinstance(other, CycloElement):
            if other.field.conductor == self.field.conductor:
                return self, other
            big = common_field(self.field, other.field)
            return big.coerce(self), big.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, self.field.from_rational(other)
        return None

    # -- ring operations

    def _sum(self, other, sign: int):
        """self + sign * other over the common denominator."""
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = math.lcm(a.den, b.den)
        s, t = den // a.den, sign * den // b.den
        return _lowest(a.field, [s * x + t * y for x, y in zip(a.vec, b.vec)], den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, tuple([-x for x in self.vec]), self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, num: int, den: int) -> "CycloElement":
        """self * num / den for ints num and den != 0."""
        if num == den:
            return self
        return _lowest(self.field, [x * num for x in self.vec], self.den * den)

    def __mul__(self, other):
        """One cyclic product over the product of the denominators, or, by a rational, a scaling."""
        if isinstance(other, CycloElement):
            a, b = self._pair(other)
            for x, y in ((a, b), (b, a)):
                q = a.field._rational(y.vec)
                if q is not None:
                    return x._scale(q, y.den)
            return _lowest(a.field, a.field._normal(_kronecker(a.vec, b.vec)), a.den * b.den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloElement":
        """The product of the other Galois conjugates of self over its norm.

        Along the field's chain of steps (sigma_g, o), b = N_H(self) and
        conj = b / self are kept for the group H of the steps so far; both
        are multiplied by sigma_g(b) sigma_g^2(b) ... sigma_g^(o-1)(b),
        which makes b the norm to the fixed field of <H, g>.  After the
        last step H is the whole Galois group and b is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        q = self.rational_value()
        if q is not None:
            return self.field.from_rational(1 / q)
        b, conj = self, self.field.one()
        for sigma, o in self.field._chain:
            ps = [sigma(b)]
            for _ in range(o - 2):
                ps.append(sigma(ps[-1]))
            while len(ps) > 1:  # in pairs, so that factors of one size meet
                ps = [x * y for x, y in zip(ps[::2], ps[1::2])] + ps[len(ps) & ~1 :]
            b, conj = b * ps[0], conj * ps[0]
        return conj / b.rational_value()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self._scale(other.denominator, other.numerator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        acc = self.field.one()
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    # -- predicates

    def __eq__(self, other):
        if isinstance(other, CycloElement):
            a, b = self._pair(other)
            return a.vec == b.vec and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return self.is_zero() if other == 0 else self.rational_value() == other
        return NotImplemented

    def __hash__(self):
        n, vec = self._minimal()
        return hash(Fraction(vec[0], self.den)) if n == 1 else hash((n, vec, self.den))

    def _minimal(self) -> tuple[int, tuple]:
        """(d, v): the least d with self in Q(zeta_d), and the normal form v there.

        The candidate in Q(zeta_(n/p)) sits on the positions p*i, or, for
        odd p || n where those are forbidden, negated on p*i + n/p; it is
        taken when it lifts back to the vector.
        """
        n, v = self.field.conductor, self.vec
        descended = True
        while descended:
            descended = False
            for p, a in factorize(n):
                m = n // p
                sign, start = (-1, m) if p > 2 and a == 1 else (1, 0)
                small = cyclo_field(m)
                w = small._normal([sign * v[(start + p * i) % n] for i in range(m)])
                if cyclo_field(n).coerce(CycloElement(small, w)).vec == v:
                    n, v, descended = m, w, True
                    break
        return n, v

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __bool__(self):
        return any(self.vec)

    def rational_value(self) -> Optional[Fraction]:
        q = self.field._rational(self.vec)
        return None if q is None else Fraction(q, self.den)

    def conjugate(self) -> "CycloElement":
        """Complex conjugation, i.e. the Galois map w -> w^(-1)."""
        return GaloisMap(self.field, -1)(self)

    def pretty(self, var: str = "w") -> str:
        return pretty_sum((c, power_atom(var, i)) for i, c in enumerate(self.coords))

    def __repr__(self):
        return f"<{self.pretty()} in Q(zeta_{self.field.conductor})>"


class GaloisMap:
    """The automorphism psi_m of Q(zeta_n) with psi_m(w) = w^m, gcd(m, n) = 1."""

    def __init__(self, field: CycloField, m: int):
        self.field = field
        if math.gcd(m, field.conductor) != 1:
            raise ValueError(f"gcd({m}, {field.conductor}) != 1: not an automorphism")
        self.m = m % field.conductor if field.conductor > 1 else 0

    def __call__(self, a: CycloElement) -> CycloElement:
        fld = self.field
        a = fld.coerce(a)
        n = fld.conductor
        out = [0] * n
        for j, c in enumerate(a.vec):
            out[j * self.m % n] = c
        return CycloElement(fld, fld._normal(out), a.den)

    def __repr__(self):
        return f"GaloisMap(w -> w^{self.m} on Q(zeta_{self.field.conductor}))"


def root_of_unity(order: int, e: int) -> CycloElement:
    """zeta_order^e in the smallest field that holds it; +-1 are rational."""
    red = order // math.gcd(order, e)
    if red <= 2:
        return cyclo_field(1).from_rational(-1 if red == 2 else 1)
    return cyclo_field(red).omega_power(e // (order // red))


# ----------------------------------------------------------------------
# numeric embedding


def complex_embed(a: CycloElement, digits: int = 15) -> mpmath.mpc:
    """Numeric value of a under w -> exp(2*pi*i/n), at the given precision.

    For sanity checks and reports only; mpmath is imported on the first call.
    """
    import mpmath

    with mpmath.workdps(digits):
        n = a.field.conductor
        w = mpmath.e ** (2j * mpmath.pi / n)
        acc = mpmath.mpc(0)
        for c in reversed(a.vec):
            acc = acc * w + c
        return acc / a.den


# ----------------------------------------------------------------------
# linear algebra modulo split primes
#
# _certified_rref serves span_analysis and _minimal_poly's derogatory
# fallback; _minimal_poly's non-derogatory test eliminates over one F_p.


def _rref_mod(a: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination in place of rows of residues mod p on their first ncols columns; the pivot columns in order.

    Pivot rows are scaled to 1 and moved to the top, and every other row
    is zero in each pivot column.  So a non-pivot column c holds its
    coefficients over the pivot columns left of it: entry (i, c) goes
    with the i-th pivot column.
    """
    m = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, m) if a[i][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = pow(a[row][col], -1, p)
        a[row][col:] = prow = [c * inv % p for c in a[row][col:]]
        for i in range(m):
            f = a[i][col]
            if f and i != row:
                a[i][col:] = [(c - f * d) % p for c, d in zip(a[i][col:], prow)]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def _geometric(x: int, n: int, p: int) -> list[int]:
    """[1, x, ..., x^(n-1)] mod p."""
    out = [1] * n
    for j in range(1, n):
        out[j] = out[j - 1] * x % p
    return out


@functools.lru_cache(maxsize=256)
def _embeddings(n: int, p: int, g: int) -> tuple:
    """The phi(n) maps zeta_n -> g^t of Z[zeta_n] onto F_p, t a unit mod n, for g of order n mod p.

    Returns (roots, basis, inverse).  roots lists the images g^t mod p of
    zeta_n, one per unit t in increasing order; the image of an integer
    normal-form vector v is the sum over j of v[j] g^(t j), so a caller
    builds the row _geometric(g^t, n, p) of a map when it needs one.
    basis lists the positions of the normal-form basis, the j with j mod q
    outside every relation's residues.  inverse, phi x phi mod p, takes
    the images x_t of c to c's coordinates on basis: n^(-1) sum over t of
    x_t (g^(-t j))_j is c E, E the idempotent of Phi_n in F_p[x]/(x^n - 1)
    (1 at every primitive n-th root, 0 at the others), and c E = c mod
    Phi_n, so column t is the normal form of n^(-1) (g^(-t j))_j on basis.
    """
    field = cyclo_field(n)
    units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
    basis = [j for j in range(n) if all(j % q not in residues for q, _, residues in field._relations)]
    scale = pow(n, -1, p)
    cols = [field._normal([x * scale for x in _geometric(pow(g, -t, p), n, p)]) for t in units]
    return [pow(g, t, p) for t in units], basis, [[col[j] % p for col in cols] for j in basis]


def _reconstruct(x: int, m: int) -> Optional[tuple[int, int]]:
    """(a, b) with a = b x mod m, |a| and 0 < b at most sqrt(m/2) and gcd(b, m) = 1, or None when none exists.

    Such a fraction a/b is unique for m > 2.  The half extended Euclidean
    algorithm on (m, x) stops at the first remainder at most sqrt(m/2),
    which is a, with its cofactor b (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982).
    """
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(t1, m) != 1:
        return None
    return r1, t1


def _certified_rref(field: CycloField, outs: list, rows: list) -> tuple[list[int], list[list]]:
    """(pivots, coeffs) of the matrix whose entries are outs[i], (vector, denominator) pairs, for the indices i in rows.

    pivots are its pivot columns, and coeffs[c] holds the coefficients of
    column c over them: zero on the pivots right of c, and a unit vector
    for a pivot column.

    Let m be the conductor of field, K = Q(zeta_m) and T the lcm of the
    denominators of outs.  Each split prime p = 1 (mod 2m) above 2^61
    that does not divide T gives phi(m) ring maps zeta_m -> g^t onto F_p,
    one per unit t mod m.  Each distinct entry is mapped once per map,
    and the matrix is eliminated once per map (_rref_mod).  Columns
    independent mod p are independent over K.  A prime whose maps
    disagree on the pivots is dropped; of two primes with different
    pivots, the one whose pivot list has the larger prefix ranks is kept
    and the other is dropped.  Each coefficient is rebuilt from its
    phi(m) images as normal-form coordinates mod p, combined by CRT over
    the product M of the primes kept, and rationally reconstructed.

    The certificate: let D be the lcm of the denominators of the
    coefficients alpha_b of a non-pivot column c.  In each row u, with
    u_b its entry in column b, the residual
    D T (sum over b of alpha_b u_b - u_c) lies in Z[zeta_m] and
    vanishes at every map modulo every prime kept, so M divides its
    normal-form coordinates.  They are at most
    s (sum over b of ||D alpha_b||_1 + D) max over o in outs of ||T o||_1,
    s = 1 the largest coordinate of the normal form of any power of
    zeta_m: each prime power q || m clears a forbidden top digit into its
    p - 1 partners (one for p = 2) with sign -1, and different primes
    move disjoint CRT components.
    When that bound is below M/2 every residual is zero, so c lies in the
    span of the pivots left of it with these coefficients; otherwise the
    next prime is taken, and only finitely many primes are unlucky.  So
    the pivots, the rank and the coefficients are exact; none is taken
    from a prime on trust.

    The cost per prime is phi(m) eliminations of O(rank * rows * cols)
    operations in F_p, plus phi(m)^2 operations per coefficient for its
    coordinates.  No field element is multiplied or inverted.
    """
    n, ncols = field.conductor, len(rows[0])
    den = math.lcm(*(b for _, b in outs))
    height = max(sum(map(abs, v)) * (den // b) for v, b in outs)  # max over o of ||T o||_1
    best, modulus, got, p = None, 1, None, 1 << 61
    while True:
        p, g = _split_prime(n, p)
        if den % p == 0:
            continue
        roots, basis, inverse = _embeddings(n, p, g)
        dinv = [pow(b, -1, p) for _, b in outs]
        runs = []
        for pw in (_geometric(x, n, p) for x in roots):
            img = [sum(map(operator.mul, v, pw)) * x % p for (v, _), x in zip(outs, dinv)]
            m = [[img[i] for i in row] for row in rows]
            runs.append((_rref_mod(m, ncols, p), m))
        pivots = runs[0][0]
        if any(other != pivots for other, _ in runs):
            continue
        # no prime's prefix ranks exceed the true ones, so the true pivot list has the least key
        key = pivots + [ncols]
        if best is not None and key > best:
            continue
        if key != best:
            best, modulus, got = key, 1, None
        free = [c for c in range(ncols) if c not in pivots]
        rank = len(pivots)
        # the phi images of the coefficient of each free column c on each pivot i, and its coordinates mod p
        images = [[m[i][c] for _, m in runs] for c in free for i in range(rank)]
        res = [sum(map(operator.mul, row, v)) % p for v in images for row in inverse]
        inv = pow(modulus, -1, p)
        got = res if got is None else [x + modulus * ((y - x) * inv % p) for x, y in zip(got, res)]
        modulus *= p
        fracs = [_reconstruct(x, modulus) for x in got]
        if None in fracs:
            continue
        phi = len(basis)
        lifted = [fracs[k * rank * phi : (k + 1) * rank * phi] for k in range(len(free))]
        if all(_certified(col, height, modulus) for col in lifted):
            break
    one, zero = field.one(), field.zero()
    coeffs = [None] * ncols
    for t, c in enumerate(pivots):
        coeffs[c] = [one if i == t else zero for i in range(rank)]
    for c, col in zip(free, lifted):
        coeffs[c] = [_element(field, basis, col[i * phi : (i + 1) * phi]) for i in range(rank)]
    return pivots, coeffs


def _certified(col: list, height: int, modulus: int) -> bool:
    """Whether the height bound of _certified_rref, for the (numerator, denominator) pairs col of one column, is below modulus / 2."""
    lcm = math.lcm(*(b for _, b in col))
    return 2 * (sum(abs(x) * (lcm // b) for x, b in col) + lcm) * height < modulus


def _element(field: CycloField, basis: list, coords: list) -> CycloElement:
    """The element with the rational coordinates coords, (numerator, denominator) pairs, on the normal-form basis."""
    if not any(x for x, _ in coords):
        return field.zero()
    lcm = math.lcm(*(b for _, b in coords))
    vec = [0] * field.conductor
    for j, (x, b) in zip(basis, coords):
        vec[j] = x * (lcm // b)
    return _lowest(field, vec, lcm)
