"""The dense polynomial layer: polynomials over Q and over cyclotomic fields, and matrices of them.

autorec computes with digit matrices and coefficient lists and forms no
polynomial.  These classes are the reference the tests compare it
against: M(x) and M-hat(x) as matrices of polynomials, their ordered
products of digit-substituted copies and truncations, Phi_n over Q, and
polynomial identities checked by evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from autorec.automaton import Dfao
from autorec.errors import AutorecError
from autorec.numberfield import (
    CycloElement,
    CycloField,
    _num,
    common_field,
    cyclotomic_int,
    power_atom,
    pretty_sum,
)
from autorec.polymatrix import LEFT, RIGHT, SpanAnalysis, _mat_mul, digit_cells


# ----------------------------------------------------------------------
# dense univariate polynomials


class _Poly:
    """Dense univariate polynomial: the arithmetic shared by RatPoly and CycloPoly.

    coeffs is a tuple, lowest degree first, with no trailing zero.  A
    subclass names its coefficient ring by four hooks: _coerce (one value),
    _zero, _new (its own kind from coefficients) and _lift (self and the
    other operand in one common kind, or None for NotImplemented).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(map(self._coerce, coeffs))
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._zero()

    def __eq__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        return pair[0].coeffs == pair[1].coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        a, b = pair[0].coeffs, pair[1].coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return pair[0]._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not a.coeffs or not b.coeffs:
            return a._new(())
        if len(b.coeffs) == 1:  # a scalar: no sums to form
            return a._new([x * b.coeffs[0] for x in a.coeffs])
        out = [a._zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return a._new(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; works for rationals and field elements."""
        acc = self._zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_power(self, e: int):
        """The polynomial p(x^e)."""
        if e < 1:
            raise ValueError("exponent must be >= 1")
        if not self.coeffs:
            return self
        out = [self._zero()] * (e * self.degree + 1)
        out[::e] = self.coeffs
        return self._new(out)

    def truncate(self, n: int):
        """Drop every term of degree >= n."""
        return self._new(self.coeffs[:n])

    def pretty(self, var: str = "x") -> str:
        return pretty_sum((c, power_atom(var, i)) for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({self.pretty()})"


class RatPoly(_Poly):
    """Polynomial over Q: its coefficients are ints, and Fractions where not integral.

    The ring operations are _Poly's; RatPoly adds exact long division.
    """

    __slots__ = ()

    @classmethod
    def monomial(cls, e: int, c=1) -> "RatPoly":
        return cls([0] * e + [c])

    @staticmethod
    def _coerce(c):
        return _num(c if isinstance(c, (int, Fraction)) else Fraction(c))

    @staticmethod
    def _zero():
        return 0

    @staticmethod
    def _new(coeffs) -> "RatPoly":
        return RatPoly(coeffs)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly([other])
        return (self, other) if isinstance(other, RatPoly) else None

    def __divmod__(self, other):
        """Exact polynomial division over Q: (quotient, remainder)."""
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        den = pair[1].coeffs
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(den) - 1
        inv = _num(1 / Fraction(den[-1]))  # an int for a monic divisor, so ints stay ints
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                lo = i - db
                f = quo[lo] = c * inv
                rem[lo : i + 1] = [x - f * y for x, y in zip(rem[lo : i + 1], den)]
        return RatPoly(quo), RatPoly(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]


def cyclotomic_poly(n: int) -> RatPoly:
    """The n-th cyclotomic polynomial Phi_n over Q."""
    return RatPoly(cyclotomic_int(n))


# ----------------------------------------------------------------------
# polynomials with cyclotomic coefficients


class CycloPoly(_Poly):
    """Polynomial over a cyclotomic field: its coefficients are CycloElements of .field.

    The ring operations are _Poly's.  An operand over another
    conductor is lifted with self into the compositum, so polynomials of
    equal value compare and hash equal across conductors.
    """

    __slots__ = ("field",)

    def __init__(self, field: CycloField, coeffs: Iterable = ()):
        self.field = field
        super().__init__(coeffs)

    @classmethod
    def monomial(cls, field: CycloField, e: int, c=1) -> "CycloPoly":
        return cls(field, [0] * e + [c])

    def _coerce(self, c) -> CycloElement:
        return self.field.coerce(c)

    def _zero(self) -> CycloElement:
        return self.field.zero()

    def _new(self, coeffs) -> "CycloPoly":
        return CycloPoly(self.field, coeffs)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloPoly(self.field, [other])
        elif isinstance(other, CycloElement):
            other = CycloPoly(other.field, [other])
        if not isinstance(other, CycloPoly):
            return None
        if other.field.conductor == self.field.conductor:
            return self, other
        big = common_field(self.field, other.field)
        return CycloPoly(big, self.coeffs), CycloPoly(big, other.coeffs)


# ----------------------------------------------------------------------
# matrices of polynomials


class PolyMatrix:
    """Square matrix of CycloPoly entries over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: CycloField, rows):
        rows = tuple(
            tuple(r if isinstance(r, CycloPoly) else CycloPoly(field, [r]) for r in row)
            for row in rows
        )
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise AutorecError("matrix must be square")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field: CycloField, n: int) -> "PolyMatrix":
        one = CycloPoly(field, [1])
        zero = CycloPoly(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> CycloPoly:
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise AutorecError("dimension mismatch")
        return PolyMatrix(self.field, _mat_mul(self.rows, other.rows, CycloPoly(self.field)))

    def substitute_power(self, e: int) -> "PolyMatrix":
        return PolyMatrix(
            self.field, [[p.substitute_power(e) for p in row] for row in self.rows]
        )

    def pretty(self, var: str = "x") -> str:
        cells = [[p.pretty(var) for p in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=0)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "conductor": self.field.conductor,
            "entries": [[p.pretty() for p in row] for row in self.rows],
        }

    def __repr__(self):
        return f"PolyMatrix(dim={self.dim})\n{self.pretty()}"


def power_product(m: PolyMatrix, k: int, t: int, side: str) -> PolyMatrix:
    """The ordered product encoding words of length t.

    Left ordering  M(k^t; x)   = M(x^(k^(t-1))) ... M(x^k) M(x)
    Right ordering M^R(k^t; x) = M(x) M(x^k) ... M(x^(k^(t-1)))
    t = 0 gives the identity.
    """
    if side not in (LEFT, RIGHT):
        raise AutorecError(f"side must be {LEFT!r} or {RIGHT!r}")
    if t < 0:
        raise AutorecError("t must be nonnegative")
    acc = PolyMatrix.identity(m.field, m.dim)
    for i in range(t):
        factor = m.substitute_power(k**i) if i else m
        acc = factor * acc if side == LEFT else acc * factor
    return acc


def truncate(m: PolyMatrix, n: int) -> PolyMatrix:
    """M(n; x): drop all terms of degree >= n from M(k^t; x).

    The caller passes the full product for the block length t that
    matches n, i.e. k^(t-1) + 1 <= n <= k^t; n = 1 goes with t = 0.
    """
    if n < 1:
        raise AutorecError("truncation length must be positive")
    return PolyMatrix(m.field, [[p.truncate(n) for p in row] for row in m.rows])


def transition_matrix(a: Dfao, span: Optional[SpanAnalysis] = None) -> PolyMatrix:
    """M(x), or M-hat(x) over the generators of span, filled from digit_cells."""
    field = a.output_field
    dim = a.size if span is None else len(span.generators)
    coeffs = [[[0] * a.base for _ in range(dim)] for _ in range(dim)]
    for i, j, d, c in digit_cells(a, span):
        coeffs[i][j][d] = c
    return PolyMatrix(field, [[CycloPoly(field, p) for p in row] for row in coeffs])
