"""Differential tests of the polynomial oracle and of cyclotomic_int against sympy, on hypothesis inputs.

poly_oracle's RatPoly arithmetic and division are compared with sympy's
Poly over QQ; cyclotomic_int and CycloField.reduce with sympy's
cyclotomic polynomials and remainders; CycloPoly's ring operations with
evaluation at field elements.  Every test draws its examples from a
fixed seed (derandomize), so a run is reproducible.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from autorec.numberfield import cyclo_field, cyclotomic_int, euler_phi  # noqa: E402
from poly_oracle import CycloPoly, RatPoly  # noqa: E402

X = sympy.Symbol("x")
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
rat_coeffs = st.lists(rationals, max_size=9)
exponents = st.integers(min_value=1, max_value=5)


def _to_sympy(coeffs) -> "sympy.Poly":
    """The sympy polynomial over QQ with the given coefficients, lowest first."""
    terms = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(terms or [0], X, domain="QQ")


def _from_sympy(poly) -> RatPoly:
    return RatPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _check_canonical(p: RatPoly):
    # ints where the value is integral, Fractions otherwise, no trailing zero
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@FIXED
@given(rat_coeffs, rat_coeffs)
def test_rat_poly_ring_operations_match_sympy(a, b):
    p, q = RatPoly(a), RatPoly(b)
    sp, sq = _to_sympy(a), _to_sympy(b)
    for got, want in ((p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq), (-p, -sp)):
        assert got == _from_sympy(want)
        _check_canonical(got)
    assert p.degree == (sp.degree() if not sp.is_zero else -1)


@FIXED
@given(rat_coeffs, rat_coeffs)
def test_rat_poly_division_matches_sympy(a, b):
    p, q = RatPoly(a), RatPoly(b)
    if not q.coeffs:
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    quo, rem = divmod(p, q)
    squo, srem = sympy.div(_to_sympy(a), _to_sympy(b))
    assert quo == _from_sympy(squo) and rem == _from_sympy(srem)
    assert p // q == quo and p % q == rem
    assert quo * q + rem == p and rem.degree < q.degree
    _check_canonical(quo)
    _check_canonical(rem)


@FIXED
@given(rat_coeffs, exponents, st.integers(min_value=0, max_value=10), rationals)
def test_rat_poly_substitute_truncate_and_evaluate_match_sympy(a, e, n, x):
    p, sp = RatPoly(a), _to_sympy(a)
    assert p.substitute_power(e) == _from_sympy(sp.compose(sympy.Poly(X**e, X, domain="QQ")))
    assert p.truncate(n) == _from_sympy(_to_sympy(a[:n]))
    want = sp.eval(sympy.Rational(x.numerator, x.denominator))
    assert p(x) == Fraction(int(want.p), int(want.q))
    assert all(p.coefficient(i) == (a[i] if 0 <= i < len(a) else 0) for i in range(-1, len(a) + 2))


@pytest.mark.parametrize("block", [range(1, 201), range(201, 401), (1155, 3003, 4095)])
def test_cyclotomic_int_matches_sympy(block):
    for n in block:
        want = sympy.cyclotomic_poly(n, X, polys=True).all_coeffs()[::-1]
        got = cyclotomic_int(n)
        assert list(got) == [int(c) for c in want], n
        assert all(type(c) is int for c in got), n


@FIXED
@given(
    st.sampled_from((1, 2, 3, 4, 6, 9, 12, 15, 20, 21, 30, 35)),
    st.lists(rationals, min_size=1, max_size=80),
)
def test_cyclo_field_reduce_matches_sympy_rem(n, coeffs):
    field = cyclo_field(n)
    got = field.reduce(coeffs)
    rem = sympy.rem(_to_sympy(coeffs), sympy.cyclotomic_poly(n, X, polys=True).set_domain("QQ"))
    want = list(_from_sympy(rem).coeffs)
    assert list(got) == want + [0] * (euler_phi(n) - len(want))
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in got)


small_ints = st.integers(min_value=-3, max_value=3)


def _element(field, ints):
    return field.element(ints[: field.conductor])


@FIXED
@given(
    st.sampled_from((1, 3, 4, 5, 12, 15)),
    st.lists(st.lists(small_ints, max_size=6), max_size=5),
    st.lists(st.lists(small_ints, max_size=6), max_size=5),
    st.lists(small_ints, max_size=6),
)
def test_cyclo_poly_ring_operations_commute_with_evaluation(n, a, b, zs):
    field = cyclo_field(n)
    p = CycloPoly(field, [_element(field, c) for c in a])
    q = CycloPoly(field, [_element(field, c) for c in b])
    z = _element(field, zs)
    assert (p * q)(z) == p(z) * q(z)
    assert (p + q)(z) == p(z) + q(z)
    assert (p - q)(z) == p(z) - q(z)
    assert all(type(c) is type(z) and c.field == field for c in (p * q).coeffs)


@FIXED
@given(st.lists(st.lists(small_ints, max_size=3), max_size=5))
def test_cyclo_poly_equal_across_conductors_and_hash_equal(a):
    f3, f15 = cyclo_field(3), cyclo_field(15)
    p = CycloPoly(f3, [f3.element(c) for c in a])
    lifted = CycloPoly(f15, p.coeffs)
    assert all(c.field == f15 for c in lifted.coeffs)
    assert p == lifted and lifted == p
    assert hash(p) == hash(lifted)
    assert p + 1 != lifted
    # a coefficient outside Q(zeta_3) tells them apart
    other = lifted + CycloPoly(f15, [f15.omega()])
    assert other != p and p != other
