"""Exact cyclotomic arithmetic: axioms, Galois action, numeric embedding."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from autorec import numberfield
from autorec.numberfield import (
    CycloField,
    GaloisMap,
    _embeddings,
    _geometric,
    _kronecker,
    _num,
    _pack,
    _split_prime,
    _unpack,
    _width,
    complex_embed,
    coset_reps,
    cyclo_field,
    cyclotomic_int,
    euler_phi,
    factorize,
    is_prime_power,
    multiplicative_order,
)
from conftest import divisors, embeddings_by_elimination, galois_apply, gaussian_period, nullspace, random_element, solve_exact
from poly_oracle import RatPoly, cyclotomic_poly

CONDUCTORS = (3, 5, 7, 9, 15, 21, 33)
EMBED_TOL = mpmath.mpf("1e-9")


# ----------------------------------------------------------------------
# integer utilities


def test_factorize_small():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(2 * 3 * 5 * 7 * 11) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]


def test_euler_phi_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        a = rng.randint(1, 200)
        b = rng.randint(1, 200)
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_divisors_and_prime_powers():
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(1) is None
    assert is_prime_power(45) is None
    assert is_prime_power(5) == (5, 1)


def test_multiplicative_order_matches_definition():
    for n in (3, 5, 7, 9, 15, 21, 33, 63, 65):
        d = multiplicative_order(2, n)
        assert pow(2, d, n) == 1
        for t in range(1, d):
            assert pow(2, t, n) != 1


def test_multiplicative_order_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for n in range(2, 5000):
        for k in (2, 3, -1, n - 1, n + 2, rng.randrange(-3 * n, 3 * n)):
            if math.gcd(k, n) == 1:
                assert multiplicative_order(k, n) == sympy.n_order(k % n, n), (k, n)
    for k, n in ((2, 0), (2, -3), (6, 9), (0, 5)):
        with pytest.raises(ValueError):
            multiplicative_order(k, n)


def test_coset_reps_partition_units():
    for n in CONDUCTORS:
        reps = coset_reps(2, n)
        s0 = multiplicative_order(2, n)
        units = {u for u in range(1, n) if math.gcd(u, n) == 1}
        seen = set()
        for u in reps:
            orbit = {u * pow(2, i, n) % n for i in range(s0)}
            assert not orbit & seen
            seen |= orbit
        assert seen == units
        assert reps[0] == 1
        assert reps == sorted(reps)


# ----------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_poly_known_values():
    assert list(cyclotomic_int(1)) == [-1, 1]
    assert list(cyclotomic_int(2)) == [1, 1]
    assert list(cyclotomic_int(3)) == [1, 1, 1]
    assert list(cyclotomic_int(9)) == [1, 0, 0, 1, 0, 0, 1]
    assert list(cyclotomic_int(15)) == [1, -1, 0, 1, -1, 1, 0, -1, 1]
    # 105 is the first conductor with a coefficient of magnitude 2
    assert min(cyclotomic_int(105)) == -2


def test_cyclotomic_product_formula():
    # prod over d | n of Phi_d(x) = x^n - 1, exactly, for n <= 200
    for n in range(1, 201):
        prod = RatPoly([1])
        for d in divisors(n):
            prod = prod * cyclotomic_poly(d)
        expected = RatPoly.monomial(n) - RatPoly([1])
        assert prod == expected, n


def test_cyclotomic_poly_monic_of_degree_phi():
    for n in (1, 2, 6, 12, 30, 128, 200):
        p = cyclotomic_poly(n)
        assert p.degree == euler_phi(n)
        assert p.coefficient(p.degree) == 1


@pytest.mark.parametrize("block", [range(1, 200), range(200, 400), (3003,)])
def test_reduce_matches_the_rat_poly_remainder(block):
    # reduce divides in place; RatPoly's long division is the reference, and
    # as the remainder is linear, that of v / den is the one of v over den
    rng = random.Random(block[0])
    for n in block:
        f = CycloField(n)
        v = [rng.randint(-9, 9) for _ in range(n)]
        rem = (RatPoly(v) % cyclotomic_poly(n)).coeffs
        rem += (0,) * (f.phi - len(rem))
        den = rng.randint(2, 6)
        for got, want in (
            (f.reduce(v), rem),
            (f.reduce([Fraction(x, den) for x in v]), tuple(_num(Fraction(x, den)) for x in rem)),
        ):
            assert got == want and list(map(type, got)) == list(map(type, want)), n


def test_field_cache_is_bounded():
    for n in range(2000, 2300):
        cyclo_field(n)
    assert cyclo_field.cache_info().currsize <= 256
    assert cyclo_field(2299) is cyclo_field(2299)


# ----------------------------------------------------------------------
# field axioms (randomized, exact)


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_field_axioms_randomized(conductor):
    field = cyclo_field(conductor)
    rng = random.Random(1000 + conductor)
    for _ in range(100):
        a = random_element(field, rng)
        b = random_element(field, rng)
        c = random_element(field, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero() == a
        assert a * field.one() == a
        assert (a - a).is_zero()


@pytest.mark.parametrize("conductor", CONDUCTORS + (105, 273))
def test_inverse_randomized(conductor):
    field = cyclo_field(conductor)
    rng = random.Random(2000 + conductor)
    done = 0
    while done < (100 if conductor < 100 else 3):
        a = random_element(field, rng)
        if a.is_zero():
            continue
        assert (a.inverse() * a) == field.one()
        done += 1


def test_inverse_of_zero_rejected():
    field = cyclo_field(7)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        field.one() / field.zero()


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_omega_has_exact_order(conductor):
    field = cyclo_field(conductor)
    w = field.omega()
    p = field.one()
    for j in range(1, conductor):
        p = p * w
        assert not p == field.one(), (conductor, j)
    assert p * w == field.one()


# ----------------------------------------------------------------------
# numeric embedding (the only approximate check in the suite)


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_embed_is_a_ring_homomorphism(conductor):
    field = cyclo_field(conductor)
    rng = random.Random(3000 + conductor)
    for _ in range(100):
        a = random_element(field, rng)
        b = random_element(field, rng)
        ea, eb = complex_embed(a), complex_embed(b)
        assert abs(complex_embed(a + b) - (ea + eb)) < EMBED_TOL
        assert abs(complex_embed(a * b) - ea * eb) < EMBED_TOL


def test_embed_of_omega_is_primitive_root():
    for conductor in CONDUCTORS:
        w = complex_embed(cyclo_field(conductor).omega())
        target = mpmath.exp(2j * mpmath.pi / conductor)
        assert abs(w - target) < EMBED_TOL


# ----------------------------------------------------------------------
# Galois action


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_galois_homomorphism_randomized(conductor):
    field = cyclo_field(conductor)
    rng = random.Random(4000 + conductor)
    units = [m for m in range(1, conductor) if math.gcd(m, conductor) == 1]
    for _ in range(100):
        m = rng.choice(units)
        a = random_element(field, rng)
        b = random_element(field, rng)
        assert galois_apply(a + b, m) == galois_apply(a, m) + galois_apply(b, m)
        assert galois_apply(a * b, m) == galois_apply(a, m) * galois_apply(b, m)
        q = field.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        assert galois_apply(q, m) == q


def test_galois_composition_law():
    field = cyclo_field(15)
    rng = random.Random(77)
    units = [m for m in range(1, 15) if math.gcd(m, 15) == 1]
    for _ in range(60):
        a_m, b_m = rng.choice(units), rng.choice(units)
        x = random_element(field, rng)
        lhs = galois_apply(galois_apply(x, b_m), a_m)
        assert lhs == galois_apply(x, a_m * b_m % 15)


def test_galois_conjugate_is_inverse_exponent():
    field = cyclo_field(9)
    w = field.omega()
    assert w.conjugate() == galois_apply(w, -1)
    assert (w * w.conjugate()).rational_value() == 1


def test_galois_requires_unit_exponent():
    field = cyclo_field(9)
    with pytest.raises(ValueError):
        GaloisMap(field, 3)


def test_rationality_stable_under_galois():
    field = cyclo_field(21)
    rng = random.Random(5)
    for _ in range(100):
        # a Galois map fixes Q and takes an irrational value to an irrational one
        a = random_element(field, rng)
        q = field.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for x in (a, q):
            assert galois_apply(x, 2).rational_value() == x.rational_value()


def test_equal_values_hash_equal_across_conductors():
    a = cyclo_field(3).omega()
    b = cyclo_field(6).omega_power(2)
    c = cyclo_field(15).omega_power(5)
    assert a == b == c
    assert len({a, b, c}) == 1
    # rationals hash as their value, in any field
    q = Fraction(-3, 4)
    assert hash(cyclo_field(35).from_rational(q)) == hash(q)
    assert len({cyclo_field(12).from_rational(q), q}) == 1
    # conductors 2 mod 4 fold onto n / 2
    assert hash(cyclo_field(10).omega_power(4)) == hash(cyclo_field(5).omega_power(2))
    # a value from Q(zeta_9) lifted into Q(zeta_45) and Q(zeta_36)
    x = cyclo_field(9).element([1, 0, -2, 5, 0, 0, 1])
    assert hash(x) == hash(cyclo_field(45).coerce(x)) == hash(cyclo_field(36).coerce(x))


# ----------------------------------------------------------------------
# rationality, periods, conversions


def test_rationality_kinds():
    field = cyclo_field(7)
    five = field.from_rational(5).rational_value()
    assert five == 5 and five.denominator == 1
    assert field.from_rational(Fraction(1, 2)).rational_value() == Fraction(1, 2)
    assert field.omega().rational_value() is None
    z = field.omega() - field.omega()
    assert z.rational_value() == field.zero().rational_value() == 0


def test_gaussian_periods_conductor_seven():
    # eta_0 = w + w^2 + w^4 and eta_1 = w^3 + w^5 + w^6 satisfy
    # eta_0 + eta_1 = -1 and eta_0 * eta_1 = 2, so both are roots of
    # y^2 + y + 2; this pins the pair down exactly.
    field = cyclo_field(7)
    e0 = gaussian_period(field, 2, 1)
    e1 = gaussian_period(field, 2, 3)
    assert (e0 + e1).rational_value() == -1
    assert (e0 * e1).rational_value() == 2
    assert galois_apply(e0, 2) == e0
    assert galois_apply(e0, 3) == e1


def test_gaussian_periods_are_galois_orbit_sums():
    field = cyclo_field(15)
    w = field.omega()
    e = gaussian_period(field, 2, 1)
    s0 = multiplicative_order(2, 15)
    acc = field.zero()
    p = Fraction(1)
    exp = 1
    for _ in range(s0):
        acc = acc + field.omega_power(exp)
        exp = exp * 2 % 15
    assert e == acc


def test_element_pretty_round_trip_examples():
    field = cyclo_field(3)
    w = field.omega()
    assert (w * w).pretty() == "-1 - w"
    assert field.from_rational(Fraction(-3, 2)).pretty() == "-3/2"
    assert field.zero().pretty() == "0"


def test_conductor_one_is_plain_rationals():
    field = cyclo_field(1)
    a = field.from_rational(Fraction(3, 4))
    assert a.rational_value() == Fraction(3, 4)
    assert (a * field.from_rational(2)).rational_value() == Fraction(3, 2)
    assert abs(complex_embed(a) - mpmath.mpf(3) / 4) < EMBED_TOL


# ----------------------------------------------------------------------
# exact linear algebra


def test_solve_exact_small_system():
    field = cyclo_field(1)
    rows = [
        [field.from_rational(2), field.from_rational(1)],
        [field.from_rational(1), field.from_rational(3)],
    ]
    rhs = [field.from_rational(5), field.from_rational(10)]
    sol = solve_exact(rows, rhs)
    assert [c.rational_value() for c in sol] == [1, 3]


def test_solve_exact_over_extension():
    field = cyclo_field(5)
    w = field.omega()
    rows = [[w, field.one()], [field.one(), w]]
    rhs = [w * w + field.one(), w + w]
    sol = solve_exact(rows, rhs)
    assert sol is not None
    for row, b in zip(rows, rhs):
        acc = field.zero()
        for c, x in zip(row, sol):
            acc = acc + c * x
        assert acc == b


def test_solve_exact_reports_unsolvable():
    field = cyclo_field(1)
    one = field.one()
    rows = [[one, one], [one, one]]
    rhs = [field.from_rational(1), field.from_rational(2)]
    assert solve_exact(rows, rhs) is None


def test_nullspace_matches_rank():
    field = cyclo_field(3)
    w = field.omega()
    rows = [[field.one(), w], [w, w * w]]
    # second row is w times the first, so rank 1, nullity 1
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        acc = field.zero()
        for c, x in zip(row, v):
            acc = acc + c * x
        assert acc.is_zero()


# ----------------------------------------------------------------------
# RatPoly basics used throughout


def test_rat_poly_arithmetic_and_canonical_form():
    p = RatPoly([1, 2, 1])
    q = RatPoly([-1, 1])
    assert (p * q).coeffs == (-1, -1, 1, 1)
    assert (p - p).is_zero()
    assert RatPoly([0, 0]).degree == -1
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert p.substitute_power(2) == RatPoly([1, 0, 2, 0, 1])
    assert p.truncate(2) == RatPoly([1, 2])


def test_rat_poly_pretty():
    assert RatPoly([1, -1, 0, 2]).pretty() == "1 - x + 2*x^3"
    assert RatPoly([]).pretty() == "0"


def _schoolbook(a, b):
    n = len(a)
    want = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                want[(i + j) % n] += x * y
    return want


def cyclic_product(a, b) -> list:
    """a * b mod x^n - 1 for rational vectors of one length n: _kronecker over a common denominator."""
    da, db = (math.lcm(*[Fraction(x).denominator for x in v]) for v in (a, b))
    prod = _kronecker([int(x * da) for x in a], [int(x * db) for x in b])
    return [_num(Fraction(c, da * db)) for c in prod]


def test_cyclic_product_matches_schoolbook_product():
    # vectors whose sizes need slots of 1 to 16 bytes
    rng = random.Random(5)
    for n in (1, 2, 7, 30):
        for a_den in (1, 6):
            a = [Fraction(rng.randint(-5, 5), a_den) for _ in range(n)]
            a[0] = Fraction(7, a_den)
            for exp in (0, 3, 12, 40, 0, 40):
                b = [Fraction(rng.randint(-9, 9) * 10**exp, rng.choice((1, 1, 4))) for _ in range(n)]
                assert cyclic_product(a, b) == _schoolbook(a, b), (n, a_den, exp)
            assert cyclic_product(a, [0] * n) == [0] * n
    # a signed slot of w bytes holds n * max|a| * max|b| up to 2^(8w-1) - 1;
    # constant vectors reach that bound in every coefficient, just below it and at or above it
    for n in (1, 2, 3, 15, 97):
        for w in range(1, 18):
            top = 1 << (8 * w - 1)
            ma = max(1, math.isqrt(top // n))
            mb = (top - 1) // (n * ma)
            for bound in (mb, mb + 1):
                if bound == 0:
                    continue
                for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                    a, b = [sa * ma] * n, [sb * bound] * n
                    assert cyclic_product(a, b) == [sa * sb * n * ma * bound] * n, (n, w, bound)
                a = [rng.choice((-1, 1)) * ma for _ in range(n)]
                b = [rng.choice((-1, 1)) * rng.randint(0, bound) for _ in range(n)]
                b[-1] = -bound
                assert cyclic_product(a, b) == _schoolbook(a, b), (n, w, bound)
            # an all-zero operand: the slots still hold the other one's entries
            for big in (top - 1, top, 2 * top - 1):
                assert cyclic_product([0] * n, [-big] * n) == [0] * n
                assert cyclic_product([big] + [0] * (n - 1), [0] * n) == [0] * n


@pytest.mark.parametrize("width", range(1, 11))
def test_slot_codec_round_trips(width):
    # widths 1, 2, 4 and 8 move as machine words, the others slot by slot
    rng = random.Random(width)
    top = (1 << (8 * width - 1)) - 1
    for n in (1, 2, 3, 15, 1155):
        full = (1 << 8 * width * n) - 1
        vecs = [[0] * n, [top] * n, [-top] * n]
        for last in (top, -top, 1, -1):  # the packed sum is positive, then negative: r and r - N
            v = [rng.choice((0, top, -top, rng.randint(-top, top))) for _ in range(n)]
            vecs.append(v[:-1] + [last])
        for v in vecs:
            packed = _pack(v, width)
            assert packed == sum(x << 8 * width * j for j, x in enumerate(v)), (width, n)
            assert (packed < 0) == (v[-1] < 0) or not any(v)
            assert _unpack(packed % full, width, n) == v, (width, n)


@pytest.mark.parametrize("width", (3, 5, 7, 9))
def test_kronecker_at_odd_slot_widths_matches_schoolbook_product(width):
    rng = random.Random(width)
    for n in (1, 3, 15, 35):
        # n * ma * mb has 8 width - 2 bits, so the slots take exactly width bytes
        ma = math.isqrt((1 << (8 * width - 2)) // n)
        a = [rng.randint(-ma, ma) for _ in range(n - 1)] + [-ma]
        b = [rng.randint(-ma, ma) for _ in range(n - 1)] + [ma]
        assert _width(n * ma * ma) == width
        assert _kronecker(a, b) == _schoolbook(a, b), (width, n)


def _values(f, rng):
    """0, 1, -1, 7, 3/4, an integral element, a fractional one, and a multiple of 6."""
    gen = f.element([rng.randint(-9, 9) for _ in range(f.phi)])
    return [f.from_rational(q) for q in (0, 1, -1, 7, Fraction(3, 4))] + [
        gen,
        random_element(f, rng, 5),
        gen * 6,
    ]


def _rational_vec(a):
    return [Fraction(x, a.den) for x in a.vec]


def _by_cyclic_product(f, a, b):
    return f.element(cyclic_product(_rational_vec(a), _rational_vec(b)))


def _assert_format(x):
    """Int slots over a positive denominator, in lowest terms."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(c) is int for c in x.vec)
    assert math.gcd(x.den, *x.vec) == 1


def _assert_same(got, want):
    assert got.field == want.field
    assert (got.vec, got.den) == (want.vec, want.den)
    assert hash(got) == hash(want)
    _assert_format(got)


def test_normal_form_of_one_has_one_sign():
    # the rationality test compares the support of 1 with one of its entries
    for n in range(1, 400):
        assert len({x for x in CycloField(n)._one if x}) == 1, n


@pytest.mark.parametrize("conductor", (1, 3, 4, 9, 15, 273))
def test_product_with_a_rational_operand_matches_the_cyclic_product(conductor):
    f = cyclo_field(conductor)
    vals = _values(f, random.Random(conductor))
    for a in vals:
        for b in vals:
            _assert_same(a * b, _by_cyclic_product(f, a, b))
    # a rational operand from a subfield is lifted first
    small = cyclo_field(1).from_rational(Fraction(-5, 3))
    for a in vals:
        _assert_same(a * small, _by_cyclic_product(f, a, f.coerce(small)))
        _assert_same(small * a, _by_cyclic_product(f, a, f.coerce(small)))


@pytest.mark.parametrize("conductor", (1, 3, 4, 9, 15, 273))
def test_division_by_a_rational_matches_the_cyclic_product(conductor):
    f = cyclo_field(conductor)
    for a in _values(f, random.Random(conductor)):
        for q in (1, 2, 3, -2, 6, -6, 7, Fraction(3, 4), Fraction(-2, 1), Fraction(6)):
            _assert_same(a / q, _by_cyclic_product(f, a, f.from_rational(1 / Fraction(q))))
    with pytest.raises(ZeroDivisionError):
        f.one() / 0


# ----------------------------------------------------------------------
# the element format against a Fraction-vector oracle
#
# An element is drawn as a rational vector v of length n, its value the sum
# of v[j] w^j.  The oracle does each operation on such vectors mod x^n - 1
# in Fractions and compares values by their remainders modulo Phi_n, never
# through the normal form.


def _fraction_value(v, n):
    return (RatPoly(v) % cyclotomic_poly(n)).coeffs


def _check(x, v, n):
    """x has the format and the value of the Fraction vector v in Q(zeta_n)."""
    _assert_format(x)
    assert x.field.conductor == n
    assert _fraction_value(_rational_vec(x), n) == _fraction_value(v, n)


def _draw(rng, n):
    """A Fraction vector of length n: dense, integral, rational or over one denominator."""
    kind = rng.randrange(4)
    if kind == 2:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))] + [0] * (n - 1)
    den = rng.choice((2, 6)) if kind == 3 else 1
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6) if kind == 0 else den) for _ in range(n)]


@pytest.mark.parametrize("n", (1, 3, 4, 9, 12, 15, 105))
def test_every_operation_returns_the_format(n):
    f = cyclo_field(n)
    rng = random.Random(6000 + n)
    units = [m for m in range(1, n + 1) if math.gcd(m, n) == 1]
    for _ in range(40 if n < 100 else 4):
        va, vb = _draw(rng, n), _draw(rng, n)
        a, b = f.element(va), f.element(vb)
        _check(a, va, n)
        _check(a + b, [x + y for x, y in zip(va, vb)], n)
        _check(a - b, [x - y for x, y in zip(va, vb)], n)
        _check(a + (b - a), vb, n)
        _check(a * b, _schoolbook(va, vb), n)
        for q in (2, -3, 6, Fraction(-4, 3), Fraction(5, 6)):
            _check(a / q, [x / q for x in va], n)
            _check(a * q, [x * q for x in va], n)
            # a rational element operand, on either side
            _check(a * f.from_rational(q), [x * q for x in va], n)
            _check(f.from_rational(q) * a, [x * q for x in va], n)
            _check(f.from_rational(q), [Fraction(q)] + [0] * (n - 1), n)
        if not b.is_zero():
            inv = b.inverse()
            _check(inv, _rational_vec(inv), n)
            assert _fraction_value(_schoolbook(_rational_vec(inv), vb), n) == (1,)
            quo = a / b
            _check(quo, _rational_vec(quo), n)
            assert _fraction_value(_schoolbook(_rational_vec(quo), vb), n) == _fraction_value(va, n)
        m = rng.choice(units)
        image = [0] * n
        for j, x in enumerate(va):
            image[j * m % n] += x
        _check(GaloisMap(f, m)(a), image, n)
        t = rng.choice((2, 3))
        spread = [0] * (n * t)
        spread[::t] = va
        _check(cyclo_field(n * t).coerce(a), spread, n * t)


# ----------------------------------------------------------------------
# the normal form against long division by Phi_n
#
# The oracle never touches the normal form: a value is the remainder of
# its coefficient polynomial modulo cyclotomic_poly(n), computed by
# RatPoly division.


def _oracle(coeffs, n):
    return list((RatPoly(coeffs) % cyclotomic_poly(n)).coeffs)


def _power_basis(x):
    coords = list(x.coords)
    while coords and coords[-1] == 0:
        coords.pop()
    return coords


def _check_against_oracle(n, rng, lifts):
    field = cyclo_field(n)
    # huge coefficients for odd n, so products also take slots wider than 8 bytes
    p1 = [rng.randint(-3, 3) * 10 ** (20 * (n % 2)) for _ in range(n)]
    # short, so that the Fraction arithmetic of the oracle stays cheap
    p2 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
    x, y = field.element(p1), field.element(p2)
    assert _power_basis(x) == _oracle(p1, n), n
    assert _power_basis(y) == _oracle(p2, n), n

    # equality: adding a shifted multiple of Phi_n changes nothing
    shift = RatPoly.monomial(rng.randrange(n), rng.randint(1, 3)) * cyclotomic_poly(n)
    assert field.element((RatPoly(p1) + shift).coeffs) == x, n
    assert (x == y) == (_oracle(p1, n) == _oracle(p2, n)), n

    assert _power_basis(x * y) == _oracle((RatPoly(p1) * RatPoly(p2)).coeffs, n), n

    m = rng.choice([m for m in range(1, n) if math.gcd(m, n) == 1] or [1])
    image = [0] * n
    for j, c in enumerate(p1):
        image[j * m % n] += c
    assert _power_basis(galois_apply(x, m)) == _oracle(image, n), (n, m)

    for d in rng.sample(divisors(n), min(lifts, len(divisors(n)))):
        small = [rng.randint(-3, 3) for _ in range(d)]
        lifted = field.coerce(cyclo_field(d).element(small))
        assert _power_basis(lifted) == _oracle(RatPoly(small).substitute_power(n // d).coeffs, n)
        assert lifted == cyclo_field(d).element(small), (n, d)
        assert hash(lifted) == hash(cyclo_field(d).element(small)), (n, d)

    p3 = [rng.randint(-3, 3) for _ in range(4)]
    z = field.element(p3)
    if not z.is_zero():
        assert _oracle((RatPoly(z.inverse().coords) * RatPoly(p3)).coeffs, n) == [1], n


def test_normal_form_against_long_division_small_conductors():
    rng = random.Random(200)
    for n in range(1, 200):
        _check_against_oracle(n, rng, lifts=2)


@pytest.mark.parametrize("n", [315, 1155])
def test_normal_form_against_long_division_large_conductors(n):
    _check_against_oracle(n, random.Random(n), lifts=3)


# ----------------------------------------------------------------------
# the split-prime embeddings and their closed-form inverse


def test_embeddings_match_the_elimination_oracle():
    for n in list(range(1, 61)) + [63, 77, 90, 105]:
        p, g = _split_prime(n)
        roots, basis, inverse = _embeddings(n, p, g)
        powers, *want = embeddings_by_elimination(n, p, g)
        # column 1 of powers is g^t, the image of zeta_n under the map of unit t
        assert roots == [row[1 % n] for row in powers] and [basis, inverse] == want, n


@pytest.mark.parametrize("n", [231, 455, 1155])
def test_embeddings_invert_the_images_at_large_conductors(n):
    p, g = _split_prime(n)
    roots, basis, inverse = _embeddings(n, p, g)
    powers = [_geometric(x, n, p) for x in roots]
    field, rng = cyclo_field(n), random.Random(n)
    for _ in range(2):
        v = field.element([rng.randint(-9, 9) for _ in range(n)]).vec
        assert not any(v[j] for j in set(range(n)) - set(basis))
        images = [sum(x * y for x, y in zip(v, row)) % p for row in powers]
        assert [sum(x * y for x, y in zip(row, images)) % p for row in inverse] == [v[j] % p for j in basis]


def test_embeddings_make_no_elimination(monkeypatch):
    calls = []
    rref_mod = numberfield._rref_mod
    monkeypatch.setattr(numberfield, "_rref_mod", lambda *args: calls.append(args) or rref_mod(*args))
    _embeddings.cache_clear()
    for n in (1, 2, 12, 15, 105):
        _embeddings(n, *_split_prime(n))
    assert calls == []


def test_embeddings_entry_keeps_no_power_table():
    # one row of g^(t j) determines every map, so an entry keeps phi images, not a phi x n table
    n = 455
    cyclo_field(n)
    p, g = _split_prime(n)
    _embeddings.cache_clear()
    tracemalloc.start()
    try:
        entry = _embeddings(n, p, g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(entry[0]) == 288 and held < 5 * 2**20, held


def test_normal_forms_of_roots_of_unity_have_coordinates_in_minus_one_zero_one():
    # the certificate of span_analysis bounds the residual's coordinates by this
    for n in list(range(1, 201)) + [231, 455]:
        field = cyclo_field(n)
        for j in range(n):
            v = field._normal([int(i == j) for i in range(n)])
            assert any(v) and set(v) <= {-1, 0, 1}, (n, j)
