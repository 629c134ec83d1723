"""Property tests of the exact number theory behind the modular routes, on hypothesis inputs.

numberfield._reconstruct, the rational reconstruction that lifts
span_analysis's residues, is compared with Fraction arithmetic,
CycloField._rational with the power-basis coordinates,
recurrence._char_poly, the characteristic polynomial on packed residues,
with Newton's identities over CycloElements, and recurrence._minimal_poly
with exact solves over the powers of the matrix.  Every test draws its
examples from a fixed seed (derandomize), so a run is reproducible.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from autorec import recurrence  # noqa: E402
from autorec.numberfield import CycloElement, _reconstruct, _split_prime, cyclo_field  # noqa: E402
from autorec.recurrence import _char_poly, _minimal_poly  # noqa: E402
from conftest import char_poly_newton_oracle, minimal_poly_by_solves  # noqa: E402

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=300)
# m = 2 is left out: there 1 = -1, and a/b = -1/1 is read back as 1/1
moduli = st.one_of(st.integers(3, 10**4), st.integers(3, 2**130))


@FIXED
@given(moduli, st.data())
def test_reconstruct_returns_every_fraction_within_its_bounds(m, data):
    bound = math.isqrt(m // 2)
    q = Fraction(data.draw(st.integers(-bound, bound)), data.draw(st.integers(1, bound)))
    assume(math.gcd(q.denominator, m) == 1)
    x = q.numerator * pow(q.denominator, -1, m) % m
    assert _reconstruct(x, m) == (q.numerator, q.denominator)


@FIXED
@given(st.one_of(st.integers(1, 10**4), st.integers(1, 2**130)), st.integers(-(2**140), 2**140))
def test_reconstruct_answers_only_within_its_bounds(m, x):
    got = _reconstruct(x, m)
    if got is not None:
        a, b = got
        bound = math.isqrt(m // 2)
        assert (a - b * x) % m == 0
        assert abs(a) <= bound and 0 < b <= bound and math.gcd(b, m) == 1


@FIXED
@given(st.sampled_from((1, 2, 4, 6, 12, 15, 30, 105)), st.sampled_from((0, 1, -1, 2, -2, 7, -9)), st.data())
def test_rational_is_read_off_the_power_basis(n, q, data):
    # a normal form is q times that of 1 exactly when its power-basis coordinates past the
    # constant are 0, and then q is the constant; the conductors include prime powers and
    # n = 2 mod 4, the inputs q times 1, q times 1 with one slot moved by 1, and random ones
    field = cyclo_field(n)
    kind = data.draw(st.sampled_from(("multiple", "moved", "random")))
    if kind == "random":
        v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        v = [q * x for x in field._one]
        if kind == "moved":
            v[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from((1, -1)))
    vec = field._normal(v)
    coords = CycloElement(field, vec).coords
    assert field._rational(vec) == (None if any(coords[1:]) else coords[0])
    if kind == "multiple":
        assert field._rational(vec) == q


@settings(FIXED, max_examples=100)
@given(
    st.sampled_from((1, 3, 15, 105, 1155)),
    st.integers(0, 5),
    st.integers(1, 10**6),
    st.sampled_from((2, 7, 15, 31, 63, 70)),
    st.data(),
)
def test_char_poly_kernel_matches_newton_on_raw_vectors(n, d, den, bits, data):
    # the vectors go in as drawn, a few terms each, not in normal form, over one denominator;
    # entries below 2^bits in size give slots of every width from 1 byte to past 8
    terms = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-(2**bits), 2**bits)), max_size=4)
    vecs = [[[0] * n for _ in range(d)] for _ in range(d)]
    for row in vecs:
        for v in row:
            for place, x in data.draw(terms):
                v[place] += x
    field = cyclo_field(n)
    rows = [[field.element([Fraction(x, den) for x in v]) for v in row] for row in vecs]
    assert _char_poly(vecs, den, field) == char_poly_newton_oracle(rows, field)


def _conjugated(m: list, ops) -> list:
    """E m E^-1 for each E = I + c x^e e_ij, i != j, of ops in turn: m conjugated by a unimodular matrix.

    x^e v mod x^L - 1 is v shifted by e slots, so E m adds c x^e row j to row i,
    and (E m) E^-1 subtracts c x^e column i from column j.
    """
    for i, j, c, e in ops:
        if i != j:
            m[i] = [[x + c * y for x, y in zip(u, v[-e:] + v[:-e])] for u, v in zip(m[i], m[j])]
            for row in m:
                row[j] = [x - c * y for x, y in zip(row[j], row[i][-e:] + row[i][:-e])]
    return m


def test_minimal_poly_kernel_matches_solves_on_raw_vectors(monkeypatch):
    # the vectors go in as drawn, not in normal form, over denominators that include the first
    # split prime p of n, which certifies as D M is integral; random matrices take the
    # non-derogatory test, and a scalar, block-diag(B, B) or J_2 + scalar, conjugated by a
    # unimodular matrix, the elimination
    nonderogatory, branches = recurrence._nonderogatory, set()

    def recorded(vecs, L):
        got = nonderogatory(vecs, L)
        branches.add(got)
        return got

    monkeypatch.setattr(recurrence, "_nonderogatory", recorded)

    @FIXED
    @given(st.sampled_from((1, 3, 15, 105)), st.sampled_from(("random", "scalar", "blocks", "jordan")), st.data())
    def check(n, kind, data):
        p, _ = _split_prime(n)
        den = data.draw(st.one_of(st.integers(1, 10**6), st.sampled_from((p, 6 * p))))
        bits = data.draw(st.sampled_from((2, 7, 31, 70)))
        terms = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-(2**bits), 2**bits)), max_size=3)

        def vector() -> list:
            v = [0] * n
            for place, x in data.draw(terms):
                v[place] += x
            return v

        if kind == "random":
            d = data.draw(st.integers(0, 4))
            vecs = [[vector() for _ in range(d)] for _ in range(d)]
        elif kind == "blocks":
            b = data.draw(st.integers(1, 2))
            block = [[vector() for _ in range(b)] for _ in range(b)]
            d = 2 * b
            vecs = [[list(block[i % b][j % b]) if i // b == j // b else [0] * n for j in range(d)] for i in range(d)]
        else:
            d, c = data.draw(st.integers(2, 4)) if kind == "scalar" else 3, vector()
            vecs = [[list(c) if i == j else [0] * n for j in range(d)] for i in range(d)]
            if kind == "jordan":
                vecs[0][1][0] = data.draw(st.integers(1, 2**bits))
        if kind != "random":
            index = st.integers(0, d - 1)
            ops = st.lists(st.tuples(index, index, st.integers(-3, 3), st.integers(0, n - 1)), max_size=6)
            vecs = _conjugated(vecs, data.draw(ops))
        field = cyclo_field(n)
        rows = [[field.element([Fraction(x, den) for x in v]) for v in row] for row in vecs]
        assert _minimal_poly(vecs, den, field) == minimal_poly_by_solves(rows, field)

    check()
    assert branches == {True, False}
