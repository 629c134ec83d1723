"""Property tests of the exact number theory behind the modular routes, on hypothesis inputs.

numberfield._reconstruct, the rational reconstruction that lifts
span_analysis's residues, is compared with Fraction arithmetic, and
recurrence._char_poly, the characteristic polynomial on packed residues,
with Newton's identities over CycloElements.  Every test draws its
examples from a fixed seed (derandomize), so a run is reproducible.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from autorec.numberfield import _reconstruct, cyclo_field  # noqa: E402
from autorec.recurrence import _char_poly  # noqa: E402
from conftest import char_poly_newton_oracle  # noqa: E402

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
