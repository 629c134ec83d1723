"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing gives
the per-criterion verdict, and each test also prints a one-line summary
with its measured cost where a time budget applies.
"""

import math
import random
import time

import mpmath
import pytest

from autorec.automaton import (
    PatternSpec,
    expansion,
    pattern_dfao,
    reverse_dfao,
    sequence_term,
)
from autorec.numberfield import (
    complex_embed,
    coset_reps,
    cyclo_field,
    euler_phi,
    is_prime_power,
    multiplicative_order,
)
from autorec.polymatrix import LEFT, RIGHT, span_analysis
from autorec.recurrence import (
    RootSpec,
    integer_recurrence,
    lmin_bound,
    synthesize,
    verify,
)
from autorec.thuemorse import tm_identities_check, tm_classify, tm_coefficient, tm_table
from conftest import det_cofactor, galois_apply, occurrences, partial_sum_poly, reduced_product_at_root, t_for
from poly_oracle import CycloPoly, cyclotomic_poly, power_product, transition_matrix, truncate


@pytest.fixture
def announce(capsys):
    """Print a verdict line that survives pytest's output capture."""

    def emit(line: str) -> None:
        with capsys.disabled():
            print(line)

    return emit


def test_criterion_01_quartic_block_machine_char_polys(rs, announce):
    started = time.perf_counter()
    rec = synthesize(rs, RootSpec(2, 3, 1, s=2))
    assert rec.integer_coefficients() == [4, -1, 1]  # lambda^2 - lambda + 4
    rec1 = synthesize(rs, RootSpec(2, 3, 0, s=2))
    assert rec1.integer_coefficients() == [4, -4, 1]  # lambda^2 - 4 lambda + 4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(f"criterion 01 PASS: order-two synthesis matches both worked values ({elapsed:.3f} s)")


def test_criterion_02_exhaustive_desk_scale_verification(shipped, announce):
    started = time.perf_counter()
    checked = 0
    for name, a in shipped:
        for r in range(1, 36, 2):
            for e in range(r):
                root = RootSpec(2, r, e)
                rec = synthesize(a, root)
                rep = verify(rec, a, 100)
                assert rep.all_zero, (name, r, e, rep.first_failure)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    announce(
        f"criterion 02 PASS: {checked} recurrences across 4 machines, odd r <= 35, "
        f"all e, verified to n = 100 ({elapsed:.1f} s)"
    )


def test_criterion_03_determinant_law(rs, announce):
    m = transition_matrix(rs, span_analysis(rs))
    f = rs.output_field
    for s in (1, 2, 3):
        det = det_cofactor(power_product(m, 2, s, RIGHT))
        want = CycloPoly.monomial(f, 2**s - 1, f.from_rational((-2) ** s))
        assert (det - want).is_zero(), s
    announce("criterion 03 PASS: right-product determinant is (-2)^s x^(2^s - 1) for s = 1, 2, 3")


def test_criterion_04_block_counting_coefficient_forms(bs, announce):
    span = span_analysis(bs)
    cases = 0
    for r in range(1, 22, 2):
        for e in range(r):
            root = RootSpec(2, r, e)
            rec = synthesize(bs, root)
            assert rec.order == 2
            mat, K = reduced_product_at_root(bs, span, root)
            trace = mat[0][0] + mat[1][1]
            const = rec.coefficients[0].rational_value()
            assert const == (-1) ** root.s, (r, e)
            assert (rec.coefficients[1] + K.coerce(trace)).is_zero(), (r, e)
            cases += 1
    announce(
        f"criterion 04 PASS: constant (-1)^s and middle -trace hold in all {cases} "
        "cases with odd r <= 21"
    )


def test_criterion_05_identity_grid(announce):
    assert tm_identities_check(64, 6) is True
    announce("criterion 05 PASS: the four partial-sum identities hold for n <= 64, s <= 6")


def test_criterion_06_prime_power_classification(announce):
    full, half = 0, 0
    for r0 in range(3, 501, 2):
        pp = is_prime_power(r0)
        if not pp:
            continue
        p, _ = pp
        phi = euler_phi(r0)
        s0 = multiplicative_order(2, r0)
        if s0 == phi:
            c = tm_classify(r0)
            assert c.integer_value() == p, r0
            full += 1
        elif s0 == phi // 2 and s0 % 2 == 1:
            c = tm_classify(r0)
            assert c.is_imaginary and c.integer_value() is None, r0
            assert c.abs_square == p, r0
            half += 1
    # the textbook members of each family must be present
    for r0 in (3, 5, 9, 11, 13):
        assert multiplicative_order(2, r0) == euler_phi(r0)
    for r0 in (7, 23):
        s0 = multiplicative_order(2, r0)
        assert s0 == euler_phi(r0) // 2 and s0 % 2 == 1
    announce(
        f"criterion 06 PASS: {full} full-order prime powers give the prime, "
        f"{half} half-odd cases are purely imaginary with |value|^2 = p (r0 <= 500)"
    )


def test_criterion_07_distinct_factor_scan_desk_scale(announce):
    started = time.perf_counter()
    t = tm_table(2000)
    elapsed = time.perf_counter() - started
    assert t.cells == {
        "one": {"phi_eq_2s0": 79, "phi_gt_2s0": 11},
        "minus_one": {"phi_eq_2s0": 95, "phi_gt_2s0": 22},
        "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 319},
    }
    assert t.considered == 676
    assert t.in_set == 526
    assert t.excluded_odd_s0 == 26
    assert t.excluded_forced_real == 124
    # the two converse-failure cells are populated
    assert t.cells["one"]["phi_gt_2s0"] > 0
    assert t.cells["minus_one"]["phi_gt_2s0"] > 0
    assert elapsed < 1800.0
    announce(
        "criterion 07 PASS: exact scan to 2000 gives the expected 3x2 grid, the "
        f"(non-integer, phi = 2 s0) cell is empty ({elapsed:.1f} s)"
    )


def test_criterion_08_norm_product(announce):
    for r0 in range(3, 201, 2):
        v = tm_coefficient(r0)
        field = cyclo_field(r0)
        prod = field.one()
        for u in coset_reps(2, r0):
            prod = prod * galois_apply(v, u)
        assert prod.rational_value() == cyclotomic_poly(r0)(1), r0
    announce("criterion 08 PASS: conjugate product equals Phi(1) for every odd r0 <= 200")


def test_criterion_09_integer_recurrences_at_seven(tm, rs, announce):
    for a, name in ((tm, "bit parity"), (rs, "block parity")):
        rec = integer_recurrence(a, RootSpec(2, 7, 1))
        ints = rec.integer_coefficients()
        assert ints is not None, name
        assert ints[-1] != 0
        rep = verify(rec, a, 100)
        assert rep.all_zero, (name, rep.first_failure)
    announce("criterion 09 PASS: coset products at r0 = 7 are integral and verify to n = 100")


def test_criterion_10_polynomial_recurrence_oracle(shipped, announce):
    from autorec.automaton import BACKWARD

    checked = 0
    for name, a in shipped:
        span = span_analysis(a)
        mhat = transition_matrix(a, span)
        side = RIGHT if a.direction == BACKWARD else LEFT
        k = a.base
        for u in (1, 2, 3):
            if side == LEFT:
                base_vec = partial_sum_poly(a, span, k**u, u, LEFT)
            else:
                m = power_product(mhat, k, u, RIGHT)
            for n in range(1, 10):
                t = t_for(n, k)
                lhs = partial_sum_poly(a, span, k**u * n, u + t, side)
                if side == LEFT:
                    m = truncate(power_product(mhat, k, t, LEFT), n).substitute_power(k**u)
                    rvec = base_vec
                else:
                    rvec = [
                        p.substitute_power(k**u)
                        for p in partial_sum_poly(a, span, n, t, RIGHT)
                    ]
                for i in range(m.dim):
                    acc = CycloPoly(a.output_field, [])
                    for j in range(m.dim):
                        acc = acc + m.entry(i, j) * rvec[j]
                    assert (lhs[i] - acc).is_zero(), (name, u, n, i)
                checked += 1
    announce(
        f"criterion 10 PASS: left/right word-enumeration identities hold in "
        f"{checked} (machine, u, n) cases with u <= 3, n <= 9"
    )


def test_criterion_11_pattern_machines_against_direct_scan(announce):
    rng = random.Random(2025)
    for trial in range(20):
        k = rng.randint(2, 4)
        v = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
        m = rng.randint(2, 5)
        spec = PatternSpec(k, v, m)
        a = pattern_dfao(spec)
        field = cyclo_field(m)
        for n in range(2**14):
            hits = occurrences(v, tuple(expansion(n, k)))
            want = field.omega_power(hits) if m > 2 else field.from_rational((-1) ** hits)
            assert sequence_term(a, n) == want, (trial, spec, n)
        cap = len(v) if v[0] != 0 else len(v) + 1
        assert lmin_bound(a) <= cap, spec
    announce(
        "criterion 11 PASS: 20 random pattern machines agree with the direct "
        "count for n < 2^14 and respect the order bound"
    )


def test_criterion_12_reversal(tm, rs, bs, announce):
    for name, a in (("thue_morse", tm), ("rudin_shapiro", rs), ("baum_sweet", bs)):
        rev = reverse_dfao(a)
        assert rev.direction != a.direction
        for n in range(2**12):
            assert sequence_term(rev, n) == sequence_term(a, n), (name, n)
    announce("criterion 12 PASS: reversed machines agree with their sources for n < 2^12")


def test_criterion_13_field_arithmetic_suite(announce):
    from conftest import random_element

    tol = mpmath.mpf("1e-9")
    for conductor in (3, 5, 7, 9, 15, 21, 33):
        field = cyclo_field(conductor)
        rng = random.Random(conductor)
        units = [m for m in range(1, conductor) if math.gcd(m, conductor) == 1]
        for _ in range(100):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            if not a.is_zero():
                assert a.inverse() * a == field.one()
            m = rng.choice(units)
            assert galois_apply(a * b, m) == galois_apply(a, m) * galois_apply(b, m)
            assert galois_apply(a + b, m) == galois_apply(a, m) + galois_apply(b, m)
            assert abs(complex_embed(a * b) - complex_embed(a) * complex_embed(b)) < tol
            assert abs(complex_embed(a + b) - (complex_embed(a) + complex_embed(b))) < tol
    announce(
        "criterion 13 PASS: 100 randomized axiom, automorphism, and embedding "
        "checks per conductor in {3, 5, 7, 9, 15, 21, 33}"
    )
