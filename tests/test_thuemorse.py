"""The parity-of-bit-count coefficient at roots of unity: identities,
integrality classification, the scan table, and the odd-weight variant."""

import math
import os

import mpmath
import pytest

from autorec import thuemorse
from autorec.errors import AutorecError
from autorec.numberfield import (
    complex_embed,
    coset_reps,
    cyclo_field,
    _MR_BOUND,
    _is_prime,
    euler_phi,
    is_prime_power,
    multiplicative_order,
)
from autorec.recurrence import Recurrence, RootSpec, synthesize, verify
from conftest import galois_apply
from poly_oracle import RatPoly, cyclotomic_poly
from autorec.thuemorse import (
    CASE_OTHER,
    CASE_PRIME_POWER_HALF_ODD,
    CASE_PRIME_POWER_PRIMITIVE,
    CASE_TWO_FACTOR_REAL,
    CASE_TWO_FACTOR_UNIT,
    _conjugate_bounds,
    _scan_exact,
    _tm_cyclic,
    _unit_certificate,
    tm_classify,
    tm_table,
)
from tm_oracle import tm_coefficient, tm_identities_check, tm_poly, tm_term


# ----------------------------------------------------------------------
# the sequence and its polynomial


def test_tm_term_is_bit_parity():
    for n in range(300):
        assert tm_term(n) == (-1) ** bin(n).count("1")


def test_tm_poly_collects_terms():
    assert tm_poly(8) == (1, -1, -1, 1, -1, 1, 1, -1)
    assert tm_poly(0) == ()


def test_identities_hold_on_a_grid():
    assert tm_identities_check(64, 6) is True


def test_identity_check_runs_quickly_at_small_scale():
    assert tm_identities_check(5, 2) is True


# ----------------------------------------------------------------------
# the coefficient at a root: product formula against literal evaluation


def test_coefficient_matches_literal_polynomial():
    for r0 in (3, 5, 7, 9, 15, 21, 33):
        s0 = multiplicative_order(2, r0)
        w = cyclo_field(r0).omega()
        assert tm_coefficient(r0) == RatPoly(tm_poly(2**s0))(w), r0


def test_coefficient_known_values():
    assert tm_coefficient(3).rational_value() == 3
    assert tm_coefficient(5).rational_value() == 5
    assert tm_coefficient(9).rational_value() == 3
    assert tm_coefficient(15).rational_value() == -1
    v7 = tm_coefficient(7)
    assert v7.rational_value() is None
    assert (v7 * v7.conjugate()).rational_value() == 7


def test_coefficient_exponent_normalization():
    # zeta_9^3 = zeta_3, so the e = 3 evaluation collapses to conductor 3
    assert tm_coefficient(9, 3).rational_value() == 3
    assert tm_coefficient(9, 0).is_zero()
    with pytest.raises(AutorecError):
        tm_coefficient(8)
    with pytest.raises(AutorecError):
        tm_coefficient(1)


# ----------------------------------------------------------------------
# classification


def test_classification_prime_power_primitive():
    c = tm_classify(9)
    assert c.case == CASE_PRIME_POWER_PRIMITIVE
    assert c.integer_value() == 3
    assert c.is_real and not c.is_imaginary
    d = c.to_json_dict()
    assert d["value"] == 3 and d["case"] == CASE_PRIME_POWER_PRIMITIVE


def test_classification_prime_power_half_odd():
    for r0, p in ((7, 7), (23, 23)):
        c = tm_classify(r0)
        assert c.case == CASE_PRIME_POWER_HALF_ODD
        assert c.is_imaginary and not c.is_real
        assert c.abs_square == p
        assert c.integer_value() is None


def test_classification_two_factor_cases():
    c = tm_classify(15)
    assert c.case == CASE_TWO_FACTOR_UNIT
    assert c.integer_value() == -1
    c = tm_classify(39)
    assert c.case == CASE_TWO_FACTOR_UNIT
    assert c.integer_value() == 1
    c = tm_classify(33)
    assert c.case == CASE_TWO_FACTOR_REAL
    assert c.is_real and c.integer_value() is None


def test_classification_other_case():
    # prime conductor whose base-2 order is odd but below phi/2
    c = tm_classify(73)
    assert c.case == CASE_OTHER
    assert c.s0 == 9 and c.phi == 72
    assert c.is_imaginary


def test_classify_rejects_even_or_tiny_conductors():
    for r0 in (1, 2, 8):
        with pytest.raises(AutorecError):
            tm_classify(r0)


def test_real_iff_even_order():
    for r0 in range(3, 150, 2):
        c = tm_classify(r0)
        s0 = multiplicative_order(2, r0)
        assert c.is_real == (s0 % 2 == 0), r0
        assert c.is_imaginary == (s0 % 2 == 1), r0


def test_value_fixed_by_doubling_map():
    for r0 in (7, 9, 15, 21, 33, 39):
        v = tm_coefficient(r0)
        assert galois_apply(v, 2) == v, r0


def test_conjugate_is_inverse_exponent_image():
    for r0 in (7, 15, 33):
        v = tm_coefficient(r0)
        assert v.conjugate() == galois_apply(v, -1)


def test_integer_values_at_non_prime_powers_are_units():
    for r0 in range(15, 300, 2):
        if is_prime_power(r0):
            continue
        c = tm_classify(r0)
        v = c.integer_value()
        if v is not None:
            assert v in (1, -1), r0


def test_prime_power_integer_iff_full_order():
    for r0 in range(3, 300, 2):
        pp = is_prime_power(r0)
        if not pp:
            continue
        c = tm_classify(r0)
        full = multiplicative_order(2, r0) == euler_phi(r0)
        assert (c.integer_value() is not None) == full, r0
        if full:
            assert c.integer_value() == pp[0]


def test_coset_product_equals_cyclotomic_value_at_one():
    for r0 in range(3, 100, 2):
        v = tm_coefficient(r0)
        field = cyclo_field(r0)
        prod = field.one()
        for u in coset_reps(2, r0):
            prod = prod * galois_apply(v, u)
        assert prod.rational_value() == cyclotomic_poly(r0)(1), r0


# ----------------------------------------------------------------------
# the scan table


def test_table_smallest_bound():
    t = tm_table(15)
    assert t.considered == 1
    assert t.in_set == 1
    assert t.cells["minus_one"]["phi_eq_2s0"] == 1
    assert t.row_total("minus_one") == 1
    assert t.col_total("phi_eq_2s0") == 1


def test_table_frozen_grid_at_100():
    t = tm_table(100)
    assert t.cells == {
        "one": {"phi_eq_2s0": 5, "phi_gt_2s0": 0},
        "minus_one": {"phi_eq_2s0": 6, "phi_gt_2s0": 0},
        "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 5},
    }
    assert t.considered == 20
    assert t.in_set == 16
    assert t.excluded_odd_s0 + t.excluded_forced_real == 4


def test_table_frozen_grid_at_300():
    t = tm_table(300)
    assert t.cells == {
        "one": {"phi_eq_2s0": 13, "phi_gt_2s0": 0},
        "minus_one": {"phi_eq_2s0": 18, "phi_gt_2s0": 1},
        "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 29},
    }
    assert t.considered == 78 and t.in_set == 61


def test_table_parallel_agrees():
    seq = tm_table(300)
    par = tm_table(300, jobs=2)
    assert par.cells == seq.cells


def test_table_pretty_mentions_every_cell():
    t = tm_table(100)
    text = t.pretty()
    for row in ("1", "-1", "non-integer"):
        assert row in text
    assert "5" in text and "6" in text


def test_table_json_fields():
    d = tm_table(100).to_json_dict()
    assert d["bound"] == 100
    assert d["cells"]["one"]["phi_eq_2s0"] == 5
    assert d["considered"] == 20


def test_table_rejects_bad_arguments():
    with pytest.raises(AutorecError):
        tm_table(10)
    for jobs in (0, -2):
        with pytest.raises(AutorecError, match="jobs"):
            tm_table(100, jobs=jobs)
    # None and 1 both scan in this process
    assert tm_table(100, jobs=1).cells == tm_table(100, jobs=None).cells


def find_unit_coefficient(limit: int = 500):
    """Smallest odd conductor with T(2^s0; w) exactly 1, if any <= limit."""
    for r0 in range(3, limit + 1, 2):
        if cyclo_field(r0).element(_tm_cyclic(r0)) == 1:
            return r0
    return None


def test_unit_value_witnesses():
    assert find_unit_coefficient() == 39
    minus = [
        r0
        for r0 in range(15, 36, 2)
        if not is_prime_power(r0) and tm_classify(r0).integer_value() == -1
    ]
    assert minus == [15, 21, 35]


def test_converse_of_unit_criterion_fails():
    # phi = 2 s0 forces a unit value, but units also appear beyond that
    # regime; the first conductor with phi > 2 s0 and value -1 is 291
    c = tm_classify(291)
    assert c.integer_value() == -1
    assert c.phi > 2 * c.s0
    t = tm_table(300)
    assert t.cells["minus_one"]["phi_gt_2s0"] == 1


def test_table_progress_from_parallel_scan(capsys):
    seq = tm_table(3000, progress=True)
    seq_err = capsys.readouterr().err
    par = tm_table(3000, jobs=2, progress=True)
    par_err = capsys.readouterr().err
    assert seq.considered > 1000
    assert par_err == seq_err == f"scan: 1000/{seq.considered} conductors done\n"
    assert par.cells == seq.cells


# ----------------------------------------------------------------------
# the exact scan's certificate against the exact value


def scan_by_vector(r0):
    """The table outcome at r0 read off the exact value of T(2^s0; w)."""
    s0 = multiplicative_order(2, r0)
    if s0 % 2:
        return (r0, "odd_s0")
    value = cyclo_field(r0).element(_tm_cyclic(r0))
    q = value.rational_value()
    if pow(2, s0 // 2, r0) == r0 - 1:
        assert value.conjugate() == value and q is None, r0
        return (r0, "forced_real")
    row = {None: "noninteger", 1: "one", -1: "minus_one"}[q]
    col = "phi_eq_2s0" if euler_phi(r0) == 2 * s0 else "phi_gt_2s0"
    return (r0, (row, col))


NON_PRIME_POWERS_TO_400 = [r0 for r0 in range(15, 401, 2) if not is_prime_power(r0)]


def test_scan_exact_matches_exact_value():
    for r0 in NON_PRIME_POWERS_TO_400:
        assert _scan_exact(r0) == scan_by_vector(r0), r0


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(2, 20000):
        assert _is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the leading bases, and primes near the bound
    for n in (2047, 3215031751, 3825123056546413051, 2**61 - 1, 2**89 - 1,
              sympy.prevprime(_MR_BOUND), _MR_BOUND - 2):
        assert _is_prime(n) == sympy.isprime(n), n


def conjugate_abs(r0, s0, u):
    """|sigma_u(T)| = prod 2 |sin(pi u 2^i / r0)| at the working precision."""
    return mpmath.fprod(
        abs(2 * mpmath.sinpi(mpmath.mpf(u * pow(2, i, r0) % r0) / r0)) for i in range(s0)
    )


def test_unit_certificate_is_a_proof():
    sympy = pytest.importorskip("sympy")
    confirmed = 0
    for r0 in NON_PRIME_POWERS_TO_400:
        s0 = multiplicative_order(2, r0)
        if s0 % 2:
            continue
        phi = euler_phi(r0)
        sign, reps, bounds, rows = _unit_certificate(r0, s0, phi)
        assert sign == cyclo_field(r0).element(_tm_cyclic(r0)).rational_value(), r0
        classes = coset_reps((2, -1), r0)
        assert reps == classes[:len(reps)], r0
        primes = [p for p, _, _ in rows]
        assert primes == sorted(set(primes)), r0
        signs = set()
        for p, g, residues in rows:
            assert p % r0 == 1 and sympy.isprime(p), (r0, p)
            assert sympy.n_order(g, p) == r0, (r0, p, g)
            assert len(residues) <= len(reps), (r0, p)
            for u, v in zip(reps, residues):
                direct = 1
                for i in range(s0):
                    direct = direct * (1 - pow(g, u * pow(2, i, r0), p)) % p
                assert v == direct, (r0, p, u)
                signs.add({1: 1, p - 1: -1}.get(v))
        with mpmath.workdps(50):
            for u, bound in zip(reps, bounds):
                conj = conjugate_abs(r0, s0, u)
                assert conj <= bound < conj * (1 + mpmath.mpf(10) ** -3) + 1, (r0, u)
        modulus = math.prod(primes)
        if sign is None:
            assert None in signs or signs == {1, -1}, r0
            continue
        confirmed += 1
        assert signs == {sign}, r0
        if phi == 2 * s0 and pow(2, s0 // 2, r0) != r0 - 1:
            # T is rational: one residue modulo one prime decides it
            assert len(rows) == 1 and reps == [1] and bounds == [], r0
        else:
            assert len(bounds) == len(reps) == len(classes), r0
            assert all(len(residues) == len(reps) for _, _, residues in rows), r0
            assert modulus > max(bounds) + 1 >= modulus // primes[-1], r0
    assert confirmed == 41


def test_conjugate_bounds_are_sharp_upper_bounds():
    # non-units have conjugates far from integers, so the ceiling hides nothing
    for r0 in NON_PRIME_POWERS_TO_400:
        s0 = multiplicative_order(2, r0)
        classes = sorted({
            min(e * u * pow(2, i, r0) % r0 for i in range(s0) for e in (1, -1))
            for u in range(1, r0) if math.gcd(u, r0) == 1
        })
        reps = coset_reps((2, -1), r0)
        assert reps == classes, r0
        with mpmath.workdps(50):
            for u, bound in zip(reps, _conjugate_bounds(r0, s0, reps)):
                conj = conjugate_abs(r0, s0, u)
                assert conj <= bound < conj * (1 + mpmath.mpf(10) ** -3) + 1, (r0, u)


def test_unit_certificate_checks_every_representative_and_prime(monkeypatch):
    # r0 = 291 has T = -1 and two classes modulo <2, -1>, whose bounds are
    # far below one prime; these cases do not arise in a real scan
    r0, s0, phi = 291, multiplicative_order(2, 291), euler_phi(291)
    monkeypatch.setattr(thuemorse, "_conjugate_bounds", lambda r0, s0, reps: [10**12] * len(reps))
    sign, reps, bounds, rows = _unit_certificate(r0, s0, phi)
    assert sign == -1 and reps == [1, 5] and len(rows) > 1
    assert math.prod(p for p, _, _ in rows) > 10**12 + 1
    assert all(residues == [p - 1, p - 1] for p, _, residues in rows)

    real = thuemorse._tm_residue
    calls = []

    def flip_after_first(p, x, s0):
        calls.append(x)
        v = real(p, x, s0)
        return v if len(calls) == 1 else p - v

    monkeypatch.setattr(thuemorse, "_tm_residue", flip_after_first)
    sign, reps, bounds, rows = _unit_certificate(r0, s0, phi)
    assert sign is None and len(rows) == 1 and rows[0][2] == [rows[0][0] - 1, 1]


def test_rational_value_other_than_a_unit_raises(monkeypatch):
    # phi = 2 s0 at r0 = 15, so a residue other than +-1 contradicts the proof
    monkeypatch.setattr(thuemorse, "_tm_residue", lambda p, x, s0: 2)
    with pytest.raises(AutorecError):
        _scan_exact(15)


def test_scan_binds_no_float_library():
    assert not hasattr(thuemorse, "mpmath")


@pytest.mark.skipif(
    not os.environ.get("AUTOREC_LONG"),
    reason="full 10^5 scan takes a while; set AUTOREC_LONG=1 to run",
)
def test_table_full_scale():
    # Counts audited independently: the column split was re-derived for
    # every conductor with sympy's totient and n_order, and the sixty
    # largest-order unit values were re-verified at 60-digit precision.
    t = tm_table(100_000, jobs=os.cpu_count())
    assert t.cells == {
        "one": {"phi_eq_2s0": 2728, "phi_gt_2s0": 1143},
        "minus_one": {"phi_eq_2s0": 2936, "phi_gt_2s0": 1481},
        "noninteger": {"phi_eq_2s0": 0, "phi_gt_2s0": 24633},
    }
    assert t.in_set == 32921


# ----------------------------------------------------------------------
# the odd-weight variant


def tilde_recurrence(root, shift: int = 0):
    """(T(2^s n; w) = C T(n; w) with shift added to C, C) for C = T(2^s; w) = T(2^s0; w)^(s/s0).

    With S(n; x) = 1 + x + ... + x^(n-1) and the odd-weight partial sum
    U(n; x) = sum of x^m over m < n with odd binary weight, 2 U = S - T,
    and S(2^s n; w) = S(n; w) as w^(2^s) = w.  So
    U(2^s n; w) = C U(n; w) + (1 - C)(w^n - 1) / (2 (w - 1)) holds at n
    exactly when this recurrence does, and C = 1 makes it the two-term
    recurrence U(2^s n; w) = U(n; w).
    """
    c = tm_coefficient(root.r0, root.primitive_exponent) ** (root.s // root.s0)
    return Recurrence(2, root, [-(c + shift), c.field.one()], "tilde"), c


def test_tilde_identity_at_conductor_three(tm):
    root = RootSpec(2, 3, 1, s=2)
    rec, c = tilde_recurrence(root)
    assert c.rational_value() == 3
    assert verify(rec, tm, 100).all_zero
    # the reduced matrix of thue_morse is 1 - x, so this is the synthesized recurrence
    assert synthesize(tm, root).coefficients == rec.coefficients


def test_tilde_two_term_recurrence_at_unit_witness(tm):
    rec, c = tilde_recurrence(RootSpec(2, 39, 1))
    assert c.rational_value() == 1
    assert verify(rec, tm, 100).all_zero


def test_tilde_root_identity_at_a_large_conductor(tm):
    # s = 60: the identity is verified through the recurrence, not by sums up to 2^s n_max
    root = RootSpec(2, 3003, 1)
    assert root.s == 60
    assert verify(tilde_recurrence(root)[0], tm, 20).all_zero


def test_tilde_reports_a_wrong_coefficient_at_n_one(tm):
    for root in (RootSpec(2, 9, 1), RootSpec(2, 39, 1)):
        rep = verify(tilde_recurrence(root, shift=1)[0], tm, 20)
        assert not rep.all_zero and rep.first_failure == 1, root


# ----------------------------------------------------------------------
# numeric spot check of the exact pipeline


def test_embedded_coefficient_matches_float_product():
    for r0 in (9, 33, 39):
        s0 = multiplicative_order(2, r0)
        v = complex_embed(tm_coefficient(r0), digits=30)
        with mpmath.workdps(30):
            prod = mpmath.mpc(1)
            for i in range(s0):
                prod *= 1 - mpmath.exp(2j * mpmath.pi * (2**i % r0) / r0)
            assert abs(v - prod) < mpmath.mpf("1e-20"), r0
