"""Recurrence synthesis, verification, and the integer coset product."""

import math
import random
from collections import OrderedDict
from fractions import Fraction

import pytest

from autorec.automaton import (
    BACKWARD,
    FORWARD,
    Dfao,
    PatternSpec,
    expansion,
    parse_dfao,
    pattern_dfao,
    prune_inaccessible,
    reverse_dfao,
    sequence_term,
)
from autorec import numberfield, recurrence
from autorec.errors import AutorecError, BudgetError
from autorec.numberfield import (
    CycloElement,
    CycloField,
    GaloisMap,
    coset_reps,
    cyclo_field,
    cyclotomic_int,
    factorize,
)
from autorec.polymatrix import LEFT, RIGHT, digit_cells, span_analysis
from autorec.recurrence import (
    Recurrence,
    RootSpec,
    VerificationReport,
    clear_caches,
    dim_experiment,
    integer_recurrence,
    lmin_bound,
    synthesize,
    verify,
)
import blocksum_oracle
from blocksum_oracle import BlockSums, block_sums, partial_sum_fast
import level_oracle
from conftest import (
    TM_ZETA3,
    char_poly,
    char_poly_newton_oracle,
    coset_product_oracle,
    divisors,
    gaussian_period,
    minimal_poly,
    minimal_poly_by_solves,
    partial_sum_value,
    poly_divides,
    random_element,
    reduced_matrix_oracle,
    reduced_product_at_root,
    scalar_mat_mul,
    solve_exact,
    stratum_patterns,
    verify_by_normal_forms,
)
from poly_oracle import power_product, transition_matrix


# ----------------------------------------------------------------------
# RootSpec


def test_rootspec_normalizes_to_conductor():
    r = RootSpec(2, 3, 1)
    assert (r.r0, r.s0, r.s, r.primitive_exponent) == (3, 2, 2, 1)
    # zeta_9^3 = zeta_3
    r = RootSpec(2, 9, 3)
    assert (r.r0, r.primitive_exponent) == (3, 1)
    # e = 0 is the root 1
    r = RootSpec(2, 5, 0)
    assert (r.r0, r.s0, r.s) == (1, 1, 1)
    assert r.omega == cyclo_field(1).one()


def test_rootspec_rejects_bad_parameters():
    with pytest.raises(AutorecError):
        RootSpec(2, 6, 1)  # gcd(k, r) != 1
    with pytest.raises(AutorecError):
        RootSpec(2, 0, 0)
    with pytest.raises(AutorecError):
        RootSpec(2, 7, 1, s=4)  # s0 = 3 does not divide 4
    with pytest.raises(AutorecError):
        RootSpec(2, 7, 1, s=0)
    assert RootSpec(2, 7, 1, s=6).s == 6


def test_rootspec_omega_has_declared_order():
    r = RootSpec(3, 8, 6)  # zeta_8^6 = zeta_4^3
    assert r.r0 == 4
    w = r.omega
    p = w
    for _ in range(3):
        assert p.rational_value() != 1
        p = p * w
    assert p.rational_value() == 1


def test_recurrence_refuses_a_root_built_for_another_base(tm):
    # A(2^4 n) - 5 A(n) = 0 holds for Thue-Morse at zeta_5, but verify would step the
    # digit levels by the root's k = 4, not by 2, and report a failure at n = 1
    f = cyclo_field(1)
    coeffs = [f.from_rational(-5), f.one()]
    with pytest.raises(AutorecError, match="base k = 2 differs from its root's k = 4"):
        Recurrence(2, RootSpec(4, 5, 1, s=4), coeffs, "char_poly")
    assert verify(Recurrence(2, RootSpec(2, 5, 1), coeffs, "char_poly"), tm, 100).all_zero


def test_recurrence_takes_int_and_fraction_coefficients_as_rationals(tm):
    # the rationals verify accepts are elements of Q, as integer_recurrence builds them;
    # the leading coefficient is still tested, and anything else is refused
    f = cyclo_field(1)
    rec = Recurrence(2, RootSpec(2, 5, 1), [-5, Fraction(1)], "char_poly")
    assert rec.coefficients == (f.from_rational(-5), f.one())
    assert [c["coords"] for c in rec.to_json_dict()["coefficients"]] == [["-5"], ["1"]]
    assert verify(rec, tm, 100).all_zero
    assert verify(Recurrence(2, RootSpec(2, 5, 1), [Fraction(-9, 2), 1], "char_poly"), tm, 100).first_failure == 1
    with pytest.raises(AutorecError, match="leading recurrence coefficient"):
        Recurrence(2, RootSpec(2, 3, 1), [1, Fraction(0)], "char_poly")
    with pytest.raises(TypeError):
        Recurrence(2, RootSpec(2, 3, 1), [1, 1.0], "char_poly")


# ----------------------------------------------------------------------
# characteristic and minimal polynomials over exact fields


def test_char_poly_known_matrix():
    f = cyclo_field(1)
    rows = [[f.from_rational(2), f.from_rational(1)], [f.from_rational(1), f.from_rational(3)]]
    # trace 5, det 5
    assert [c.rational_value() for c in char_poly(rows, f)] == [5, -5, 1]


def test_char_poly_cayley_hamilton_randomized():
    rng = random.Random(31)
    for conductor in (1, 3, 5):
        f = cyclo_field(conductor)
        for _ in range(10):
            d = rng.randint(1, 3)
            rows = [[random_element(f, rng, 3) for _ in range(d)] for _ in range(d)]
            cp = char_poly(rows, f)
            assert len(cp) == d + 1
            assert cp[-1] == f.one()
            acc = [[f.zero()] * d for _ in range(d)]
            power = [[f.one() if i == j else f.zero() for j in range(d)] for i in range(d)]
            for c in cp:
                for i in range(d):
                    for j in range(d):
                        acc[i][j] = acc[i][j] + c * power[i][j]
                power = [
                    [
                        sum((power[i][t] * rows[t][j] for t in range(d)), f.zero())
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
            assert all(acc[i][j].is_zero() for i in range(d) for j in range(d))


def test_minimal_poly_divides_char_poly():
    rng = random.Random(37)
    f = cyclo_field(3)
    for _ in range(10):
        d = rng.randint(1, 3)
        rows = [[random_element(f, rng, 2) for _ in range(d)] for _ in range(d)]
        mp = minimal_poly(rows, f)
        cp = char_poly(rows, f)
        assert poly_divides(mp, cp, f)


def test_minimal_poly_detects_scalar_matrix():
    f = cyclo_field(1)
    two = f.from_rational(2)
    rows = [[two, f.zero()], [f.zero(), two]]
    assert [c.rational_value() for c in minimal_poly(rows, f)] == [-2, 1]
    assert [c.rational_value() for c in char_poly(rows, f)] == [4, -4, 1]


# differential oracles: the Faddeev-LeVerrier recursion and one exact solve per power


def _char_poly_faddeev_leverrier(rows, f):
    """M_1 = M, c_(d-1) = -tr M; M_j = M (M_(j-1) + c_(d-j+1) I), c_(d-j) = -tr(M_j) / j."""
    a = [[f.coerce(v) for v in row] for row in rows]
    n = len(a)
    m = a
    cs = [f.one(), -sum((m[i][i] for i in range(n)), f.zero())]
    for j in range(2, n + 1):
        shifted = [[v + cs[-1] if i == t else v for t, v in enumerate(row)] for i, row in enumerate(m)]
        m = scalar_mat_mul(a, shifted, f)
        cs.append(-sum((m[i][i] for i in range(n)), f.zero()) / j)
    return cs[::-1]


def _assert_matches_oracles(rows, f):
    cp, mp = char_poly(rows, f), minimal_poly(rows, f)
    assert cp == _char_poly_faddeev_leverrier(rows, f)
    assert mp == minimal_poly_by_solves(rows, f)
    return cp, mp


def _random_matrices(conductor, rng):
    f = cyclo_field(conductor)
    return f, [
        [[random_element(f, rng, 4) for _ in range(d)] for _ in range(d)]
        for d in (1, 2, 3, 4, 5, 6, 7, 8)
    ]


@pytest.mark.parametrize("conductor", (1, 3, 5, 12))
def test_char_and_minimal_poly_match_oracles_on_random_matrices(conductor):
    # d = 6, 7, 8 take traces of M^h M^(j-h) with j = 2h - 1 and j = 2h
    f, mats = _random_matrices(conductor, random.Random(90 + conductor))
    for rows in mats:
        _assert_matches_oracles(rows, f)


def test_char_poly_of_a_2x2_matrix_over_a_large_field():
    f = cyclo_field(1155)
    rng = random.Random(1155)
    (a, b), (c, d) = rows = [[random_element(f, rng, 3) for _ in range(2)] for _ in range(2)]
    assert char_poly(rows, f) == [a * d - b * c, -(a + d), f.one()]


def _shorter_minimal_cases(f, rng):
    q = f.from_rational
    z = f.zero()
    b = [[random_element(f, rng, 3) for _ in range(2)] for _ in range(2)]
    return {
        "scalar": [[q(3) if i == j else z for j in range(3)] for i in range(3)],
        "diag(2, 2, 3)": [[q((2, 2, 3)[i]) if i == j else z for j in range(3)] for i in range(3)],
        # the Jordan block J_3(0) and a zero block: minimal y^3, characteristic y^4
        "nilpotent J_3 + 0": [[f.one() if j == i + 1 < 3 else z for j in range(4)] for i in range(4)],
        "block-diag(B, B)": [
            [b[i % 2][j % 2] if i // 2 == j // 2 else z for j in range(4)] for i in range(4)
        ],
        "zero": [[z] * 3 for _ in range(3)],
    }


@pytest.mark.parametrize("conductor", (1, 3))
def test_minimal_poly_shorter_than_char_poly_matches_oracles(conductor):
    f = cyclo_field(conductor)
    for name, rows in _shorter_minimal_cases(f, random.Random(7)).items():
        cp, mp = _assert_matches_oracles(rows, f)
        assert len(mp) < len(cp), name
    cp, mp = _assert_matches_oracles([[f.from_rational(-5)]], f)
    assert cp == mp == [f.from_rational(5), f.one()]


@pytest.mark.parametrize("r, e", ((9, 2), (15, 5)))
def test_char_and_minimal_poly_match_oracles_on_reduced_products(r, e):
    root = RootSpec(2, r, e)
    for spec in (PatternSpec(2, (0, 1, 0), 3), PatternSpec(2, (1, 1), 3), PatternSpec(2, (0, 1), 6)):
        for a in (pattern_dfao(spec), reverse_dfao(pattern_dfao(spec))):
            machine = recurrence._machine(a)
            rows, f = reduced_product_at_root(machine.padded, machine.span, root)
            _assert_matches_oracles(rows, f)


def test_char_poly_matches_sympy_on_rational_matrices():
    sympy = pytest.importorskip("sympy")
    f = cyclo_field(1)
    _, mats = _random_matrices(1, random.Random(91))
    mats += list(_shorter_minimal_cases(f, random.Random(7)).values())
    for rows in mats:
        want = sympy.Matrix([[c.rational_value() for c in row] for row in rows]).charpoly()
        got = [c.rational_value() for c in char_poly(rows, f)]
        assert got[::-1] == [Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()]


def _sympy_minimal_poly(sympy, m) -> list:
    """Append powers of m until sympy solves the next one over the earlier ones."""
    d = m.rows
    powers = [sympy.eye(d)]
    while True:
        nxt = powers[-1] * m
        table = sympy.Matrix.hstack(*[x.reshape(d * d, 1) for x in powers])
        try:
            sol, _ = table.gauss_jordan_solve(nxt.reshape(d * d, 1))
        except ValueError:  # inconsistent: nxt is independent of the earlier powers
            powers.append(nxt)
            continue
        return [-Fraction(int(c.p), int(c.q)) for c in sol] + [1]


def _derogatory_rational_matrices(sympy, rng) -> list:
    """Random conjugates P D P^-1 of matrices D whose minimal polynomial is shorter than d."""
    def rand(d):
        return sympy.Matrix(d, d, lambda i, j: sympy.Rational(rng.randint(-4, 4), rng.randint(1, 3)))

    b = rand(2)
    cores = [
        sympy.eye(3) * sympy.Rational(-7, 2),  # scalar
        sympy.diag(2, 2, 5),
        sympy.diag(b, b),  # a repeated block
        sympy.diag(b, b, 1),
        sympy.Matrix([[3, 1, 0], [0, 3, 0], [0, 0, 3]]),  # J_2(3) + 3: minimal (y - 3)^2
        sympy.zeros(3, 3),
    ]
    out = []
    for core in cores:
        p = rand(core.rows)
        while p.det() == 0:
            p = rand(core.rows)
        out += [core, p * core * p.inv()]
    return out


def test_minimal_poly_matches_sympy_on_rational_matrices():
    sympy = pytest.importorskip("sympy")
    f = cyclo_field(1)
    rng = random.Random(92)
    mats = [
        sympy.Matrix(d, d, lambda i, j: sympy.Rational(rng.randint(-5, 5), rng.randint(1, 3)))
        for d in (1, 2, 3, 4, 5, 6)
    ] + _derogatory_rational_matrices(sympy, rng)
    shorter = 0
    for m in mats:
        rows = [[Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)] for i in range(m.rows)]
        got = [c.rational_value() for c in minimal_poly(rows, f)]
        assert got == _sympy_minimal_poly(sympy, m), rows
        shorter += len(got) <= m.rows
    assert shorter == 12


def test_minimal_poly_falls_back_when_the_split_prime_is_unlucky(monkeypatch):
    f = cyclo_field(1)
    p, _ = next(numberfield._split_primes(1, 1 << 61))
    calls = []
    rref = recurrence._certified_rref
    monkeypatch.setattr(
        recurrence, "_certified_rref", lambda field, outs, rows: calls.append(len(rows[0])) or rref(field, outs, rows)
    )
    # the identity mod p, though not scalar: the powers mod p are dependent
    rows = [[1, 0], [0, 1 + p]]
    assert minimal_poly(rows, f) == char_poly(rows, f)
    assert calls == [3]
    # D M is integral, so the first prime certifies
    rows = [[Fraction(1, p), 0], [0, 1]]
    assert minimal_poly(rows, f) == char_poly(rows, f)
    assert calls == [3]


@pytest.mark.parametrize("conductor", (3, 15))
def test_minimal_poly_of_a_derogatory_matrix_with_irrational_entries(conductor):
    # M^2 = I as w w^-1 = 1, so the minimal polynomial is y^2 - 1 and the characteristic
    # one (y^2 - 1)(y - 1); a map w -> g with g of the wrong order breaks w w^-1 = 1
    f = cyclo_field(conductor)
    w, z = f.omega(), f.zero()
    rows = [[z, w, z], [w ** (conductor - 1), z, z], [z, z, f.one()]]
    assert [c.rational_value() for c in minimal_poly(rows, f)] == [-1, 0, 1]
    assert [c.rational_value() for c in char_poly(rows, f)] == [1, -1, -1, 1]


def test_minimal_poly_of_a_derogatory_matrix_inverts_no_field_element(monkeypatch):
    # block-diag(B, B) has the minimal polynomial of B, of degree 2, and is derogatory:
    # the fallback eliminates the powers modulo split primes, with no inverse over Q(zeta_105)
    f = cyclo_field(105)
    rng = random.Random(105)
    b = [[random_element(f, rng, 2) for _ in range(2)] for _ in range(2)]
    rows = [[b[i % 2][j % 2] if i // 2 == j // 2 else f.zero() for j in range(4)] for i in range(4)]
    want = minimal_poly_by_solves(rows, f)

    def refuse(self):
        raise AssertionError("inverse called")

    monkeypatch.setattr(CycloElement, "inverse", refuse)
    got = minimal_poly(rows, f)
    assert got == want
    assert len(got) == 3


def test_minimal_poly_at_a_large_conductor_needs_no_elimination(rs, monkeypatch):
    def refuse(field, outs, rows):
        raise AssertionError("minimal_poly eliminated")

    clear_caches()
    monkeypatch.setattr(recurrence, "_certified_rref", refuse)
    root = RootSpec(2, 1155, 1)
    rec = synthesize(rs, root, use_minimal=True)
    assert rec.provenance == "min_poly"
    assert rec.coefficients == synthesize(rs, root).coefficients


# char_poly's Berkowitz recursion on packed residues against Newton's identities over CycloElements


def _assert_char_poly_matches_newton(a, root, name):
    machine = recurrence._machine(a)
    rows, f = reduced_product_at_root(machine.padded, machine.span, root)
    assert char_poly(rows, f) == char_poly_newton_oracle(rows, f), (name, root)


def test_char_poly_matches_newton_on_the_machines_workload():
    # the reduced products of the benchmark's pattern machines, seeds 1-3, forward and reversed
    for seed in (1, 2, 3):
        for spec, e in stratum_patterns(seed):
            fwd = pattern_dfao(spec)
            for a in (fwd, reverse_dfao(fwd)):
                _assert_char_poly_matches_newton(a, RootSpec(spec.k, 5, e), (seed, spec))


def test_char_poly_matches_newton_over_a_shipped_sweep(shipped):
    for name, a in shipped + _irrational_machines():
        for rr in range(1, 36, 2):
            for ee in (1, 2):
                _assert_char_poly_matches_newton(a, RootSpec(2, rr, ee), name)


@pytest.mark.parametrize("r", (105, 1155))
def test_char_poly_matches_newton_at_large_conductors(rs, r):
    _assert_char_poly_matches_newton(rs, RootSpec(2, r, 1), "rudin_shapiro")


def test_char_poly_of_the_empty_matrix_is_one():
    for conductor in (1, 7):
        f = cyclo_field(conductor)
        assert char_poly([], f) == [f.one()]


def test_char_poly_slots_hold_a_coefficient_at_its_bound(monkeypatch):
    # in N = 7 M over Q(zeta_3) only the 3-cycle is nonzero, so det(y I - N) = y^3 - n_01 n_12 n_20,
    # -271 (11 w)^2 = 32791 (1 + w), and 32791 = 271 * 11 * 11 is the bound m_0 r_1 r_2: -271 is
    # 271 (w + w^2), of max norm 271; it is just past 2^15 - 1, the most that two-byte slots hold
    f = cyclo_field(3)
    zero, w = f.zero(), f.omega()
    n = [[zero, f.from_rational(-271), zero], [zero, zero, 11 * w], [11 * w, zero, zero]]
    rows = [[x / 7 for x in row] for row in n]
    want = char_poly_newton_oracle(rows, f)
    width = recurrence._char_poly_width
    assert width([[list(x.vec) for x in row] for row in n]) == 3
    assert char_poly(rows, f) == want
    # one byte short, the constant term no longer fits
    monkeypatch.setattr(recurrence, "_char_poly_width", lambda n: width(n) - 1)
    assert char_poly(rows, f) != want


# ----------------------------------------------------------------------
# synthesis at fixed roots


def test_char_poly_slots_take_the_l2_bound_on_rudin_shapiro(rs, monkeypatch):
    # on the product as the levels leave it at r = 1155, the l1 bound asks 9 bytes
    # and the l2 bound 8; one byte less gives a polynomial other than Newton's
    machine, root = recurrence._machine(rs), RootSpec(2, 1155, 1)
    table, den = machine.table(1155)
    vecs, den, f = recurrence._reduced_product(machine.padded, table, den, root, machine.parseval)
    want = char_poly_newton_oracle(recurrence._elements(vecs, den, f), f)
    width = recurrence._char_poly_width
    assert width(vecs) == 8 and recurrence._char_poly(vecs, den, f) == want
    monkeypatch.setattr(recurrence, "_char_poly_width", lambda n: width(n) - 1)
    assert recurrence._char_poly(vecs, den, f) != want


def test_synthesis_order_two_machine(rs):
    rec = synthesize(rs, RootSpec(2, 3, 1, s=2))
    assert rec.order == 2
    assert rec.integer_coefficients() == [4, -1, 1]
    assert rec.provenance == "char_poly"
    assert rec.pretty() == "A(2^4 n) - A(2^2 n) + 4*A(n) = 0"


def test_synthesis_at_root_one(rs):
    rec = synthesize(rs, RootSpec(2, 3, 0, s=2))
    assert rec.integer_coefficients() == [4, -4, 1]


def test_synthesis_order_one_machine(tm):
    rec = synthesize(tm, RootSpec(2, 3, 1))
    assert rec.order == 1
    assert rec.integer_coefficients() == [-3, 1]


def test_synthesis_minimal_option(tm, rs):
    # a 1x1 reduced matrix has equal minimal and characteristic data
    a = synthesize(tm, RootSpec(2, 3, 1), use_minimal=True)
    b = synthesize(tm, RootSpec(2, 3, 1))
    assert [c.pretty() for c in a.coefficients] == [c.pretty() for c in b.coefficients]
    assert a.provenance == "min_poly"
    # an irreducible quadratic stays order two
    rec = synthesize(rs, RootSpec(2, 3, 1, s=2), use_minimal=True)
    assert rec.order == 2
    assert verify(rec, rs, 30).all_zero


def test_recurrence_pretty_frozen():
    f3, f15 = cyclo_field(3), cyclo_field(15)
    w = f3.omega()
    coeffs = [-3, f15.omega_power(4) - 1, -1, Fraction(2, 3), -1]
    rec = Recurrence(2, RootSpec(2, 15, 1), [f15.coerce(c) for c in coeffs], "char_poly")
    assert rec.pretty() == (
        "-A(2^16 n) + 2/3*A(2^12 n) - A(2^8 n) + (-1 + w^4)*A(2^4 n) - 3*A(n) = 0"
    )
    rec = Recurrence(2, RootSpec(2, 3, 1), [1 + w, f3.from_rational(-2), w], "char_poly")
    assert rec.pretty() == "(w)*A(2^4 n) - 2*A(2^2 n) + (1 + w)*A(n) = 0"


def test_recurrence_json_record(rs):
    root = RootSpec(2, 3, 1, s=2)
    rec = synthesize(rs, root)
    rec.verified_to = 10
    d = rec.to_json_dict()
    assert d["k"] == 2 and d["r"] == 3 and d["e"] == 1 and d["r0"] == 3
    assert d["s"] == 2 and d["order"] == 2
    assert d["provenance"] == "char_poly"
    assert d["verified_to"] == 10
    assert [c["pretty"] for c in d["coefficients"]] == ["4", "-1", "1"]


# ----------------------------------------------------------------------
# partial sums: the block evaluator against literal summation


def test_partial_sums_agree_with_direct_summation(shipped):
    probes = (1, 2, 3, 7, 19, 64, 100, 257)
    roots = ((3, 1), (5, 2), (7, 3), (1, 0), (9, 1), (15, 4))
    for name, a in shipped:
        for rr, ee in roots:
            root = RootSpec(2, rr, ee)
            for n in probes:
                slow = partial_sum_value(a, n, root)
                fast = partial_sum_fast(a, n, root)
                assert slow == fast, (name, rr, ee, n)


def test_partial_sum_definition(tm):
    root = RootSpec(2, 9, 1)
    w = root.omega
    acc = root.field.zero()
    p = root.field.one()
    for m in range(25):
        acc = acc + sequence_term(tm, m) * p
        p = p * w
    assert partial_sum_value(tm, 25, root) == acc
    assert partial_sum_fast(tm, 25, root) == acc


def test_block_sums_handle_huge_arguments(rs):
    # climb to A(4^28 * 977) through the order-two recurrence, starting
    # from two literal sums; the block evaluator must land on the same
    # element
    root = RootSpec(2, 3, 1, s=2)
    a0 = partial_sum_value(rs, 977, root)
    a1 = partial_sum_value(rs, 4 * 977, root)
    four = root.field.from_rational(4)
    for _ in range(27):
        a0, a1 = a1, a1 - four * a0
    assert partial_sum_fast(rs, 4**28 * 977, root) == a1


# reading a most-significant 0 moves the backward machine off state a's output
_ZERO_SENSITIVE = [[1, 2], [2, 0], [1, 1]]
# delta(q, 0) = q: the same machine shape, safe under zero padding
_ZERO_FIXED = [[0, 2], [1, 0], [2, 1]]


def _irrational_machines(backward_delta=_ZERO_FIXED):
    """Backward machines and Q(zeta_3) outputs, both reading directions.

    On _ZERO_SENSITIVE the api backward machine changes its output on a
    most-significant zero, so synthesis and verify read it through pairs.
    """
    f3 = cyclo_field(3)
    outs = [f3.one() + f3.omega(), f3.omega() / 2, 0]
    out = [
        ("api forward", Dfao(2, FORWARD, "abc", outs, _ZERO_SENSITIVE)),
        ("api backward", Dfao(2, BACKWARD, "abc", outs, backward_delta)),
    ]
    for spec in (PatternSpec(2, (0, 1, 0), 3), PatternSpec(2, (1, 1), 3)):
        a = pattern_dfao(spec)
        out += [(repr(spec), a), (repr(spec) + " reversed", reverse_dfao(a))]
    return out


def test_block_sums_with_irrational_outputs_agree_with_direct_summation(bs):
    # gcd(3, r0) is 1 for r0 = 5 and 3 for r0 = 3, 9, 15
    roots = ((3, 1), (5, 2), (9, 1), (9, 6), (15, 4), (15, 5))
    probes = (0, 1, 2, 13, 64, 3**7)
    for name, a in _irrational_machines(_ZERO_SENSITIVE) + [("baum_sweet", bs)]:
        for rr, ee in roots:
            root = RootSpec(2, rr, ee)
            for n in probes:
                want = partial_sum_value(a, n, root)
                assert partial_sum_fast(a, n, root) == want, (name, rr, ee, n)


def _direct_buckets(a, r0, ns):
    """Per n in ns, slot j*m + i: coefficient of zeta_m^i in the sum of a(t), t < n, t = j mod r0."""
    m = a.output_field.conductor
    vec = [0] * (r0 * m)
    out = {}
    for t in range(max(ns) + 1):
        if t in ns:
            out[t] = list(vec)
        j = t % r0
        v = sequence_term(a, t)
        for i, x in enumerate(v.vec):
            vec[j * m + i] += Fraction(x, v.den)
    return out


def test_block_sums_full_blocks_cached_per_asked_length(shipped):
    # the full-block sums are kept only for the word lengths asked for, and
    # every query order gives the same vectors
    huge = 4**28 * 977
    small = list(range(41)) + [64, 100, 3**7]
    ns = small + [1000, 12345, huge, huge + 1, 2 * huge]
    machines = shipped + _irrational_machines(_ZERO_SENSITIVE)
    for name, a in machines:
        for r0 in (3, 5, 9, 15):
            orders = [sorted(ns), sorted(ns, reverse=True), random.Random(r0).sample(ns, len(ns))]
            got = []
            for order in orders:
                bs = BlockSums(a, r0)
                got.append({n: bs.bucket_vector(n) for n in order})
                asked = {len(expansion(n, a.base)) for n in order if n}
                assert set(bs._full) <= asked | {1}, (name, r0)
            assert got[0] == got[1] == got[2], (name, r0)
            for n, want in _direct_buckets(a, r0, small).items():
                assert got[0][n] == want, (name, r0, n)
    # partial sums built from a cache filled in shuffled order
    blocksum_oracle._BLOCKS.clear()
    for name, a in machines:
        for rr, ee in ((9, 2), (15, 5), (7, 1)):
            root = RootSpec(2, rr, ee)
            for n in random.Random(rr).sample(small[:41:3] + [64, 100], 16):
                assert partial_sum_fast(a, n, root) == partial_sum_value(a, n, root), (name, rr, n)


def _literal_residuals(rec, a, n_max):
    """The residuals at n = 1, ..., n_max, with A(k^(js) n; w) summed term by term.

    The running sum keeps the a(m) of each class m mod r0 apart, as w^m
    depends on that class only.
    """
    root = rec.root
    args = {n * root.k ** (root.s * j) for n in range(1, n_max + 1) for j in range(rec.order + 1)}
    powers = [root.omega**j for j in range(root.r0)]
    classes = [a.output_field.zero()] * root.r0
    sums = {}
    for m in range(max(args) + 1):
        if m in args:
            sums[m] = sum((c * x for c, x in zip(classes, powers)), root.field.zero())
        classes[m % root.r0] += sequence_term(a, m)
    return [
        sum((c * sums[n * root.k ** (root.s * j)] for j, c in enumerate(rec.coefficients)), root.field.zero())
        for n in range(1, n_max + 1)
    ]


def test_backward_machine_that_reads_a_leading_zero_as_a_change_synthesizes():
    # synthesis counts zero-padded words; like verify, it reads such a machine
    # through the pairs (current state, state at the last nonzero digit)
    sensitive = _irrational_machines(_ZERO_SENSITIVE)[1][1]
    rational = Dfao(2, BACKWARD, "abc", [1, 2, 0], _ZERO_SENSITIVE)
    for rr, ee in ((3, 1), (5, 2), (7, 1), (9, 2), (9, 6), (15, 5), (1, 0)):
        root = RootSpec(2, rr, ee)
        cases = [
            (sensitive, synthesize(sensitive, root)),
            (sensitive, synthesize(sensitive, root, use_minimal=True)),
            (rational, integer_recurrence(rational, root)),
        ]
        for a, rec in cases:
            # the block evaluator, which test_block_sums_with_irrational_outputs_*
            # ties to literal summation on this machine, checks every n <= 60;
            # literal running sums wherever the arguments k^(js) n stay small
            assert verify_by_terms(rec, a, 60).all_zero, (rr, ee, rec.provenance)
            if rec.order * root.s <= 8:
                assert not any(_literal_residuals(rec, a, 60)), (rr, ee, rec.provenance)
            assert verify(rec, a, 60).all_zero, (rr, ee, rec.provenance)
    # a 0-transition may move the machine, as long as the output stays
    keeps = Dfao(2, BACKWARD, "abc", [1, 1, 2], [[1, 2], [0, 2], [2, 2]])
    assert verify(synthesize(keeps, RootSpec(2, 5, 1)), keeps, 20).all_zero


def test_machines_that_move_on_a_padding_zero_verify():
    # forward with delta(q0, 0) != q0: padded words start elsewhere, also at r = 1;
    # backward with a zero that changes the output: its forward reading synthesizes
    f3 = cyclo_field(3)
    for outs in ([1, 2, 0], [f3.one() + f3.omega(), f3.omega() / 2, 0]):
        fwd = Dfao(2, FORWARD, "abc", outs, _ZERO_SENSITIVE)
        bwd = Dfao(2, BACKWARD, "abc", outs, _ZERO_SENSITIVE)
        for rr, ee in ((1, 0), (3, 1), (5, 2), (9, 6)):
            root = RootSpec(2, rr, ee)
            assert verify(synthesize(fwd, root), fwd, 30).all_zero, (outs, rr, ee)
            assert verify(synthesize(reverse_dfao(bwd), root), bwd, 30).all_zero, (outs, rr, ee)


def test_verify_rejects_a_negative_bound(tm):
    rec = synthesize(tm, RootSpec(2, 3, 1))
    with pytest.raises(AutorecError, match="nonnegative"):
        verify(rec, tm, -4)
    assert verify(rec, tm, 0).all_zero


def test_verify_does_no_field_multiplication(monkeypatch):
    # the word sums and the scan stay integer vectors mod x^L - 1, however
    # irrational the outputs are
    fwd = pattern_dfao(PatternSpec(2, (0, 1, 0), 3))
    cases = [(synthesize(a, RootSpec(2, 5, 2)), a) for a in (fwd, reverse_dfao(fwd))]
    muls = [0]
    mul = CycloElement.__mul__

    def counted_mul(self, other):
        muls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(CycloElement, "__mul__", counted_mul)
    monkeypatch.setattr(CycloElement, "__rmul__", counted_mul)
    for rec, a in cases:
        assert verify(rec, a, 30).all_zero
    assert muls[0] == 0


def test_verify_takes_no_normal_form(rs, monkeypatch):
    # zero is decided on packed residues times e_L: no normal form, no unpacking and
    # no packed field product, also while the padded machine is built on a cold cache
    f3 = cyclo_field(3)
    outs = [f3.one() + f3.omega(), f3.omega() / 2, 0]
    pattern = pattern_dfao(PatternSpec(2, (0, 1, 0), 3))
    cases = []
    for a in (
        Dfao(2, FORWARD, "abc", outs, _ZERO_SENSITIVE),
        Dfao(2, BACKWARD, "abc", outs, _ZERO_SENSITIVE),
        pattern,
        reverse_dfao(pattern),
        rs,
    ):
        for root in (RootSpec(2, 7, 1), RootSpec(2, 105, 2)):
            rec = synthesize(a, root)
            cases += [(rec, a), (_perturbed(rec, 0), a)]
    calls = dict.fromkeys(("_normal", "_unpack", "_kronecker"), 0)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(CycloField, "_normal", counted("_normal", CycloField._normal))
    for module in (numberfield, recurrence):
        monkeypatch.setattr(module, "_unpack", counted("_unpack", numberfield._unpack))
    monkeypatch.setattr(numberfield, "_kronecker", counted("_kronecker", numberfield._kronecker))
    clear_caches()
    reports = [verify(rec, a, 10**4) for rec, a in cases]
    assert calls == dict.fromkeys(calls, 0)
    assert {r.all_zero for r in reports} == {True, False}


def test_synthesis_miss_takes_d_normal_forms_and_no_field_product(rs, tm, monkeypatch):
    # only the d coefficients of the characteristic polynomial take a normal form, and no
    # field product is made, with use_minimal too when the product is non-derogatory, as
    # every one here is; the machines and the fields are built before counting
    pattern = pattern_dfao(PatternSpec(2, (0, 1, 0), 3))
    machines, roots = [rs, tm, pattern, reverse_dfao(pattern)], [RootSpec(2, r, 1) for r in (7, 105)]
    clear_caches()
    for a in machines:
        recurrence._machine(a).span
        for root in roots:
            cyclo_field(math.lcm(a.output_field.conductor, root.r0))
    calls = dict.fromkeys(("_normal", "_kronecker"), 0)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(CycloField, "_normal", counted("_normal", CycloField._normal))
    monkeypatch.setattr(numberfield, "_kronecker", counted("_kronecker", numberfield._kronecker))
    orders = set()
    for a in machines:
        for root in roots:
            for use_minimal in (False, True):
                recurrence._machine(a).polys.clear()
                calls.update(_normal=0, _kronecker=0)
                rec = synthesize(a, root, use_minimal)
                assert calls == {"_normal": rec.order, "_kronecker": 0}, (a, root, use_minimal)
                assert rec.order == recurrence._machine(a).span.rank
                orders.add(rec.order)
    assert orders == {1, 2, 4}


def _exact_combines(monkeypatch) -> list:
    """Make each packed sum of recurrence._combine assert that it unpacks to the exact sum of its unpacked terms.

    Returns the one-item list that counts the sums.
    """
    combine, sums = recurrence._combine, [0]

    def exact(terms, width, L):
        got = combine(terms, width, L)
        full = (1 << 8 * width * L) - 1
        want = level_oracle.shift_sum([(numberfield._unpack(v % full, width, L), p, c) for v, p, c in terms], L)
        assert numberfield._unpack(got, width, L) == want
        sums[0] += 1
        return got

    monkeypatch.setattr(recurrence, "_combine", exact)
    return sums


def test_verify_residues_fit_their_slots(monkeypatch):
    # every packed sum verify forms, the Horner steps and the backward tuple sums,
    # unpacks to the exact sum of its unpacked terms: the width holds, for outputs
    # near a slot's edge and perturbed recurrences whose rho is far from zero
    sums = _exact_combines(monkeypatch)
    rng = random.Random(5)
    failures = 0
    for _ in range(60):
        size = rng.randint(2, 6)
        delta = [[rng.randrange(size) for _ in range(2)] for _ in range(size)]
        outs = [rng.choice((0, 1, -3, 127, -128, 255)) for _ in range(size)]
        a = Dfao(2, BACKWARD, [f"s{i}" for i in range(size)], outs, delta)
        try:
            source = reverse_dfao(a, 60)
        except AutorecError:
            continue  # a reversal of thousands of states: a span analysis of seconds
        for r in (1, 3, 5):
            rec = synthesize(source, RootSpec(2, r, 1))
            for j in range(rec.order + 1):
                cand = _perturbed(rec, j)
                if not cand.coefficients[-1].is_zero():
                    failures += not verify(cand, a, 10**4).all_zero
    assert failures > 100 and sums[0] > 1000


def test_verify_residues_fit_their_slots_over_fractional_cells(monkeypatch):
    # outputs over denominators give M-hat fractional cells, and the Horner steps
    # then carry D^(l-j) C_j, D = den^s: the width holds those sums too, forward
    # and backward, for coefficients perturbed by 1 and by 10^6
    sums = _exact_combines(monkeypatch)
    outs = (0, 1, -1, 127, -128, Fraction(1, 3), Fraction(255, 7), Fraction(10**6, 3**9))
    failures = 0
    for a in _random_machines(random.Random(3), 60, outs):
        for r in (1, 5, 7):
            rec = synthesize(a, RootSpec(a.base, r, 1))
            for j in range(rec.order + 1):
                for x in (1, 10**6):
                    coeffs = list(rec.coefficients)
                    coeffs[j] = coeffs[j] + x
                    if not coeffs[-1].is_zero():
                        failures += not verify(Recurrence(a.base, rec.root, coeffs, "perturbed"), a, 10**4).all_zero
    assert failures > 1000 and sums[0] > 10000


def test_verify_term_slots_hold_the_alpha_factor(monkeypatch):
    # a forward term sums alpha_q over rho-hat, so its slots need the factor
    # ||d_q alpha_q||_1 on top of rho-hat's: here f_q = (f_A + f_B + f_C) / 3, q is
    # reached at m = 1 and the generators A, B, C after it; at w = 1 the recurrence
    # 455 A(6 n) - 58240 A(n) has term 0 at m = 0 and 9 rho(q) = -(2^24 - 1) at q,
    # while rho-hat's slots fit 3 bytes: a width without the factor reads the term
    # of q as 0 mod 2^24 - 1 and reports n = 3, the term of A
    sums = _exact_combines(monkeypatch)
    S, L1, L2, Lm, A, B, C, q = range(1, 9)
    sink = [S] * 6
    delta = [
        [0, q, A, B, C, Lm],
        sink, sink, sink, sink,  # S, and the leaves of outputs 1, 2 and -1
        [Lm, L2, S, S, S, S],
        [Lm, Lm, L1, S, S, S],
        [Lm, Lm, Lm, S, S, S],
        [Lm, S, S, S, S, S],
    ]
    a = Dfao(6, FORWARD, [f"s{i}" for i in range(9)], [1, 0, 1, 2, -1, 32, 32, 32, 32], delta)
    span = recurrence._machine(a).span
    assert span.generators == [0, L1, A, B, C] and [c.rational_value() for c in span.alphas[q]][2:] == [Fraction(1, 3)] * 3
    rec = Recurrence(6, RootSpec(6, 1, 0), [-58240, 455], "designed")
    want = verify_by_normal_forms(rec, a, 100).to_json_dict()
    assert want["first_failure"] == 2 and verify(rec, a, 100).to_json_dict() == want
    assert sums[0] > 0


@pytest.mark.parametrize("build, r, most", ((synthesize, 105, 10), (integer_recurrence, 273, 1)))
def test_large_conductor_synthesis_makes_few_field_products(rs, monkeypatch, build, r, most):
    # the characteristic polynomial is formed on packed residues and the coset
    # product runs mod split primes
    calls = [0]
    kronecker = numberfield._kronecker

    def counted(a, b):
        calls[0] += 1
        return kronecker(a, b)

    monkeypatch.setattr(numberfield, "_kronecker", counted)
    clear_caches()
    build(rs, RootSpec(2, r, 1))
    assert calls[0] <= most


def test_verify_takes_as_many_zero_tests_for_any_bound(monkeypatch):
    # one packed zero test per distinct state met forward and per distinct state
    # tuple met backward, none per n; a passing recurrence has rho-hat = 0 and makes
    # none in either direction, where the full machine's scan tested 20 tuples of
    # reversed (2, 010, 3) and 13 of reversed (3, 12, 3) up to the bound
    count = [0]
    first_failure = recurrence._first_failure

    def counted_first_failure(start, step, base, nonzero):
        def counted(state):
            count[0] += 1
            return nonzero(state)

        return first_failure(start, step, base, counted)

    def counted_verify(rec, a, n_max):
        clear_caches()  # a cold verify: no verdict comes from the cache
        before = count[0]
        report = verify(rec, a, n_max)
        return count[0] - before, report.first_failure

    monkeypatch.setattr(recurrence, "_first_failure", counted_first_failure)
    bounds = (10**4, 10**8, 10**12)
    for spec in (PatternSpec(2, (0, 1, 0), 3), PatternSpec(3, (1, 2), 3)):
        for a in (pattern_dfao(spec), reverse_dfao(pattern_dfao(spec))):
            rec = synthesize(a, RootSpec(spec.k, 7, 1))
            assert [counted_verify(rec, a, n_max) for n_max in bounds] == [(0, None)] * 3, (spec, a.direction)
            got = [counted_verify(_perturbed(rec, 0), a, n_max) for n_max in bounds]
            assert got == got[:1] * 3 and got[0][0] > 0, (spec, a.direction)


# ----------------------------------------------------------------------
# verification


def test_verify_passes_for_synthesized(shipped):
    for name, a in shipped:
        for rr, ee in ((3, 1), (7, 2)):
            rec = synthesize(a, RootSpec(2, rr, ee))
            rep = verify(rec, a, 40)
            assert rep.all_zero and rep.first_failure is None, (name, rr, ee)
            assert rep.n_max == 40


def test_verify_rejects_tampered_recurrence(rs):
    root = RootSpec(2, 3, 1, s=2)
    good = synthesize(rs, root)
    coeffs = (root.field.from_rational(5),) + good.coefficients[1:]
    bad = type(good)(2, root, coeffs, "tampered")
    rep = verify(bad, rs, 10)
    assert not rep.all_zero
    assert rep.first_failure == 1
    assert rep.to_json_dict() == {"n_max": 10, "all_zero": False, "first_failure": 1}


def test_verify_accepts_api_built_automaton_with_irrational_outputs():
    # 1 + zeta_3 is neither rational nor a root of unity, so the automaton
    # has no text form; verification must still work on it
    f3 = cyclo_field(3)
    a = Dfao(2, FORWARD, ["s0", "s1"], [f3.one() + f3.omega(), 1], [[0, 1], [1, 0]])
    for rr, ee in ((5, 1), (7, 3)):
        rec = synthesize(a, RootSpec(2, rr, ee))
        assert verify(rec, a, 30).all_zero, (rr, ee)


def test_verify_takes_coefficients_written_in_a_larger_field(tm):
    # thue_morse at zeta_5 verifies in Q(zeta_5); the same coefficients written in
    # Q(zeta_15) are the same recurrence, and a wrong one fails at the same n
    root = RootSpec(2, 5, 1)
    f15 = cyclo_field(15)
    rec = synthesize(tm, root)
    for coeffs in (rec.coefficients, (rec.coefficients[0] + 1,) + rec.coefficients[1:]):
        narrow = Recurrence(2, root, coeffs, "char_poly")
        wide = Recurrence(2, root, [f15.coerce(c) for c in coeffs], "char_poly")
        assert verify(wide, tm, 100).to_json_dict() == verify(narrow, tm, 100).to_json_dict()
    # a value outside Q(zeta_5) is a domain error, not a failed coercion
    outside = Recurrence(2, root, [f15.omega(), f15.one()], "char_poly")
    with pytest.raises(AutorecError, match="outside"):
        verify(outside, tm, 100)


def test_caches_keep_equal_machines_over_different_fields_apart(tm):
    # the same Thue-Morse machine with outputs typed in Q(zeta_3): its reduced
    # matrix equals the rational one, but cached syntheses must not be shared
    f3 = cyclo_field(3)
    a3 = Dfao(2, FORWARD, ["s0", "s1"], [f3.from_rational(1), f3.from_rational(-1)], [[0, 1], [1, 0]])
    root = RootSpec(2, 5, 1)
    clear_caches()
    cold = synthesize(tm, root).coefficients
    clear_caches()
    assert verify(synthesize(a3, root), a3, 30).all_zero
    rec = synthesize(tm, root)
    assert rec.coefficients == cold
    assert verify(rec, tm, 30).all_zero
    # nor may verify's padded machines: a3's recurrence, written over Q(zeta_15), descends
    # into tm's Q(zeta_5) alike on a cold cache and on one that holds a3's machine

    def outcome(rec, a):
        try:
            return verify(rec, a, 30).to_json_dict()
        except ValueError as exc:
            return str(exc)

    pairs = [(r, a) for r in (rec, synthesize(a3, root)) for a in (tm, a3)]
    cold = []
    for r, a in pairs:
        clear_caches()
        cold.append(outcome(r, a))
    assert cold[2] == {"n_max": 30, "all_zero": True, "first_failure": None}
    assert [outcome(r, a) for r, a in pairs] == cold
    assert len(recurrence._MACHINE_CACHE) == 2


def test_cache_key_tells_outputs_apart_by_denominator():
    # 1/2 and 1/3 share the numerator vector (1,): a key on numerators alone
    # would hand the second machine the first one's recurrence
    half_third = Dfao(2, FORWARD, "ab", [Fraction(1, 2), Fraction(1, 3)], [[0, 1], [1, 0]])
    third_half = Dfao(2, FORWARD, "ab", [Fraction(1, 3), Fraction(1, 2)], [[0, 1], [1, 0]])
    assert recurrence._structure(half_third) != recurrence._structure(third_half)
    root = RootSpec(2, 3, 1)
    clear_caches()
    for a in (half_third, third_half):
        assert verify(synthesize(a, root), a, 30).all_zero


def _count_calls(monkeypatch, *names):
    """Count the calls that recurrence makes to its functions of the given names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(recurrence, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(recurrence, name, counted)
    return calls


def test_sweep_matches_cold_synthesis(shipped):
    # a root reached by a Galois map from the first root of its class must read
    # exactly as one synthesized from empty caches, whatever order the sweep takes;
    # with Q(zeta_3) outputs, g = gcd(3, r0) is 3 at r0 = 3, 9, 15, 21 and 1 at 5, 7
    roots = [RootSpec(2, rr, ee) for rr in (1, 3, 5, 9, 15, 21) for ee in range(rr)]
    shuffled = random.Random(7).sample(range(len(roots)), len(roots))
    for name, a in shipped + _irrational_machines():
        for use_minimal in (False, True):
            cold = []
            for root in roots:
                clear_caches()
                cold.append(synthesize(a, root, use_minimal).to_json_dict())
            for order in (range(len(roots)), shuffled):
                clear_caches()
                got = {i: synthesize(a, roots[i], use_minimal).to_json_dict() for i in order}
                for i, want in enumerate(cold):
                    assert got[i] == want, (name, use_minimal, roots[i])


def test_second_root_of_a_class_reuses_the_construction(tm, monkeypatch):
    calls = _count_calls(monkeypatch, "span_analysis", "_char_poly")
    clear_caches()
    synthesize(tm, RootSpec(2, 7, 1))
    assert calls == {"span_analysis": 1, "_char_poly": 1}
    # over Q one class per conductor: zeta_7^3 and zeta_21^6 = zeta_7^2
    for root in (RootSpec(2, 7, 3), RootSpec(2, 21, 6)):
        assert verify(synthesize(tm, root), tm, 30).all_zero
    assert calls == {"span_analysis": 1, "_char_poly": 1}
    # Q(zeta_3) outputs at r0 = 9: the classes are u = 1 and u = 2 (mod 3); one span per structure
    a = _irrational_machines()[2][1]
    for e, built in ((1, 2), (4, 2), (7, 2), (2, 3), (8, 3)):
        rec = synthesize(a, RootSpec(2, 9, e))
        assert calls == {"span_analysis": 2, "_char_poly": built}, e
        assert verify(rec, a, 20).all_zero, e


def test_one_machine_entry_serves_synthesis_integer_recurrence_and_verify(rs, monkeypatch):
    calls = _count_calls(monkeypatch, "span_analysis", "_pad_invariant")
    roots = [RootSpec(2, r, 1) for r in (3, 5, 15)]
    intrec_root = RootSpec(2, 7, 1)
    clear_caches()
    warm = [synthesize(rs, root).to_json_dict() for root in roots]
    rec = integer_recurrence(rs, intrec_root)
    report = verify(rec, rs, 60)
    assert report.all_zero
    warm += [rec.to_json_dict(), report.to_json_dict()]
    assert calls == {"span_analysis": 1, "_pad_invariant": 1}
    (machine,) = recurrence._MACHINE_CACHE.values()
    assert machine.span.witness_words == () and machine.span.rank == 2
    cold = []
    for root in roots:
        clear_caches()
        cold.append(synthesize(rs, root).to_json_dict())
    clear_caches()
    cold.append(integer_recurrence(rs, intrec_root).to_json_dict())
    clear_caches()
    cold.append(verify(rec, rs, 60).to_json_dict())
    assert cold == warm


def _sweep_cases(a, roots):
    """Per root, its synthesized recurrence, its C_0 + 1 perturbation and its extension by 1 A(k^((l+1)s) n).

    At a root of conductor r also the e = 1 recurrence, passed unchanged: no conjugate where it is irrational.
    """
    first = {root.r: synthesize(a, RootSpec(2, root.r, 1)).coefficients for root in roots}
    cases = []
    for root in roots:
        rec = synthesize(a, root)
        longer = Recurrence(2, root, rec.coefficients + (root.field.one(),), "extended")
        cases += [rec, _perturbed(rec, 0), longer]
        if root.r0 == root.r:
            cases.append(Recurrence(2, root, first[root.r], "unchanged"))
    return cases


def test_verify_sweep_matches_cold_verify(shipped, monkeypatch):
    # a verdict taken from the first recurrence verified in a Galois class must read
    # exactly as a cold verify, whatever order the sweep takes; with Q(zeta_3) outputs
    # the classes are u mod 3 at r0 = 3, 9, 15, 21
    roots = [RootSpec(2, rr, ee) for rr in (1, 3, 5, 9, 15, 21) for ee in range(rr)]
    calls = _count_calls(monkeypatch, "_scan")
    taken = {True: 0, False: 0}  # verdicts taken from the cache, by all_zero
    for name, a in shipped + _irrational_machines():
        cases = _sweep_cases(a, roots)
        cold = []
        for rec in cases:
            clear_caches()
            cold.append(verify(rec, a, 40).to_json_dict())
        assert {c["all_zero"] for c in cold} == {True, False}, name
        for order in (range(len(cases)), random.Random(7).sample(range(len(cases)), len(cases))):
            clear_caches()
            got = {}
            for i in order:
                scans = calls["_scan"]
                got[i] = verify(cases[i], a, 40).to_json_dict()
                taken[got[i]["all_zero"]] += calls["_scan"] == scans
            for i, want in enumerate(cold):
                assert got[i] == want, (name, cases[i].root, cases[i].provenance)
    assert min(taken.values()) > 200


def test_verify_scans_once_per_galois_class(tm, monkeypatch):
    calls = _count_calls(monkeypatch, "_scan")
    # over Q one class per conductor: r0 = 1, 3, 7, 21
    for e in range(21):
        assert verify(synthesize(tm, RootSpec(2, 21, e)), tm, 100).all_zero
    assert calls["_scan"] == 4
    # Q(zeta_3) outputs at r = 9: r0 = 1, and u = 1, 2 (mod 3) at r0 = 3 and 9
    a = _irrational_machines()[3][1]
    for e in range(9):
        assert verify(synthesize(a, RootSpec(2, 9, e)), a, 100).all_zero
    assert calls["_scan"] == 9
    # another bound reads the same entry
    verify(synthesize(a, RootSpec(2, 9, 1)), a, 50)
    assert calls["_scan"] == 9


def test_verify_cache_evicts_the_least_recently_used_entry(tm, monkeypatch):
    monkeypatch.setattr(recurrence, "_CACHE_SIZE", 2)
    calls = _count_calls(monkeypatch, "_scan")
    recs = {(r, e): synthesize(tm, RootSpec(2, r, e)) for r in (3, 5, 7) for e in (1, 2)}
    for r in (3, 5):
        verify(_perturbed(recs[r, 1], 0), tm, 30)
    verify(_perturbed(recs[3, 2], 0), tm, 30)  # a hit: conductor 3 is now the most recent
    verify(recs[7, 1], tm, 30)  # evicts conductor 5
    assert calls["_scan"] == 3 and len(recurrence._machine(tm).failures) == 2
    assert verify(_perturbed(recs[3, 1], 0), tm, 30).first_failure == 1
    assert calls["_scan"] == 3
    assert verify(_perturbed(recs[5, 2], 0), tm, 30).first_failure == 1
    assert calls["_scan"] == 4


def test_clear_caches_empties_the_verify_cache(tm, monkeypatch):
    calls = _count_calls(monkeypatch, "_scan")
    rec = synthesize(tm, RootSpec(2, 5, 1))
    verify(rec, tm, 30)
    verify(rec, tm, 30)
    assert calls["_scan"] == 1 and len(recurrence._machine(tm).failures) == 1
    clear_caches()
    assert not recurrence._MACHINE_CACHE
    verify(rec, tm, 30)
    assert calls["_scan"] == 2


def test_equal_automata_share_one_machine_polynomial_and_first_failure(monkeypatch):
    # the same text parsed twice: two Dfao objects of one structure, so one machine
    # serves both, and its polynomial and first failure are each found once
    calls = _count_calls(monkeypatch, "_char_poly", "_scan")
    a, b = parse_dfao(TM_ZETA3), parse_dfao(TM_ZETA3)
    assert a is not b and recurrence._structure(a) == recurrence._structure(b)
    root = RootSpec(2, 5, 1)
    bad = _perturbed(synthesize(a, root), 0)
    got = [(synthesize(x, root).to_json_dict(), verify(bad, x, 30).to_json_dict()) for x in (a, b)]
    assert got[0] == got[1] and got[0][1]["first_failure"] == 1
    assert calls == {"_char_poly": 1, "_scan": 1}
    assert len(recurrence._MACHINE_CACHE) == 1 and recurrence._machine(a) is recurrence._machine(b)


def test_machine_keys_keep_the_step(tm, monkeypatch):
    # thue_morse at zeta_3: A(4 n) = 3 A(n) at s = 2 and A(16 n) = 9 A(n) at s = 4, two
    # polynomials on one machine; the coefficients of s = 2 read at s = 4 fail at n = 1
    calls = _count_calls(monkeypatch, "_char_poly", "_scan")
    recs = [synthesize(tm, RootSpec(2, 3, 1, s)) for s in (2, 4)]
    assert [rec.integer_coefficients() for rec in recs] == [[-3, 1], [-9, 1]]
    assert all(verify(rec, tm, 40).all_zero for rec in recs)
    assert verify(Recurrence(2, recs[1].root, recs[0].coefficients, "moved"), tm, 40).first_failure == 1
    machine = recurrence._machine(tm)
    assert [key[0] for key in machine.polys] == [2, 4] and [key[0] for key in machine.failures] == [2, 4, 4]
    assert calls == {"_char_poly": 2, "_scan": 3}


def test_machine_keys_keep_the_galois_class(monkeypatch):
    # Q(zeta_3) outputs in base 4 = 1 (mod 3), which keeps the classes u = 1 and 2 (mod 3)
    # apart (base 2 swaps them, and their polynomials agree): every e of r = 9 leaves one
    # polynomial and one first failure per class, r0 = 1 and u1 = 1, 2 at r0 = 3 and 9,
    # and the recurrence of one class fails at the other's root of the same u1
    f3 = cyclo_field(3)
    a = Dfao(4, FORWARD, "ab", [f3.omega(), 0], [[1, 0, 1, 1], [1, 1, 1, 1]])
    calls = _count_calls(monkeypatch, "_char_poly")
    recs = {e: synthesize(a, RootSpec(4, 9, e)) for e in range(9)}
    assert all(verify(rec, a, 40).all_zero for rec in recs.values())
    machine, classes = recurrence._machine(a), [(1, 0), (3, 1), (3, 2), (9, 1), (9, 2)]
    assert sorted(key[1:3] for key in machine.polys) == sorted(key[1:3] for key in machine.failures) == classes
    assert calls["_char_poly"] == 5
    for e, other in ((3, 6), (6, 3), (1, 2), (2, 1)):
        moved = Recurrence(4, RootSpec(4, 9, other), recs[e].coefficients, "moved")
        assert verify(moved, a, 40).first_failure == 1, (e, other)


def test_a_third_machine_evicts_the_least_recently_used_machine_with_its_entries(tm, rs, bs, monkeypatch):
    monkeypatch.setattr(recurrence, "_CACHE_SIZE", 2)
    calls = _count_calls(monkeypatch, "span_analysis", "_char_poly", "_scan")
    root = RootSpec(2, 3, 1)

    def run(a) -> tuple:
        rec = synthesize(a, root)
        return rec.to_json_dict(), verify(rec, a, 30).to_json_dict()

    first = {name: run(a) for name, a in (("tm", tm), ("rs", rs))}
    synthesize(tm, root)  # a hit: thue_morse is now the most recent
    evicted = recurrence._MACHINE_CACHE[recurrence._structure(rs)]
    run(bs)  # evicts rudin_shapiro's machine, its polynomial and its first failure
    assert list(recurrence._MACHINE_CACHE) == [recurrence._structure(a) for a in (tm, bs)]
    assert calls == {"span_analysis": 3, "_char_poly": 3, "_scan": 3}
    assert run(tm) == first["tm"] and calls == {"span_analysis": 3, "_char_poly": 3, "_scan": 3}
    assert run(rs) == first["rs"] and calls == {"span_analysis": 4, "_char_poly": 4, "_scan": 4}
    assert recurrence._machine(rs) is not evicted


def test_a_third_polynomial_evicts_only_its_machines_oldest_entry(tm, rs, monkeypatch):
    monkeypatch.setattr(recurrence, "_CACHE_SIZE", 2)
    calls = _count_calls(monkeypatch, "_char_poly")
    for r in (3, 5):
        synthesize(tm, RootSpec(2, r, 1))
    synthesize(rs, RootSpec(2, 3, 1))
    synthesize(tm, RootSpec(2, 7, 1))  # evicts thue_morse's conductor 3, not rudin_shapiro's
    assert [key[1] for key in recurrence._machine(tm).polys] == [5, 7]
    assert [key[1] for key in recurrence._machine(rs).polys] == [3]
    synthesize(rs, RootSpec(2, 3, 1))
    assert calls["_char_poly"] == 4
    synthesize(tm, RootSpec(2, 3, 1))
    assert calls["_char_poly"] == 5


def test_clear_caches_empties_every_cache_of_the_module(tm, rs):
    # a cache that clear_caches misses would carry results from one test into the next:
    # every OrderedDict and lru_cache of recurrence's own reads empty after it

    def sizes() -> dict:
        out = {}
        for name, v in vars(recurrence).items():
            if isinstance(v, OrderedDict):
                out[name] = len(v)
            elif hasattr(v, "cache_info") and v.__module__ == recurrence.__name__:
                out[name] = v.cache_info().currsize
        return out

    for a in (tm, rs):
        for e in range(9):
            verify(synthesize(a, RootSpec(2, 9, e)), a, 30)
    swept = sizes()
    assert {"_MACHINE_CACHE", "_frame"} <= set(swept) and all(swept.values()), swept
    clear_caches()
    assert sizes() == dict.fromkeys(swept, 0)


def test_a_repeated_sweep_finds_every_root_cached(tm, monkeypatch):
    # every e of r = 21 on thue_morse and of r = 9 on a Q(zeta_3) pattern machine, twice:
    # the second sweep finds each frame, polynomial and first failure cached, so it builds
    # no Galois map, runs no frame and no term table, polynomial or scan, and reports
    # what the first did; after clear_caches() a sweep does the first one's work again
    calls = _count_calls(monkeypatch, "_reduced_table", "_char_poly", "_scan")
    init = GaloisMap.__init__

    def counted_init(self, *args):
        calls["GaloisMap"] += 1
        init(self, *args)

    calls["GaloisMap"] = 0
    monkeypatch.setattr(GaloisMap, "__init__", counted_init)
    sweeps = ((tm, 21), (_irrational_machines()[3][1], 9))

    def sweep() -> tuple:
        before = {**calls, "_frame": recurrence._frame.cache_info().misses}
        reports = []
        for a, r in sweeps:
            for e in range(r):
                rec = synthesize(a, RootSpec(2, r, e))
                reports.append((rec.to_json_dict(), verify(rec, a, 40).to_json_dict()))
        after = {**calls, "_frame": recurrence._frame.cache_info().misses}
        return reports, {name: after[name] - before[name] for name in after}

    first, cold = sweep()
    assert all(cold.values()), cold
    second, warm = sweep()
    assert warm == dict.fromkeys(cold, 0) and second == first
    clear_caches()
    assert sweep() == (first, cold)


def test_sweep_order_changes_no_coefficient_and_no_build(tm, monkeypatch):
    # each class is built at its least unit u1 (_frame) and mapped by sigma_t, so the
    # order of a sweep decides neither a coefficient nor the number of polynomials:
    # over Q one per conductor of r = 21; Q(zeta_3) outputs at r = 9, one at r0 = 1
    # and two, u = 1 and 2 (mod 3), at r0 = 3 and at 9
    calls = _count_calls(monkeypatch, "_char_poly")
    for a, r, built in ((tm, 21, 4), (_irrational_machines()[3][1], 9, 5)):
        sweeps = []
        for order in (range(r), random.Random(11).sample(range(r), r)):
            clear_caches()
            before = calls["_char_poly"]
            got = {e: synthesize(a, RootSpec(2, r, e)).to_json_dict()["coefficients"] for e in order}
            sweeps.append(([got[e] for e in range(r)], calls["_char_poly"] - before))
        assert sweeps[0] == sweeps[1] and sweeps[0][1] == built, r


def test_one_recurrence_scans_once_for_every_bound(tm, monkeypatch):
    # the verify entry is the first failure over all n, kept without the bound: on this
    # backward machine, C_0 + 1 first fails at n = 9
    calls = _count_calls(monkeypatch, "_scan")
    a = Dfao(2, BACKWARD, "abcd", [0, -1, -1, 0], [[2, 0], [3, 3], [1, 0], [3, 1]])
    bad = _perturbed(synthesize(a, RootSpec(2, 5, 1)), 0)
    bounds = (8, 9, 10, 20, 30, 40)
    reports = [verify(bad, a, n_max).to_json_dict() for n_max in bounds]
    assert calls["_scan"] == 1 and [r["first_failure"] for r in reports] == [None] + [9] * 5
    assert reports == [verify_by_normal_forms(bad, a, n_max).to_json_dict() for n_max in bounds]
    # a synthesized recurrence, then one perturbed recurrence three times: one scan each
    clear_caches()
    verify(synthesize(tm, RootSpec(2, 7, 3)), tm, 30)
    for _ in range(3):
        verify(_perturbed(synthesize(tm, RootSpec(2, 7, 3)), 1), tm, 30)
    assert calls["_scan"] == 3


def test_verify_holds_on_a_backward_machine_of_zeros(monkeypatch):
    # state 0 outputs 0 and moves to state 1 (output 1) on a 0, and every 1 leads back
    # to state 0: each term is out(s0) = 0, state 0 is a generator and no pivot, and
    # rho-hat of C_0 + 1 is nonzero while every n passes, which only the scan shows
    a = Dfao(2, BACKWARD, ["s0", "s1"], [0, 1], [[1, 0], [0, 0]])
    calls = _count_calls(monkeypatch, "_first_failure")
    report = verify(_perturbed(synthesize(a, RootSpec(2, 5, 1)), 0), a, 10**12)
    assert calls["_first_failure"] == 1  # rho-hat != 0: the scan ran
    assert report.to_json_dict() == {"n_max": 10**12, "all_zero": True, "first_failure": None}


def test_verify_matches_the_bounded_oracle_around_the_first_failure(shipped):
    # verify keeps the first failure over all n: at bounds below, at and above it, warm
    # or cold, it reads as the bounded scan by normal forms
    machines = [a for _, a in shipped] + [pattern_dfao(spec) for spec, _ in stratum_patterns(2)[::4]]
    machines += [reverse_dfao(a) for a in machines] + _random_machines(random.Random(23), 16)
    seen = set()
    for a in machines:
        rec = synthesize(a, RootSpec(a.base, 5, 1))
        for j in range(rec.order + 1):
            cand = _perturbed(rec, j)
            if cand.coefficients[-1].is_zero():
                continue
            first = verify_by_normal_forms(cand, a, 10**6).first_failure
            bounds = (10**6,) if first is None else (first - 1, first, first + 1, 10**6)
            for n_max in bounds:
                want = verify_by_normal_forms(cand, a, n_max).to_json_dict()
                assert verify(cand, a, n_max).to_json_dict() == want, (a, j, n_max)
                clear_caches()
                assert verify(cand, a, n_max).to_json_dict() == want, (a, j, n_max)
            seen.add((a.direction, first is None, first is not None and first > 1))
    assert {(d, False, True) for d in (FORWARD, BACKWARD)} <= seen


def test_caches_evict_the_least_recently_used_entry(tm, monkeypatch):
    monkeypatch.setattr(recurrence, "_CACHE_SIZE", 2)
    calls = _count_calls(monkeypatch, "span_analysis", "_char_poly")
    clear_caches()
    first = {r: synthesize(tm, RootSpec(2, r, 1)).to_json_dict() for r in (3, 5)}
    synthesize(tm, RootSpec(2, 3, 2))  # a hit: conductor 3 is now the most recent
    synthesize(tm, RootSpec(2, 7, 1))  # evicts conductor 5
    assert calls == {"span_analysis": 1, "_char_poly": 3} and len(recurrence._machine(tm).polys) == 2
    assert synthesize(tm, RootSpec(2, 3, 1)).to_json_dict() == first[3]
    assert calls["_char_poly"] == 3
    assert synthesize(tm, RootSpec(2, 5, 1)).to_json_dict() == first[5]
    assert calls == {"span_analysis": 1, "_char_poly": 4}


def test_verify_budget_aborts(rs):
    rec = synthesize(rs, RootSpec(2, 3, 1, s=2))
    with pytest.raises(BudgetError):
        verify(rec, rs, 10_000, budget=50)


def test_verify_rejects_a_negative_budget(rs):
    # before, budget -1 ran out at n = 1 and, with n_max = 0, passed
    rec = synthesize(rs, RootSpec(2, 3, 1))
    for n_max in (0, 10):
        with pytest.raises(AutorecError, match="budget must be nonnegative, got -1"):
            verify(rec, rs, n_max, budget=-1)
    assert verify(rec, rs, 0, budget=0).all_zero


def test_verify_budget_matches_per_term_oracle_over_a_sweep(rs):
    # verify sums the units per run of n with one bit length; the per-n oracle
    # must agree on the n and the text of every BudgetError
    passing = synthesize(rs, RootSpec(2, 3, 1, s=2))
    failing = _fitted(_perturbed(synthesize(rs, RootSpec(2, 5, 1)), 2), rs)
    n_max = 40
    for rec in (passing, failing):
        L = math.lcm(rs.output_field.conductor, rec.root.r0)
        factors = [rec.k ** (rec.root.s * j) for j in range(rec.order + 1)]
        spent = [0]  # the units of n' = 1, ..., n, one n at a time
        for n in range(1, n_max + 1):
            spent.append(spent[-1] + sum(L + (n * f).bit_length() for f in factors))
        edges = {w + d for w in spent for d in (-1, 0, 1) if w + d >= 0}  # a negative budget is rejected up front
        for budget in sorted(edges | set(range(0, spent[-1] + 3 * L, 7))):
            want = _outcome(verify_by_terms, rec, rs, n_max, budget)
            assert _outcome(verify, rec, rs, n_max, budget) == want, (rec.provenance, budget)
    assert verify(failing, rs, n_max).first_failure > 1


def test_verify_budget_costs_nothing_per_n(tm):
    rec = synthesize(tm, RootSpec(2, 3, 1))
    assert verify(rec, tm, 10**12, budget=10**40).all_zero
    with pytest.raises(BudgetError, match=r"at n = \d{9,} "):
        verify(rec, tm, 10**12, budget=10**12)


def _root_vector(vec, root, L):
    """sum of vec[j*m + i] zeta_m^i w^j as a vector mod x^L - 1, one slot at a time."""
    m = len(vec) // root.r0
    lift = L // m
    step = (L // root.r0) * root.primitive_exponent
    out = [0] * L
    for slot, c in enumerate(vec):
        if c:
            j, i = divmod(slot, m)
            out[(i * lift + j * step) % L] += c
    return out


def verify_by_terms(rec, a, n_max, budget=None):
    """Per n, the residual from block sums and one field product per term: the oracle."""
    root = rec.root
    K = cyclo_field(math.lcm(a.output_field.conductor, root.r0))
    L = K.conductor
    cs = [K.coerce(c) for c in rec.coefficients]
    blocks = block_sums(a, root.r0)
    step = root.k**root.s
    work = 0
    for n in range(1, n_max + 1):
        acc = K.zero()
        arg = n
        for c in cs:
            acc = acc + c * K.element(_root_vector(blocks.bucket_vector(arg), root, L))
            work += L + arg.bit_length()
            arg *= step
        if budget is not None and work > budget:
            raise BudgetError(
                f"verification budget exhausted at n = {n} ({work} > {budget} units)"
            )
        if not acc.is_zero():
            return VerificationReport(n_max, False, n)
    return VerificationReport(n_max, True, None)


def _perturbed(rec, i):
    coeffs = list(rec.coefficients)
    coeffs[i] = coeffs[i] + coeffs[i].field.one()
    return Recurrence(rec.k, rec.root, coeffs, "perturbed")


def _outcome(check, rec, a, n_max, budget):
    try:
        return check(rec, a, n_max, budget).to_json_dict()
    except BudgetError as exc:
        return str(exc)


def _fitted(rec, a):
    """rec with C_0 refit so that the residual vanishes at n = 1, by the block evaluator."""
    root = rec.root
    sums = [partial_sum_fast(a, root.k ** (root.s * j), root) for j in range(rec.order + 1)]
    tail = sum((c * x for c, x in zip(rec.coefficients[1:], sums[1:])), sums[0].field.zero())
    return Recurrence(rec.k, root, [-tail / sums[0]] + list(rec.coefficients[1:]), "fitted")


# verify's zero test: e_L v = 0 mod x^L - 1, e_L the product over p | L of x^(L/p) - 1,
# exactly when v is zero in Q(zeta_L)

_ZERO_TEST_CONDUCTORS = tuple(range(1, 200)) + (1155, 3003)


def _fold(v, d):
    """v mod x^d - 1, for d dividing len(v)."""
    out = [0] * d
    for j, x in enumerate(v):
        out[j % d] += x
    return out


def _phi_multiple(L, rng):
    """Phi_L times a random vector mod x^L - 1, L > 1, with a nonzero image in each Q(zeta_d), d | L, d < L."""
    phi = list(cyclotomic_int(L))
    phi += [0] * (L - len(phi))
    while True:
        v = numberfield._kronecker(phi, [rng.randint(-2, 2) for _ in range(L)])
        if all(any(cyclo_field(d)._normal(_fold(v, d))) for d in divisors(L) if d < L):
            return v


def test_zero_test_agrees_with_normal_forms(monkeypatch):
    rng = random.Random(20)
    zeros = 0
    for L in _ZERO_TEST_CONDUCTORS:
        K = cyclo_field(L)
        vecs = [[rng.randint(-2, 2) for _ in range(L)] for _ in range(3)] + [[0] * L]
        multiples = [_phi_multiple(L, rng) for _ in range(2)] if L > 1 else []
        for v in vecs + multiples:
            zero = not any(K._normal(list(v)))
            assert (not any(recurrence._annihilate(v, L))) == zero, (L, v)
            zeros += zero and any(v)
        assert all(not any(K._normal(list(v))) for v in multiples)
        # a mutant that drops the factor of one prime p keeps the component at zeta_(L/p)
        for p, _ in factorize(L):
            with monkeypatch.context() as m:
                m.setattr(recurrence, "factorize", lambda n, p=p: [f for f in factorize(n) if f[0] != p])
                assert all(any(recurrence._annihilate(v, L)) for v in multiples), (L, p)
    assert zeros >= 2 * (len(_ZERO_TEST_CONDUCTORS) - 1)


def test_verify_matches_the_scan_by_normal_forms(shipped):
    # the reports of verify and of the scan it replaced, which took a normal form
    # of every rho(q) and of every backward tuple's sum, on passing, perturbed and
    # late-failing recurrences
    cases = []
    wide, narrow = (1, 3, 5, 7, 9, 11, 13, 15, 21), (1, 3, 5, 7, 9)
    machines = [(name, a, a, wide) for name, a in shipped]
    machines += [(name + " reversed", reverse_dfao(a), a, wide) for name, a in shipped]
    machines += [(name, a, a, narrow) for name, a in _irrational_machines()]
    for name, a, source, orders in machines:
        for r in orders:
            for e in range(r):
                if math.gcd(e, r) == 1 or r == 1:
                    cases.append((name, a, synthesize(source, RootSpec(2, r, e))))
    for seed in (1, 2):
        for spec, e in stratum_patterns(seed):
            for a in (pattern_dfao(spec), reverse_dfao(pattern_dfao(spec))):
                cases.append((repr(spec), a, synthesize(a, RootSpec(spec.k, 5, e))))
    rs = shipped[1][1]
    cases += [("rudin_shapiro", rs, synthesize(rs, RootSpec(2, r, 1))) for r in (105, 1155)]
    cases.append(("rudin_shapiro intrec", rs, integer_recurrence(rs, RootSpec(2, 273, 1))))
    outcomes = []
    for i, (name, a, rec) in enumerate(cases):
        cands = [rec, _perturbed(rec, i % 2 * rec.order)]
        if i % 8 == 1:
            cands.append(_fitted(cands[-1], a))
        for cand in cands:
            for n_max in (40, 10**6) if i % 4 == 0 else (10**6,):
                want = verify_by_normal_forms(cand, a, n_max).to_json_dict()
                assert verify(cand, a, n_max).to_json_dict() == want, (name, rec.root, cand.provenance, n_max)
                outcomes.append(want["first_failure"])
    assert None in outcomes and 1 in outcomes and any(n and n > 1 for n in outcomes)


def _oracle_machines():
    """Machines the differential test reads, each with the one to synthesize from."""
    f3 = cyclo_field(3)
    out = []
    for outs in ([1, 2, 0], [f3.one() + f3.omega(), f3.omega() / 2, 0]):
        for direction in (FORWARD, BACKWARD):
            a = Dfao(2, direction, "abc", outs, _ZERO_SENSITIVE)
            # the backward one is synthesized from the forward reading of its sequence
            out.append((f"{direction} {outs}", a, a if direction == FORWARD else reverse_dfao(a)))
    # the backward machine that keeps its output on a zero, synthesized directly
    api_backward = _irrational_machines()[1][1]
    out.append(("api backward", api_backward, api_backward))
    for spec in (
        PatternSpec(2, (0, 1, 0), 3),
        PatternSpec(2, (1, 1), 3),
        PatternSpec(3, (1, 2), 3),
        PatternSpec(2, (0, 0), 3),
    ):
        for a in (pattern_dfao(spec), reverse_dfao(pattern_dfao(spec))):
            out.append((f"{spec} {a.direction}", a, a))
    return out


def _assert_matches_oracle(name, a, rec, n_max, outcomes):
    L = math.lcm(a.output_field.conductor, rec.root.r0)
    cands = [rec, _perturbed(rec, 0), _perturbed(rec, rec.order)]
    cands.append(_fitted(cands[-1], a))
    for cand in cands:
        # no budget, then one that runs out part of the way through
        for budget in (None, 6 * (rec.order + 1) * L):
            want = _outcome(verify_by_terms, cand, a, n_max, budget)
            assert _outcome(verify, cand, a, n_max, budget) == want, (name, rec.root, cand.provenance)
            outcomes.append(want)
    assert verify(_perturbed(rec, 0), a, n_max).first_failure is not None, (name, rec.root)


def test_verify_matches_per_term_oracle(shipped):
    # gcd(3, r0) = 3 for zeta_3, zeta_9^2, zeta_9^6 = zeta_3^2 and zeta_15^5 = zeta_3,
    # where several slots fold onto one power; 1 for zeta_5^2 and zeta_7
    roots = {
        2: ((1, 0), (3, 1), (5, 2), (7, 1), (9, 2), (9, 6), (15, 5)),
        3: ((1, 0), (5, 1), (7, 3)),
    }
    outcomes = []
    for name, a, source in _oracle_machines():
        for rr, ee in roots[a.base]:
            _assert_matches_oracle(name, a, synthesize(source, RootSpec(a.base, rr, ee)), 12, outcomes)
    # a sample of the criterion 02 grid
    grid = [(name, a, r, e) for name, a in shipped for r in range(1, 36, 2) for e in range(r)]
    for name, a, r, e in random.Random(2).sample(grid, 12):
        _assert_matches_oracle(name, a, synthesize(a, RootSpec(2, r, e)), 30, outcomes)
    assert any(isinstance(o, dict) and o["all_zero"] for o in outcomes)
    assert any(isinstance(o, dict) and (o["first_failure"] or 0) > 1 for o in outcomes)
    assert any(isinstance(o, str) and "at n = 1 " not in o for o in outcomes)


_RANDOM_OUTPUTS = (0, 1, -1, 2, Fraction(1, 2), cyclo_field(3).omega())


def _random_machines(rng: random.Random, count: int, outs=_RANDOM_OUTPUTS) -> list:
    """count machines of 2 to 5 states over bases 2 and 3, alternating directions, with outputs drawn from outs."""
    machines = []
    for i in range(count):
        size, k = rng.randint(2, 5), rng.choice((2, 3))
        delta = [[rng.randrange(size) for _ in range(k)] for _ in range(size)]
        names = [f"s{j}" for j in range(size)]
        machines.append(Dfao(k, (FORWARD, BACKWARD)[i % 2], names, [rng.choice(outs) for _ in range(size)], delta))
    return machines


def _reached(start, step, base: int, cap: int) -> list:
    """The states, or state tuples, that step reaches from start, breadth first, at most cap of them."""
    items, seen = [start], {start}
    for item in items:
        for dig in range(base):
            nxt = step(item, dig)
            if nxt not in seen and len(items) < cap:
                seen.add(nxt)
                items.append(nxt)
    return items


def test_verify_zero_pattern_matches_the_scan_by_normal_forms(shipped, monkeypatch):
    # the term verify tests is zero at exactly the states (forward) and reached state
    # tuples (backward) where the full machine's normal form is: a first failure alone
    # misses a wrong term at a state the scan meets after it
    scans = {}

    def capture(name):
        def first_failure(start, step, base, nonzero, *n_max):
            scans[name] = (start, step, base, nonzero)

        return first_failure

    monkeypatch.setattr(recurrence, "_first_failure", capture("reduced"))
    monkeypatch.setitem(verify_by_normal_forms.__globals__, "bounded_first_failure", capture("full"))
    machines = [a for _, a in shipped] + [pattern_dfao(spec) for spec, _ in stratum_patterns(1)]
    machines += [reverse_dfao(a) for a in machines] + [a for _, a in _irrational_machines(_ZERO_SENSITIVE)]
    machines += _random_machines(random.Random(17), 80)
    compared = set()
    for a in machines:
        for r in (5, 7):
            rec = synthesize(a, RootSpec(a.base, r, 1))
            for j in range(-1, rec.order + 1):  # unchanged, then C_j + (j + 1) w
                coeffs = list(rec.coefficients)
                if j >= 0:
                    coeffs[j] = coeffs[j] + (j + 1) * rec.root.omega
                if coeffs[-1].is_zero():
                    continue
                cand = Recurrence(a.base, rec.root, coeffs, "perturbed")
                scans.clear()
                clear_caches()
                verify(cand, a, 10**6)
                verify_by_normal_forms(cand, a, 10**6)
                if not scans:
                    continue
                start, step, base, _ = next(iter(scans.values()))
                states = _reached(start, step, base, 400)
                got = {name: [nonzero(x) for x in states] for name, (*_, nonzero) in scans.items()}
                want = got.get("full", [False] * len(states))
                assert got.get("reduced", [False] * len(states)) == want, (a, rec.root, j)
                compared.add((a.direction, 0 < sum(want) < len(states)))
    # forward and backward scans that find zero and nonzero terms among the states
    assert compared >= {(FORWARD, True), (BACKWARD, True)}


# ----------------------------------------------------------------------
# integer recurrences via the coset product


def test_integer_recurrence_order_one_base(tm):
    rec = integer_recurrence(tm, RootSpec(2, 7, 1))
    assert rec.provenance == "integer_product"
    assert rec.integer_coefficients() == [7, 0, 1]
    assert rec.pretty() == "A(2^6 n) + 7*A(n) = 0"
    assert verify(rec, tm, 100).all_zero


def test_integer_recurrence_fixed_by_galois_is_unchanged(rs):
    # k = 2 generates the units mod 3, so the coset product has a single
    # factor and reproduces the base recurrence
    rec = integer_recurrence(rs, RootSpec(2, 3, 1, s=2))
    assert rec.integer_coefficients() == [4, -1, 1]


def test_integer_recurrence_backward_machine(bs):
    rec = integer_recurrence(bs, RootSpec(2, 7, 1))
    assert rec.pretty() == "A(2^12 n) - A(2^9 n) + A(2^3 n) + A(n) = 0"
    assert verify(rec, bs, 60).all_zero


def test_integer_recurrence_prepares_the_machine_once(rs, monkeypatch):
    calls = _count_calls(monkeypatch, "span_analysis")
    clear_caches()
    assert integer_recurrence(rs, RootSpec(2, 15, 1)).integer_coefficients() is not None
    assert calls == {"span_analysis": 1}


def test_integer_recurrence_needs_rational_matrix():
    a = pattern_dfao(PatternSpec(3, (1, 2), 3))  # outputs in Q(zeta_3)
    with pytest.raises(AutorecError):
        integer_recurrence(a, RootSpec(3, 5, 1))


def test_integer_recurrence_coefficients_are_integral(shipped):
    for name, a in shipped:
        for rr in (5, 9, 15):
            rec = integer_recurrence(a, RootSpec(2, rr, 1))
            ints = rec.integer_coefficients()
            assert ints is not None, (name, rr)
            assert ints[-1] != 0


def test_integer_recurrence_with_irrational_outputs_and_a_rational_matrix():
    a = parse_dfao(TM_ZETA3)
    root = RootSpec(2, 7, 1)
    rec = integer_recurrence(a, root)
    assert rec.pretty() == "A(2^12 n) - 2*A(2^9 n) + 8*A(2^6 n) - 14*A(2^3 n) + 7*A(n) = 0"
    assert rec.integer_coefficients() == coset_product_oracle(synthesize(a, root).coefficients, 2, 7)
    assert verify(rec, a, 100).all_zero
    assert integer_recurrence(a, RootSpec(2, 5, 1)).integer_coefficients() == [5, -6, 1]


def _assert_intrec_matches_oracle(a, root, name):
    want = coset_product_oracle(synthesize(a, root).coefficients, root.k, root.r0)
    assert integer_recurrence(a, root).integer_coefficients() == want, (name, root)


def test_integer_recurrence_matches_the_coset_product_oracle_on_shipped_machines(shipped):
    for name, a in shipped + [("thue_morse with zeta_3", parse_dfao(TM_ZETA3))]:
        for rr in (1, 3, 5, 7, 9, 11, 15, 21, 31):
            _assert_intrec_matches_oracle(a, RootSpec(2, rr, 1), name)


# pattern machines counting modulo 2: outputs +-1, so the reduced matrix is rational
_RATIONAL_PATTERNS = (
    PatternSpec(2, (1, 1), 2),
    PatternSpec(2, (0, 1, 0), 2),
    PatternSpec(2, (0, 0), 2),
    PatternSpec(3, (1, 2), 2),
    PatternSpec(3, (0, 0), 2),
    PatternSpec(3, (2, 1, 0), 2),
)


@pytest.mark.parametrize("spec", _RATIONAL_PATTERNS, ids=repr)
def test_integer_recurrence_matches_the_coset_product_oracle_on_pattern_machines(spec):
    # every conductor r0 reached from r <= 45, and s = 2 s0 at every fourth one
    fwd = pattern_dfao(spec)
    for a in (fwd, reverse_dfao(fwd)):
        for r0 in range(1, 46):
            if math.gcd(r0, spec.k) == 1:
                root = RootSpec(spec.k, r0, 1)
                _assert_intrec_matches_oracle(a, root, spec)
                if r0 % 4 == 1:
                    _assert_intrec_matches_oracle(a, RootSpec(spec.k, r0, 1, s=2 * root.s0), spec)


@pytest.mark.parametrize("r", (105, 273))
def test_integer_recurrence_matches_the_coset_product_oracle_at_large_conductors(rs, r):
    _assert_intrec_matches_oracle(rs, RootSpec(2, r, 1), "rudin_shapiro")


def _recorded_primes(monkeypatch) -> list:
    # integer_recurrence walks the cached chain of _split_prime, one call per prime
    taken = []
    split = recurrence._split_prime

    def recorded(r0, start):
        p, g = split(r0, start)
        taken.append(p)
        return p, g

    monkeypatch.setattr(recurrence, "_split_prime", recorded)
    return taken


def test_integer_recurrence_takes_the_primes_its_bound_asks_for(rs, monkeypatch):
    # B = (sum over j of ||D C_j||_1)^h bounds the coefficients; CRT stops at the first
    # prime whose product with the earlier ones passes 2 B, not when the value settles
    root = RootSpec(2, 273, 1)
    cs = synthesize(rs, root).coefficients
    den = math.lcm(*(c.den for c in cs))
    bound = sum(abs(x) * (den // c.den) for c in cs for x in c.vec) ** len(coset_reps(2, 273))
    taken = _recorded_primes(monkeypatch)
    integer_recurrence(rs, root)
    assert len(taken) == 4
    assert math.prod(taken[:-1]) <= 2 * bound < math.prod(taken)


def test_integer_recurrence_needs_every_prime_below_its_bound(tm, monkeypatch):
    # k = 2 generates the units mod 3: one coset, so the product is the base recurrence,
    # and a constant term 2^64 + 1 needs two primes above 2^61
    big = cyclo_field(1).from_rational(2**64 + 1)
    monkeypatch.setattr(
        recurrence, "synthesize", lambda a, root, *_: Recurrence(2, root, [big, big.field.one()], "char_poly")
    )
    taken = _recorded_primes(monkeypatch)
    assert integer_recurrence(tm, RootSpec(2, 3, 1)).integer_coefficients() == [2**64 + 1, 1]
    assert len(taken) == 2


@pytest.mark.parametrize("zeta3, extra", ((False, 7), (True, 7), (True, 3)))
def test_integer_recurrence_refuses_a_coefficient_outside_the_fixed_field(rs, monkeypatch, zeta3, extra):
    # at r = 7, C_0 + zeta_7 is not fixed by sigma_2, and C_0 + zeta_3 does not lie in Q(zeta_7)
    a = parse_dfao(TM_ZETA3) if zeta3 else rs
    synth = recurrence.synthesize

    def tampered(*args):
        rec = synth(*args)
        c0 = rec.coefficients[0] + cyclo_field(extra).omega()
        return Recurrence(rec.k, rec.root, (c0,) + rec.coefficients[1:], rec.provenance)

    monkeypatch.setattr(recurrence, "synthesize", tampered)
    with pytest.raises(AutorecError, match="irrational coefficient.*indicates a bug"):
        integer_recurrence(a, RootSpec(2, 7, 1))


# ----------------------------------------------------------------------
# the packed level kernel, against the list kernel


# per L, roots w = zeta_r^e with r0 | L as (k, r, e), and steps s up to 60
_LEVEL_ROOTS = {
    1: [((2, 1, 0), (1, 7, 60))],
    2: [((3, 2, 1), (1, 2, 60))],
    3: [((2, 3, 1), (2, 6, 60))],
    15: [((2, 15, 1), (4, 60)), ((2, 5, 3), (4, 8)), ((2, 3, 2), (2,))],
    105: [((2, 105, 1), (12, 60)), ((2, 35, 4), (12,)), ((2, 7, 1), (3, 30))],
    3003: [((2, 3003, 1), (60,)), ((2, 7, 2), (3, 9))],
}


def _level_table(rng, d: int, L: int, coeff) -> list:
    """Per state, up to four (source, x-power, power of zeta_L, coefficient) terms."""
    return [
        [(rng.randrange(d), rng.randrange(3), rng.randrange(L), coeff()) for _ in range(rng.randint(0, 4))]
        for _ in range(d)
    ]


@pytest.mark.parametrize("L", sorted(_LEVEL_ROOTS))
def test_packed_levels_match_list_levels(L):
    rng = random.Random(L)
    coeffs = {
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
    }
    for (k, r, e), steps in _LEVEL_ROOTS[L]:
        for s in steps:
            root = RootSpec(k, r, e, s)
            for kind, coeff in coeffs.items():
                for d in (1, 2, 3):
                    table = _level_table(rng, d, L, coeff)
                    want = level_oracle.unit_levels(table, root, L)
                    # the kernel takes integers: the table over its common denominator D, the levels over D^s
                    den = math.lcm(*(t[-1].denominator for terms in table for t in terms))
                    ints = [[(src, e, p, int(c * den)) for src, e, p, c in terms] for terms in table]
                    got = recurrence._unit_levels(ints, root, L, recurrence._parseval(ints, L))
                    got = [[[Fraction(x, den**s) for x in v] for v in col] for col in got]
                    assert got == want, (L, root, kind, d)
                    # the levels fold lazily, but return residues in [0, 2^(8 width L) - 1)
                    full = (1 << 8 * L) - 1
                    assert all(0 <= v < full for v in recurrence._apply_levels([full - 1] * d, ints, root, L, 1))
            # every term at p = 0 and x^0: the final slot is (+-3)^s, the a-priori bound itself
            for c in (1, -1):
                table = [[(0, 0, 0, c)] * 3]
                assert recurrence._unit_levels(table, root, L, recurrence._parseval(table, L)) == [[[(3 * c) ** s] + [0] * (L - 1)]]


def _signed_power_table(rng, d: int, L: int) -> list:
    """Rudin-Shapiro-like levels: each state gathers every source once, as +-x^e."""
    return [[(src, rng.randrange(3), 0, rng.choice((1, -1))) for src in range(d)] for _ in range(d)]


@pytest.mark.parametrize("L", sorted(_LEVEL_ROOTS))
def test_level_slots_obey_the_parseval_bound(L):
    # over random tables, integer, fractional and +-x^e, the squared slots of the
    # list kernel's levels on e_j sum to at most lambda^s, and the packed kernel,
    # at the narrower of the two widths, equals the list kernel
    rng = random.Random(L + 1)
    kinds = {
        "int": lambda d: _level_table(rng, d, L, lambda: rng.randint(-3, 3)),
        "fraction": lambda d: _level_table(rng, d, L, lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))),
        "signed": lambda d: _signed_power_table(rng, d, L),
    }
    below = 0
    for (k, r, e), steps in _LEVEL_ROOTS[L]:
        for s in steps:
            root = RootSpec(k, r, e, s)
            for kind, make in kinds.items():
                for d in (1, 2, 3, 4):
                    table = make(d)
                    den = math.lcm(*(Fraction(t[-1]).denominator for terms in table for t in terms))
                    ints = [[(src, e, p, int(c * den)) for src, e, p, c in terms] for terms in table]
                    lam = recurrence._parseval(ints, L)
                    want = level_oracle.unit_levels(table, root, L)
                    for col in want:
                        assert sum((x * den**s) ** 2 for v in col for x in v) <= lam**s, (L, root, kind, d)
                    got = recurrence._unit_levels(ints, root, L, lam)
                    assert [[[Fraction(x, den**s) for x in v] for v in col] for col in got] == want, (L, root, kind, d)
                    gain = max(sum(abs(t[-1]) for t in terms) for terms in ints)
                    below += lam < gain**2
    assert below > 0  # lambda binds somewhere: the l2 bound is exercised


def test_rudin_shapiro_levels_have_lambda_two():
    # the level [[1, x], [1, -x]]: (A* A) = 2 I at every root, where gain^2 = 4
    table = [[(0, 0, 0, 1), (1, 1, 0, 1)], [(0, 0, 0, 1), (1, 1, 0, -1)]]
    assert recurrence._parseval(table, 7) == 2


def test_rudin_shapiro_slot_widths_at_r_1155(rs, monkeypatch):
    # lambda = 2: the unit levels fit 2^30 in 4 bytes (8 by gain^s = 2^60), verify's
    # Horner residues 9 bytes (16), and the characteristic polynomial 8 bytes (9)
    widths = {"levels": set(), "horner": set(), "char_poly": set()}
    for name, key in (("_apply_levels", "levels"), ("_horner", "horner"), ("_char_poly_width", "char_poly")):
        def traced(*args, run=getattr(recurrence, name), key=key):
            got = run(*args)
            widths[key].add(got if key == "char_poly" else args[-1])
            return got

        monkeypatch.setattr(recurrence, name, traced)
    rec = synthesize(rs, RootSpec(2, 1155, 1))
    assert verify(rec, rs, 5).all_zero
    # the level runs of synthesis, then those inside verify's Horner form
    assert widths == {"levels": {4, 9}, "horner": {9}, "char_poly": {8}}


def test_horner_residues_match_list_horner(monkeypatch):
    # every rho-hat verify packs equals the list kernel's Horner form: an overflow
    # inside _apply_levels, which _exact_combines cannot see, would show here
    horner, runs = recurrence._horner, [0]

    def checked(cs, xs, table, D, root, L, width):
        got = horner(cs, xs, table, D, root, L, width)
        assert [numberfield._unpack(v, width, L) for v in got] == level_oracle.horner(cs, xs, table, D, root, L)
        runs[0] += 1
        return got

    monkeypatch.setattr(recurrence, "_horner", checked)
    outs = (0, 1, -1, 127, -128, Fraction(1, 3), Fraction(255, 7))
    for a in _random_machines(random.Random(11), 30, outs):
        for r in (1, 5, 7):
            rec = synthesize(a, RootSpec(a.base, r, 1))
            for j in range(rec.order + 1):
                cand = _perturbed(rec, j)
                if not cand.coefficients[-1].is_zero():
                    verify(cand, a, 100)
    assert runs[0] > 100


# ----------------------------------------------------------------------
# the reduced product at a root, against the polynomial product


# a forward machine whose M-hat has the entry 1/2: its product is taken over
# the denominator 2 and divided by 2^s
_HALF_ENTRY_DFAO = """base: 2
direction: forward
states: q0 q1 q2
output: q0 = 3
output: q1 = 1
output: q2 = 2
delta: q0 0 -> q1
delta: q0 1 -> q2
delta: q1 0 -> q1
delta: q1 1 -> q2
delta: q2 0 -> q1
delta: q2 1 -> q2
"""


def _product_machines() -> list:
    """Pattern machines and _HALF_ENTRY_DFAO, each forward and reversed, pruned."""
    # (2, 00, 3) has Fraction-typed entries in M-hat, and _HALF_ENTRY_DFAO a non-integral one
    specs = (
        PatternSpec(2, (1, 1), 3),
        PatternSpec(3, (0, 0, 0), 3),
        PatternSpec(2, (0, 1, 0), 3),
        PatternSpec(2, (0, 0), 3),
    )
    machines = []
    for fwd in [pattern_dfao(spec) for spec in specs] + [parse_dfao(_HALF_ENTRY_DFAO)]:
        machines += [prune_inaccessible(fwd), prune_inaccessible(reverse_dfao(fwd))]
    return machines


def test_reduced_transition_matrix_matches_reduction_oracle(shipped):
    """transition_matrix(a, span) against m_ij + sum of alpha_pj m_ip over the full M(x)."""
    machines = [a for _, a in shipped] + _product_machines()
    for a in machines:
        span = span_analysis(a)
        want = reduced_matrix_oracle(transition_matrix(a), span)
        assert transition_matrix(a, span) == want, a.to_text()
        cells = digit_cells(a, span)
        assert len({cell[:3] for cell in cells}) == len(cells)  # one cell per (row, col, digit)


def test_reduced_product_at_root_matches_power_product():
    """Entries of M-hat(k^s; x) evaluated at x = w, Left forward and Right backward, several u per conductor."""
    for a in _product_machines():
        span = span_analysis(a)
        mhat = reduced_matrix_oracle(transition_matrix(a), span)
        side = LEFT if a.direction == FORWARD else RIGHT
        products = {}  # per step s
        for r0 in (5, 9, 15) if a.base == 2 else (5, 10):
            for u in sorted({1, 2, r0 - 1}):
                if math.gcd(u, r0) != 1:
                    continue
                root = RootSpec(a.base, r0, u)
                if root.s not in products:
                    products[root.s] = power_product(mhat, a.base, root.s, side)
                got, K = reduced_product_at_root(a, span, root)
                w = root.omega
                want = [[p(w) for p in row] for row in products[root.s].rows]
                assert K.conductor == math.lcm(a.output_field.conductor, r0)
                assert got == want, (a.to_text(), side, r0, u)


# ----------------------------------------------------------------------
# Galois invariance of synthesized coefficients


class GaloisReport:
    """Invariance of the recurrence coefficients under psi_k."""

    def __init__(self, all_invariant, primitive_root_case, entries):
        self.all_invariant = all_invariant
        self.primitive_root_case = primitive_root_case
        self.entries = entries  # per coefficient: dict


def galois_invariance_report(rec: Recurrence) -> GaloisReport:
    """Check psi_k(C_m) = C_m and expand in Gaussian periods when possible.

    For squarefree conductors the Gaussian periods eta_u over the coset
    representatives u form a basis of the fixed field of psi_k, so every
    invariant coefficient gets rational period coordinates.  For a
    prime-power conductor with k a primitive root the fixed field is Q
    itself and all coefficients must be rational.
    """
    root = rec.root
    field = root.field
    r0 = root.r0
    psi = GaloisMap(field, rec.k % r0) if r0 > 1 else None
    reps = coset_reps(rec.k, r0)
    squarefree = all(e == 1 for _, e in factorize(r0))
    periods = [gaussian_period(field, rec.k, u) for u in reps] if squarefree and r0 > 1 else None
    entries = []
    all_inv = True
    for c in rec.coefficients:
        c = field.coerce(c)
        inv = True if psi is None else psi(c) == c
        all_inv = all_inv and inv
        entry = {
            "invariant": inv,
            "rational": str(c.rational_value()) if c.rational_value() is not None else None,
        }
        if periods is not None and inv:
            rows = [[Fraction(p.vec[i], p.den) for p in periods] for i in range(r0)]
            sol = solve_exact(rows, [Fraction(x, c.den) for x in c.vec])
            entry["period_coords"] = None if sol is None else [str(Fraction(v)) for v in sol]
        entries.append(entry)
    return GaloisReport(all_inv, len(reps) == 1, entries)


def test_galois_report_fixed_field_coefficients(tm):
    rec = synthesize(tm, RootSpec(2, 7, 1))
    rep = galois_invariance_report(rec)
    assert rep.all_invariant
    assert not rep.primitive_root_case
    # the irrational coefficient expands over the two Gaussian periods
    periods = [e.get("period_coords") for e in rep.entries if e["rational"] is None]
    assert periods == [["1", "-1"]] or periods == [["-1", "-1"]]


def test_galois_report_primitive_root_case(tm):
    # 2 generates the units mod 5, so invariance forces rationality
    rep = galois_invariance_report(synthesize(tm, RootSpec(2, 5, 1)))
    assert rep.primitive_root_case
    assert rep.all_invariant
    assert all(e["rational"] is not None for e in rep.entries)


def test_galois_report_integer_product(bs):
    rep = galois_invariance_report(integer_recurrence(bs, RootSpec(2, 9, 1)))
    assert rep.all_invariant


# ----------------------------------------------------------------------
# order bounds and the dimension experiment


def test_lmin_bounds_for_shipped(tm, rs, bs):
    assert lmin_bound(tm) == 1
    assert lmin_bound(rs) == 2
    assert lmin_bound(bs) == 2


def test_lmin_bound_for_patterns():
    rng = random.Random(91)
    for _ in range(10):
        k = rng.randint(2, 4)
        v = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
        m = rng.randint(2, 5)
        a = pattern_dfao(PatternSpec(k, v, m))
        cap = len(v) if v[0] != 0 else len(v) + 1
        assert lmin_bound(a) <= cap, (k, v, m)


def test_dim_experiment_shipped_values(tm, rs, bs):
    dt = dim_experiment(tm)
    assert (dt.forward_dim, dt.backward_dim) == (1, 1)
    dr = dim_experiment(rs)
    assert (dr.forward_dim, dr.backward_dim) == (2, 2)
    db = dim_experiment(bs)
    assert db.backward_dim == 2
    assert db.forward_dim == 2
    d = db.to_json_dict()
    assert set(d) >= {"forward_dim", "backward_dim", "forward_states", "backward_states"}


def test_reversal_has_the_span_rank_of_its_source(shipped):
    # both spans computed here: dim_experiment reports the source's rank for both directions
    machines = [a for _, a in shipped] + [pattern_dfao(spec) for spec, _ in stratum_patterns(2)]
    machines += [a for _, a in _irrational_machines(_ZERO_SENSITIVE)] + _random_machines(random.Random(19), 40)
    ranks = set()
    for a in machines:
        rev = reverse_dfao(a)
        rank = span_analysis(prune_inaccessible(a)).rank
        assert span_analysis(prune_inaccessible(rev)).rank == rank, a
        report = dim_experiment(a)
        assert (report.forward_dim, report.backward_dim) == (rank, rank), a
        ranks.add(rank)
    assert len(ranks) >= 4


def test_verify_synthesized_at_s_multiple(tm):
    # the step may be any multiple of s0
    rec = synthesize(tm, RootSpec(2, 3, 1, s=4))
    assert verify(rec, tm, 40).all_zero
