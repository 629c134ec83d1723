"""Polynomial transition matrices, ordered products, span reduction."""

import json
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from autorec.automaton import (
    BACKWARD,
    FORWARD,
    Dfao,
    PatternSpec,
    _pad_invariant,
    closure,
    load_builtin,
    pattern_dfao,
    prune_inaccessible,
    reverse_dfao,
)
from autorec import numberfield, polymatrix, recurrence
from autorec.errors import AutorecError
from autorec.numberfield import CycloElement, cyclo_field
from autorec.cli import _matrix_view
from autorec.polymatrix import LEFT, RIGHT, SpanAnalysis, digit_product, span_analysis
from conftest import (
    BLOWUP_MACHINE,
    det_cofactor,
    partial_sum_poly,
    random_word,
    solve_exact,
    span_by_full_table,
    stratum_patterns,
    t_for,
    tuple_table,
    word_value,
)
from poly_oracle import CycloPoly, PolyMatrix, power_product, transition_matrix, truncate
from span_oracle import span_by_tuples


# ----------------------------------------------------------------------
# CycloPoly


def test_cyclo_poly_arithmetic():
    f = cyclo_field(3)
    w = f.omega()
    p = CycloPoly(f, [f.one(), w])
    q = CycloPoly(f, [w, f.one()])
    prod = p * q
    assert prod.coefficient(0) == w
    assert prod.coefficient(1) == f.one() + w * w
    assert prod.coefficient(2) == w
    assert (p - p).is_zero()
    assert p.substitute_power(3).degree == 3
    assert p.truncate(1).degree == 0


def test_cyclo_poly_pretty_frozen():
    f = cyclo_field(3)
    w = f.omega()
    assert CycloPoly(f, [w, -1, Fraction(1, 2), 0, 1 + 2 * w, 1]).pretty() == (
        "(w) - x + 1/2*x^2 + (1 + 2*w)*x^4 + x^5"
    )
    assert CycloPoly(f, [-1 - w, w * w, -3]).pretty() == "(-1 - w) + (-1 - w)*x - 3*x^2"
    assert CycloPoly(f, [Fraction(-5, 2), 0, w]).pretty("y") == "-5/2 + (w)*y^2"
    assert CycloPoly(f).pretty() == "0"


def test_cyclo_poly_mixed_conductors_lift():
    f3, f5 = cyclo_field(3), cyclo_field(5)
    p = CycloPoly(f3, [f3.omega()])
    q = CycloPoly(f5, [f5.omega()])
    prod = p * q
    # zeta_3 * zeta_5 = zeta_15^8
    f15 = cyclo_field(15)
    assert prod.coefficient(0) == f15.omega_power(8)


def test_cyclo_poly_eval_matches_coefficients():
    f = cyclo_field(7)
    w = f.omega()
    p = CycloPoly(f, [f.from_rational(2), w, w * w])
    v = p(w)
    assert v == f.from_rational(2) + w * w + w * w * w * w


# ----------------------------------------------------------------------
# transition matrices


def test_transition_matrix_rows_enumerate_digits(shipped):
    for name, a in shipped:
        m = transition_matrix(a)
        assert m.dim == a.size
        for i in range(m.dim):
            exps = []
            for j in range(m.dim):
                p = m.entry(i, j)
                exps.extend(e for e in range(p.degree + 1) if not p.coefficient(e).is_zero())
                for e in range(p.degree + 1):
                    c = p.coefficient(e)
                    assert c.is_zero() or c == a.output_field.one()
            assert sorted(exps) == list(range(a.base)), (name, i)


def test_row_sums_at_one_equal_base(shipped):
    for name, a in shipped:
        m = transition_matrix(a)
        one = a.output_field.one()
        ones = [[p(one) for p in row] for row in m.rows]
        for i in range(m.dim):
            total = a.output_field.zero()
            for j in range(m.dim):
                total = total + ones[i][j]
            assert total.rational_value() == a.base, (name, i)


def test_single_word_matrices_multiply(shipped):
    # the 0/1 matrix of a concatenated word is the product of the
    # factors' matrices, in word order
    rng = random.Random(8)
    for name, a in shipped:
        d = a.size
        for _ in range(50):
            v = random_word(rng, a.base)
            w = random_word(rng, a.base)
            mv = [[int(a.run(i, v) == j) for j in range(d)] for i in range(d)]
            mw = [[int(a.run(i, w) == j) for j in range(d)] for i in range(d)]
            mvw = [[int(a.run(i, v + w) == j) for j in range(d)] for i in range(d)]
            prod = [
                [sum(mv[i][t] * mw[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
            assert prod == mvw, (name, v, w)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_power_product_entries_count_words(shipped, side):
    # entry (i, j) of the t-fold product collects x^(word value) over
    # exactly the length-t words leading from state i to state j; the
    # left order reads values most significant digit first, the right
    # order least significant first
    for name, a in shipped:
        m = transition_matrix(a)
        k = a.base
        for t in range(5):
            prod = power_product(m, k, t, side)
            want = [
                [dict() for _ in range(a.size)] for _ in range(a.size)
            ]
            for w in iproduct(range(k), repeat=t):
                val = word_value(w if side == LEFT else w[::-1], k)
                row = want[0]
                for i in range(a.size):
                    j = a.run(i, w)
                    want[i][j][val] = want[i][j].get(val, 0) + 1
            for i in range(a.size):
                for j in range(a.size):
                    p = prod.entry(i, j)
                    got = {
                        e: p.coefficient(e).rational_value()
                        for e in range(p.degree + 1)
                        if not p.coefficient(e).is_zero()
                    }
                    assert got == want[i][j], (name, side, t, i, j)


def test_truncation_drops_high_exponents(tm):
    m = transition_matrix(tm)
    prod = power_product(m, 2, 3, LEFT)
    cut = truncate(prod, 5)
    for i in range(cut.dim):
        for j in range(cut.dim):
            p = cut.entry(i, j)
            assert p.degree <= 4
            full = prod.entry(i, j)
            for e in range(5):
                assert p.coefficient(e) == full.coefficient(e)


def test_product_matches_repeated_multiplication(rs):
    m = transition_matrix(rs)
    left = power_product(m, 2, 3, LEFT)
    assert left == m.substitute_power(4) * m.substitute_power(2) * m
    right = power_product(m, 2, 3, RIGHT)
    assert right == m * m.substitute_power(2) * m.substitute_power(4)


def _strip(coeffs: list) -> tuple:
    """The coefficient list without its trailing zeros, as a polynomial keeps it."""
    n = len(coeffs)
    while n and coeffs[n - 1].is_zero():
        n -= 1
    return tuple(coeffs[:n])


def test_digit_product_matches_polynomial_oracle(shipped):
    # the digit matrices multiplied level by level give power_product's coefficients,
    # and their slices every truncate's; the printed text and JSON are compared at
    # full length, and at every truncation for M-hat, which the matrix command truncates
    sources = [a for _, a in shipped]
    sources += [pattern_dfao(spec) for spec in dict.fromkeys(spec for spec, _ in stratum_patterns(1))]
    checked = 0
    for a in sources + [reverse_dfao(a) for a in sources]:
        side = LEFT if a.direction == FORWARD else RIGHT
        for span in (None, span_analysis(a)):
            mat = transition_matrix(a, span)
            for t in range(4):
                got = digit_product(a, span, t)
                want = power_product(mat, a.base, t, side)
                assert {len(p) for row in got for p in row} == {a.base**t}
                for n in [None] + list(range(1, a.base**t + 2)):
                    cut = got if n is None else [[p[:n] for p in row] for row in got]
                    ref = want if n is None else truncate(want, n)
                    assert [[_strip(p) for p in row] for row in cut] == [[p.coeffs for p in row] for row in ref.rows]
                    if n is None or span:
                        assert _matrix_view(cut, a.output_field.conductor) == (ref.to_json_dict(), ref.pretty())
                    checked += 1
    assert checked == 6816
    with pytest.raises(AutorecError, match="t must be nonnegative"):
        digit_product(sources[0], None, -1)


# ----------------------------------------------------------------------
# span analysis


def test_span_ranks_of_shipped_machines(tm, rs, bs, pat11):
    assert span_analysis(tm).rank == 1
    assert span_analysis(rs).rank == 2
    assert span_analysis(bs).rank == 2
    assert span_analysis(pat11).rank == 2


def test_span_keeps_rows_that_differ_in_denominators_only():
    # the Thue-Morse transitions with outputs 1/2 and 1/3 give the rows
    # (1/2, 1/3) and (1/3, 1/2): one numerator vector (1,) per entry
    a = Dfao(2, FORWARD, "ab", [Fraction(1, 2), Fraction(1, 3)], [[0, 1], [1, 0]])
    assert span_analysis(a).rank == 2


def test_span_generators_start_at_zero(shipped):
    for name, a in shipped:
        sp = span_analysis(a)
        assert sp.generators[0] == 0, name
        assert list(sp.generators) == sorted(sp.generators)
        assert len(sp.generators) == sp.rank


def test_span_relations_hold_on_random_words(shipped):
    rng = random.Random(13)
    for name, a in shipped:
        sp = span_analysis(a)
        for p, coeffs in sp.alphas.items():
            for _ in range(100):
                w = random_word(rng, a.base)
                lhs = a.outputs[a.run(p, w)]
                rhs = a.output_field.zero()
                for g, c in zip(sp.generators, coeffs):
                    rhs = rhs + c * a.outputs[a.run(g, w)]
                assert lhs == rhs, (name, p, w)


def test_span_witness_table_is_consistent(rs):
    # the witness words reach pairwise distinct state tuples, one per tuple of the closure
    sp = span_analysis(rs)
    reached = {tuple(rs.run(i, w) for i in range(rs.size)) for w in sp.witness_words}
    found, _ = closure(tuple(range(rs.size)), lambda tp, dig: tuple(rs.delta[q][dig] for q in tp), rs.base)
    assert len(reached) == len(sp.witness_words) == len(found) and reached == set(found)


def check_relation(a, sp, rel) -> bool:
    """Does sum_i rel[i] * f_i vanish on every witness word?"""
    for row in tuple_table(a, sp):
        acc = sp.field.zero()
        for i, c in rel.items():
            acc = acc + row[i] * c
        if not acc.is_zero():
            return False
    return True


def test_check_relation_accepts_known_dependence(rs):
    sp = span_analysis(rs)
    f = rs.output_field
    # f_3 = -f_0 on this machine
    assert check_relation(rs, sp, {3: f.one(), 0: f.one()})
    assert not check_relation(rs, sp, {0: f.one()})


def span_by_columns(a, sp) -> SpanAnalysis:
    """The span structure column by column: one solve per state against the pivots so far."""
    field = sp.field
    table = tuple_table(a, sp)
    d = len(table[0])
    cols = [[row[j] for row in table] for j in range(d)]
    pivots, exprs = [], {}
    for j in range(d):
        if pivots:
            sol = solve_exact([[cols[p][r] for p in pivots] for r in range(len(table))], cols[j])
        else:
            sol = [] if all(v.is_zero() for v in cols[j]) else None
        if sol is None:
            pivots.append(j)
        else:
            exprs[j] = sol
    generators = pivots if 0 in pivots else [0] + pivots
    gpos = {g: t for t, g in enumerate(generators)}
    alphas = {}
    for p in range(d):
        if p not in gpos:
            coeffs = [field.zero()] * len(generators)
            for t, c in enumerate(exprs[p]):
                coeffs[gpos[pivots[t]]] = field.coerce(c)
            alphas[p] = tuple(coeffs)
    return SpanAnalysis(a, len(pivots), generators, alphas)


def test_span_json_frozen():
    """Witness words, generators and relations, in the printed order."""
    want = {
        "thue_morse": {"witness_words": ["", "1"], "rank": 1, "generators": [0], "relations": {"1": ["-1"]}},
        "rudin_shapiro": {
            "witness_words": ["", "0", "1", "01", "10", "11", "011", "110", "0110"],
            "rank": 2,
            "generators": [0, 1],
            "relations": {"2": ["0", "-1"], "3": ["-1", "0"]},
        },
        "baum_sweet": {
            "witness_words": ["", "0", "1", "01", "10", "010", "101"],
            "rank": 2,
            "generators": [0, 1],
            "relations": {"2": ["0", "0"]},
        },
    }
    for name, d in want.items():
        assert json.dumps(span_analysis(load_builtin(name)).to_json_dict()) == json.dumps(d), name

    a = reverse_dfao(pattern_dfao(PatternSpec(2, (0, 1, 0), 3)))
    words = (
        ", 0, 1, 01, 10, 11, 010, 011, 101, 110, 0101, 0110, 1010, 1011, 1101, 01010, 01011, "
        "10101, 10110, 11010, 010101, 010110, 101010, 101011, 110101, 0101010, 0101011, "
        "1010101, 1010110, 1101010, 1101011, 01010110, 10101010, 10101011, 11010101, "
        "11010110, 101010110, 110101010, 110101011, 1101010110"
    ).split(", ")
    # every relation has one nonzero coefficient: (generator position, value) -> states
    groups = {
        (0, "1"): (2, 5, 7, 13),
        (1, "1"): (4, 9, 11, 18),
        (2, "1"): (8, 14),
        (3, "1"): (12, 19),
        (0, "w"): (16, 23, 30),
        (1, "w"): (21, 28, 35),
        (2, "w"): (10, 17, 24),
        (3, "w"): (15, 22, 29),
        (0, "-1 - w"): (26, 33, 38),
        (1, "-1 - w"): (31, 36, 39),
        (2, "-1 - w"): (20, 27, 34),
        (3, "-1 - w"): (25, 32, 37),
    }
    relations = {}
    for (j, c), states in groups.items():
        for p in states:
            relations[p] = ["0"] * 4
            relations[p][j] = c
    d = {
        "witness_words": words,
        "rank": 4,
        "generators": [0, 1, 3, 6],
        "relations": {str(p): relations[p] for p in sorted(relations)},
    }
    assert json.dumps(span_analysis(a).to_json_dict()) == json.dumps(d)


def test_span_matches_column_by_column_solves(shipped):
    machines = list(shipped)
    for name, a in shipped:
        machines.append((name + " reversed", reverse_dfao(a)))
    for v, k in (((0, 0, 0), 3), ((0, 1, 0), 2), ((1, 1), 2)):
        spec = PatternSpec(k, v, 3)
        a = pattern_dfao(spec)
        machines += [(repr(spec), a), (repr(spec) + " reversed", reverse_dfao(a))]
    zero = Dfao(2, FORWARD, "abc", [0, 0, 0], [[1, 2], [2, 0], [0, 1]])
    machines.append(("all outputs zero", zero))
    for name, a in machines:
        sp = span_analysis(a)
        want = span_by_columns(a, sp)
        assert sp.rank == want.rank, name
        assert sp.generators == want.generators, name
        assert sp.alphas == want.alphas, name
        assert sp.to_json_dict() == want.to_json_dict(), name


def _dedupe_machines() -> list:
    """The shipped machines and the pattern machines of seeds 1-3, each forward and reversed."""
    machines = [(name, load_builtin(name)) for name in ("thue_morse", "rudin_shapiro", "baum_sweet")]
    for seed in (1, 2, 3):
        machines += [(f"{seed}: {spec!r}", pattern_dfao(spec)) for spec, _ in stratum_patterns(seed)]
    # state 0 and state 2 read zero everywhere, states 1 and 3 one: repeats of a zero column and of a pivot
    machines.append(("zero columns", Dfao(2, FORWARD, "abcd", [0, 1, 0, 1], [[2, 2], [3, 1], [0, 0], [1, 3]])))
    return machines + [(name + " reversed", reverse_dfao(a)) for name, a in machines]


def _assert_matches_full_table(a, sp, name):
    """sp agrees with span_by_full_table on its rank, generators, alphas and JSON."""
    rank, generators, alphas = span_by_full_table(a, sp)
    want = SpanAnalysis(a, rank, generators, alphas)
    assert (sp.rank, sp.generators, sp.alphas) == (rank, generators, alphas), name
    assert sp.to_json_dict() == want.to_json_dict(), name


def _conductor_machines() -> list:
    """Pattern machines with outputs of conductor 4, 5, 6, 7 and 15, each forward and reversed."""
    machines = []
    for m in (4, 5, 6, 7, 15):
        for k, v in ((2, (0, 1)), (2, (1, 1, 0)), (3, (1, 2)), (3, (0, 0))):
            a = pattern_dfao(PatternSpec(k, v, m))
            assert a.output_field.conductor == m
            machines += [(f"{k} {v} {m}", a), (f"{k} {v} {m} reversed", reverse_dfao(a))]
    return machines


def test_span_matches_full_table_elimination():
    machines = _dedupe_machines()
    assert len(machines) == 272
    shared = 0
    for name, a in machines + _conductor_machines():
        sp = span_analysis(a)
        _assert_matches_full_table(a, sp, name)
        table = tuple_table(a, sp)
        firsts = {}  # column -> the alphas of the first dependent state that reads it
        for p, alpha in sp.alphas.items():
            col = tuple((row[p].vec, row[p].den) for row in table)
            if col in firsts:
                assert alpha is firsts[col], (name, p)  # one tuple per distinct column
                shared += 1
            else:
                firsts[col] = alpha
    assert shared == 2337


# ----------------------------------------------------------------------
# the span on output rows against the state tuple closure

_ROW_OUTPUTS = (0, 1, -1, 2, Fraction(1, 2), cyclo_field(3).omega(), cyclo_field(5).omega_power(2))


def _row_machines() -> list:
    """The shipped machines, seed 1's pattern machines and 300 random ones of 2 to 5 states, with their reversals of up to 400 states."""
    machines = [(name, load_builtin(name)) for name in ("thue_morse", "rudin_shapiro", "baum_sweet")]
    machines += [(repr(spec), pattern_dfao(spec)) for spec, _ in stratum_patterns(1)]
    rng = random.Random(29)
    for i in range(300):
        size, k = rng.randint(2, 5), rng.choice((2, 3))
        delta = [[rng.randrange(size) for _ in range(k)] for _ in range(size)]
        outs = [rng.choice(_ROW_OUTPUTS) for _ in range(size)]
        machines.append((f"random {i}", Dfao(k, (FORWARD, BACKWARD)[i % 2], [f"s{j}" for j in range(size)], outs, delta)))
    reversals = []
    for name, a in machines:
        try:
            reversals.append((name + " reversed", reverse_dfao(a, 400)))
        except AutorecError:
            pass  # more than 400 states
    return machines + reversals


def _closed(monkeypatch) -> list:
    """The items of each closure polymatrix runs from now on, in order."""
    built, run = [], polymatrix.closure

    def counted(*args):
        got = run(*args)
        built.append(got[0])
        return got

    monkeypatch.setattr(polymatrix, "closure", counted)
    return built


def test_span_on_rows_matches_the_tuple_closure(monkeypatch):
    # each machine and its padded-word machine, as synthesis reads it: the rows give the
    # rank, generators and alphas of the tuples' distinct rows, and are never more
    built = _closed(monkeypatch)
    machines = _row_machines()
    rows = tuples = 0
    for name, a in machines:
        padded = _pad_invariant(prune_inaccessible(a))
        for b in (a,) if padded is a else (a, padded):
            built.clear()
            sp = span_analysis(b)
            rank, generators, alphas, count = span_by_tuples(b)
            assert (sp.rank, sp.generators, sp.alphas) == (rank, generators, alphas), name
            (found,) = built
            assert len(found) <= count, name
            rows, tuples = rows + len(found), tuples + count
    directions = {a.direction for _, a in machines}
    assert len(machines) > 600 and directions == {FORWARD, BACKWARD} and 2 * rows < tuples


def test_span_of_a_large_reversal_closes_13_rows(monkeypatch):
    # the padded reversal has 16,121 state tuples; the span builds its 13 output rows alone
    built = _closed(monkeypatch)
    machine = recurrence._machine(reverse_dfao(BLOWUP_MACHINE))
    assert machine.span.rank == 7 and machine.padded.size == 4855
    assert [len(x) for x in built] == [13]


def test_span_builds_witness_words_only_when_read(rs, monkeypatch):
    words = polymatrix._witness_words

    def refuse(a):
        raise AssertionError("witness words built")

    monkeypatch.setattr(polymatrix, "_witness_words", refuse)
    sp = span_analysis(rs)
    assert repr(sp) == "SpanAnalysis(rank=2, generators=[0, 1])"
    monkeypatch.setattr(polymatrix, "_witness_words", words)
    assert len(sp.witness_words) == 9 and "witness_words" in vars(sp)


def _eliminations(monkeypatch) -> list:
    """(p, columns, rank) of each elimination mod p that span_analysis runs from now on, in order."""
    calls = []
    rref_mod = numberfield._rref_mod

    def recorded(rows, ncols, p):
        pivots = rref_mod(rows, ncols, p)
        calls.append((p, ncols, len(pivots)))
        return pivots

    monkeypatch.setattr(numberfield, "_rref_mod", recorded)
    return calls


def test_span_eliminates_each_distinct_column_once(monkeypatch):
    calls = _eliminations(monkeypatch)
    repeated = 0
    for name, a in _dedupe_machines():
        calls.clear()
        sp = span_analysis(a)
        distinct = len(set(zip(*[[(v.vec, v.den) for v in row] for row in tuple_table(a, sp)])))
        # one elimination per embedding of each prime taken, each over the distinct columns
        assert calls and {ncols for _, ncols, _ in calls} == {distinct}, name
        repeated += distinct < a.size
    assert repeated > 100


def _sum_machine(x, y) -> Dfao:
    """The Thue-Morse transitions with outputs x and y, and a third state reading 3 x + 5 y everywhere.

    So f_2 = 3 f_0 + 5 f_1, and f_0, f_1 are independent unless x^2 = y^2.
    """
    return Dfao(2, FORWARD, "abc", [x, y, 3 * x + 5 * y], [[0, 1], [1, 0], [2, 2]])


def _scaled_machine(c) -> Dfao:
    """Five states: state 1 reads 1 everywhere and state 3 reads c, so f_3 = c f_1."""
    return Dfao(2, FORWARD, "abcde", [0, 1, 2, c, 5], [[1, 2], [1, 1], [4, 2], [3, 3], [0, 4]])


def _full_rank_primes(calls, rank) -> set:
    """The primes at which every elimination found the given rank."""
    return {p for p, _, r in calls} - {p for p, _, r in calls if r != rank}


def test_span_lifts_a_large_coefficient_over_several_primes(monkeypatch):
    # 10^40 / 3^50 needs about 270 bits: one prime above 2^61 cannot reconstruct it
    c = Fraction(10**40, 3**50)
    calls = _eliminations(monkeypatch)
    a = _scaled_machine(c)
    sp = span_analysis(a)
    _assert_matches_full_table(a, sp, "f_3 = c f_1")
    assert sp.alphas[3][sp.generators.index(1)] == c
    assert len(_full_rank_primes(calls, sp.rank)) >= 2


def test_span_skips_a_split_prime_that_divides_an_output_denominator(monkeypatch):
    p, _ = numberfield._split_prime(1)
    calls = _eliminations(monkeypatch)
    a = _sum_machine(Fraction(1, p), 1)
    sp = span_analysis(a)
    _assert_matches_full_table(a, sp, "output 1/p")
    assert calls and p not in {q for q, _, _ in calls}


@pytest.fixture
def small_primes(monkeypatch):
    """Split primes from 2^6 on instead of 2^61, and an error past 2^12, so that a search that never settles fails."""
    split = numberfield._split_primes

    def small(r0, start=0):
        for p, g in split(r0, 64 if start == 1 << 61 else start):
            if p > 1 << 12:
                raise AutorecError("no small split prime left")
            yield p, g

    monkeypatch.setattr(numberfield, "_split_primes", small)
    numberfield._split_prime.cache_clear()
    yield
    numberfield._split_prime.cache_clear()


def test_span_over_small_primes_drops_unlucky_ones_and_lifts_by_crt(small_primes, monkeypatch):
    p1, _ = numberfield._split_prime(1)
    _, g = numberfield._split_prime(3)
    w = cyclo_field(3).omega()
    adversarial = [
        # y = x mod p1: rank 1 at the first prime, rank 2 over Q
        ("x = y mod p1", _sum_machine(1, p1 + 1)),
        # y = w + 1 - g^t maps to x = 1 under w -> g^t: that embedding of the first prime over Q(zeta_3) loses a pivot
        ("first embedding", _sum_machine(1, w + (1 - g))),
        ("second embedding", _sum_machine(1, w + (1 - g * g))),
        ("f_3 = c f_1", _scaled_machine(Fraction(10**40, 3**50))),
    ]
    calls = _eliminations(monkeypatch)
    unlucky = crt = 0
    for name, a in adversarial + _conductor_machines():
        calls.clear()
        sp = span_analysis(a)
        _assert_matches_full_table(a, sp, name)
        unlucky += any(r < sp.rank for _, _, r in calls)
        crt += len(_full_rank_primes(calls, sp.rank)) >= 2
    assert unlucky >= 3
    assert crt >= 4


def test_span_analysis_makes_no_field_product_or_inverse(monkeypatch):
    # the elimination runs mod split primes and the alphas are built from their coordinates
    machines = []
    for spec, _ in stratum_patterns(1):
        a = pattern_dfao(spec)
        machines += [a, reverse_dfao(a)]
    counts = {"__mul__": 0, "__rmul__": 0, "inverse": 0}
    for name in counts:
        method = getattr(CycloElement, name)

        def counted(*args, name=name, method=method):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(CycloElement, name, counted)
    for a in machines:
        span_analysis(a)
    assert len(machines) == 88
    assert counts == {"__mul__": 0, "__rmul__": 0, "inverse": 0}


def test_reduced_matrices_frozen_forms(tm, rs, bs):
    mt = transition_matrix(tm, span_analysis(tm))
    assert mt.dim == 1
    assert mt.entry(0, 0).pretty() == "1 - x"
    mr = transition_matrix(rs, span_analysis(rs))
    assert [[mr.entry(i, j).pretty() for j in range(2)] for i in range(2)] == [
        ["1", "x"],
        ["1", "-x"],
    ]
    mb = transition_matrix(bs, span_analysis(bs))
    assert [[mb.entry(i, j).pretty() for j in range(2)] for i in range(2)] == [
        ["x", "1"],
        ["1", "0"],
    ]


# ----------------------------------------------------------------------
# determinants and characteristic polynomials


def char_poly(m: PolyMatrix) -> list:
    """Coefficients (c_0, ..., c_d) of det(y I - M), constant first.

    Faddeev-LeVerrier over the polynomial ring; division only by
    integers, so everything stays exact.
    """
    n = m.dim
    coeffs = [CycloPoly(m.field, [1])]  # leading coefficient of y^n
    acc = PolyMatrix.identity(m.field, n)
    for j in range(1, n + 1):
        mj = m * acc if j > 1 else m
        c = _trace(mj) * Fraction(-1, j)
        coeffs.append(c)
        if j < n:
            acc = _add_scalar(mj, c)
    coeffs.reverse()
    return coeffs


def _trace(m: PolyMatrix) -> CycloPoly:
    acc = CycloPoly(m.field)
    for i in range(m.dim):
        acc = acc + m.rows[i][i]
    return acc


def _add_scalar(m: PolyMatrix, c: CycloPoly) -> PolyMatrix:
    rows = [list(r) for r in m.rows]
    for i in range(m.dim):
        rows[i][i] = rows[i][i] + c
    return PolyMatrix(m.field, rows)


def test_char_poly_of_transition_matrix(tm):
    cp = char_poly(transition_matrix(tm))
    assert [c.pretty() for c in cp] == ["1 - x^2", "-2", "1"]


def test_char_poly_constant_term_is_signed_det(shipped):
    for name, a in shipped:
        m = transition_matrix(a)
        cp = char_poly(m)
        det = det_cofactor(m)
        sign = (-1) ** m.dim
        assert (cp[0] - det * a.output_field.from_rational(sign)).is_zero(), name


def test_det_multiplies_under_substitution_products(rs):
    m = transition_matrix(rs, span_analysis(rs))
    for s in (1, 2, 3):
        prod = power_product(m, 2, s, RIGHT)
        det = det_cofactor(prod)
        by_parts = CycloPoly(rs.output_field, [rs.output_field.one()])
        for i in range(s):
            by_parts = by_parts * det_cofactor(m).substitute_power(2**i)
        assert (det - by_parts).is_zero()


def test_determinant_law_for_reduced_products(rs):
    # det of the s-fold right product is (-2)^s x^(2^s - 1)
    m = transition_matrix(rs, span_analysis(rs))
    f = rs.output_field
    for s in (1, 2, 3):
        det = det_cofactor(power_product(m, 2, s, RIGHT))
        want = CycloPoly.monomial(f, 2**s - 1, f.from_rational((-2) ** s))
        assert (det - want).is_zero(), s


# ----------------------------------------------------------------------
# the polynomial recurrence identity, brute-forced at small scale


def test_left_identity_small_range(tm, rs, pat11):
    for a in (tm, rs, pat11):
        sp = span_analysis(a)
        mhat = transition_matrix(a, sp)
        k = a.base
        for u in (1, 2):
            base_vec = partial_sum_poly(a, sp, k**u, u, LEFT)
            for n in range(1, 7):
                t = t_for(n, k)
                lhs = partial_sum_poly(a, sp, k**u * n, u + t, LEFT)
                m = truncate(power_product(mhat, k, t, LEFT), n).substitute_power(k**u)
                for i in range(m.dim):
                    acc = CycloPoly(a.output_field, [])
                    for j in range(m.dim):
                        acc = acc + m.entry(i, j) * base_vec[j]
                    assert (lhs[i] - acc).is_zero(), (u, n, i)


def test_right_identity_small_range(bs):
    sp = span_analysis(bs)
    mhat = transition_matrix(bs, sp)
    k = bs.base
    for u in (1, 2):
        m = power_product(mhat, k, u, RIGHT)
        for n in range(1, 7):
            t = t_for(n, k)
            lhs = partial_sum_poly(bs, sp, k**u * n, u + t, RIGHT)
            rvec = [
                p.substitute_power(k**u) for p in partial_sum_poly(bs, sp, n, t, RIGHT)
            ]
            for i in range(m.dim):
                acc = CycloPoly(bs.output_field, [])
                for j in range(m.dim):
                    acc = acc + m.entry(i, j) * rvec[j]
                assert (lhs[i] - acc).is_zero(), (u, n, i)


# ----------------------------------------------------------------------
# serialization


def test_matrix_json_round_trip_fields(rs):
    m = transition_matrix(rs)
    d = m.to_json_dict()
    assert d["dim"] == 4
    assert d["conductor"] == 1
    assert d["entries"][0] == ["1", "x", "0", "0"]


def test_identity_matrix():
    f = cyclo_field(1)
    m = PolyMatrix.identity(f, 3)
    assert m.dim == 3
    assert m * m == m
