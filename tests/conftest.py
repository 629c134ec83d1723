"""Shared fixtures and exact-arithmetic test helpers."""

import functools
import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from autorec.automaton import (
    FORWARD,
    PatternSpec,
    _pad_invariant,
    load_builtin,
    pattern_dfao,
    prune_inaccessible,
    sequence_term,
)
from autorec.numberfield import (
    CycloElement,
    CycloField,
    GaloisMap,
    _pack,
    _rref_mod,
    _unpack,
    _width,
    coset_reps,
    cyclo_field,
    factorize,
    multiplicative_order,
)
from autorec import recurrence
from autorec.polymatrix import LEFT, _mat_mul
from autorec.recurrence import (
    VerificationReport,
    _apply_levels,
    _char_poly,
    _combine,
    _elements,
    _minimal_poly,
    _pairs,
    _parseval,
    _reduced_product,
    _reduced_table,
)
from poly_oracle import CycloPoly, PolyMatrix


# the Thue-Morse transitions with outputs 1 and zeta_3: the reduced matrix is rational,
# the coefficients of a recurrence at zeta_r0 sit in Q(zeta_(3 r0))
TM_ZETA3 = (
    "base: 2\ndirection: forward\nstates: q0 q1\noutput: q0 = 1\noutput: q1 = zeta(3)\n"
    "delta: q0 0 -> q0\ndelta: q0 1 -> q1\ndelta: q1 0 -> q1\ndelta: q1 1 -> q0\n"
)


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts on empty recurrence caches: no verdict or call count carries over from another test."""
    recurrence.clear_caches()


@pytest.fixture(scope="session")
def tm():
    return load_builtin("thue_morse")


@pytest.fixture(scope="session")
def rs():
    return load_builtin("rudin_shapiro")


@pytest.fixture(scope="session")
def bs():
    return load_builtin("baum_sweet")


@pytest.fixture(scope="session")
def pat11():
    """Counts overlapping '11' blocks in binary expansions, modulo signs."""
    return pattern_dfao(PatternSpec(2, (1, 1), 2))


@pytest.fixture(scope="session")
def shipped(tm, rs, bs, pat11):
    return [("thue_morse", tm), ("rudin_shapiro", rs), ("baum_sweet", bs), ("pattern_11_mod_2", pat11)]


def word_value(w, k: int) -> int:
    """[w]_k, the integer the digit word denotes (leading zeros allowed)."""
    v = 0
    for d in w:
        v = v * k + d
    return v


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def partial_sum_value(a, n: int, root):
    """A(n; w) = sum of a(m) w^m over m < n, by direct summation: the oracle.

    The running power of w is updated incrementally.  Fine for moderate
    n; blocksum_oracle.partial_sum_fast reaches huge n.
    """
    w = root.omega
    field = w.field
    acc = field.zero()
    p = field.one()
    for m in range(n):
        acc = acc + sequence_term(a, m) * p
        p = p * w
    return acc


def galois_apply(a, m: int):
    """psi_m(a): the Galois automorphism w -> w^m applied to a."""
    return GaloisMap(a.field, m)(a)


def gaussian_period(field: CycloField, k: int, j: int):
    """The Gaussian period eta_j = sum of w^(j * k^i) over i < ord_k."""
    n = field.conductor
    out = [0] * n
    e = j % n
    for _ in range(multiplicative_order(k, n)):
        out[e] += 1
        e = e * k % n
    return field.element(out)


def random_element(field: CycloField, rng: random.Random, height: int = 9):
    """Uniform small-height element: random Fraction coordinates."""
    coords = [
        Fraction(rng.randint(-height, height), rng.randint(1, 4))
        for _ in range(field.phi)
    ]
    return field.element(coords)


def random_word(rng: random.Random, k: int, max_len: int = 8) -> tuple:
    return tuple(rng.randrange(k) for _ in range(rng.randint(0, max_len)))


def poly_divides(small, big, field) -> bool:
    """Exact synthetic division test, coefficients constant-first."""
    small = list(small)
    rem = list(big)
    while small and small[-1].is_zero():
        small.pop()
    if not small:
        return False
    lead = small[-1].inverse()
    while len(rem) >= len(small):
        c = rem[-1] * lead
        off = len(rem) - len(small)
        for i, s in enumerate(small):
            rem[off + i] = rem[off + i] - c * s
        rem.pop()
    return all(c.is_zero() for c in rem)


def occurrences(v: tuple, word: tuple) -> int:
    """Overlapping occurrences of the block v inside word, by direct scan."""
    hits = 0
    for i in range(len(word) - len(v) + 1):
        if word[i : i + len(v)] == v:
            hits += 1
    return hits


def t_for(n: int, k: int) -> int:
    """Smallest word length t with k^t >= n."""
    t = 0
    while k**t < n:
        t += 1
    return t


def partial_sum_poly(a, span, n: int, t: int, side: str) -> list:
    """Components of the length-t word-enumeration sum vector.

    Entry for generator i is sum over words w of length t whose value is
    below n of f_i(w) x^(value), where the value reads w most significant
    digit first on the left side and least significant first on the right.
    All k^t words are scanned, leading zeros included.
    """
    k = a.base
    field = a.output_field
    out = []
    for i in span.generators:
        coeffs = [field.zero()] * max(1, n)
        for w in iproduct(range(k), repeat=t):
            val = word_value(w if side == LEFT else w[::-1], k)
            if val <= n - 1:
                coeffs[val] = coeffs[val] + a.outputs[a.run(i, w)]
        out.append(CycloPoly(field, coeffs))
    return out


def reduced_matrix_oracle(m: PolyMatrix, span) -> PolyMatrix:
    """M-hat(x) from the full M(x) by the reduction formula.

    Row i, column j of the result is m_ij + sum over dependent states p
    of alpha_pj m_ip, with i, j running over the generators.
    """
    gens = span.generators
    rows = []
    for gi in gens:
        row = []
        for b, gj in enumerate(gens):
            acc = m.entry(gi, gj)
            for p, coeffs in span.alphas.items():
                c = coeffs[b]
                if c and m.entry(gi, p):
                    acc = acc + m.entry(gi, p) * c
            row.append(acc)
        rows.append(row)
    return PolyMatrix(m.field, rows)


def det_cofactor(m: PolyMatrix) -> CycloPoly:
    """Determinant by cofactor expansion; an independent small-d route."""
    return _det_cofactor(m.rows, m.field)


def _det_cofactor(rows, field) -> CycloPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = CycloPoly(field)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [
            [rows[i][t] for t in range(n) if t != j] for i in range(1, n)
        ]
        term = rows[0][j] * _det_cofactor(minor, field)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def embeddings_by_elimination(n: int, p: int, g: int) -> tuple:
    """(powers, basis, inverse) of numberfield._embeddings, built by Gauss-Jordan elimination mod p.

    basis holds the j whose unit vector is its own normal form, and
    inverse is V^(-1) mod p for V = (g^(t j)), t a unit and j in basis.
    """
    field = cyclo_field(n)
    powers = [[pow(g, t * j, p) for j in range(n)] for t in range(1, n + 1) if math.gcd(t, n) == 1]
    forms = [field._normal([int(i == j) for i in range(n)]) for j in range(n)]
    basis = [j for j, v in enumerate(forms) if v[j] == 1 and v.count(0) == n - 1]
    phi = len(basis)
    a = [[row[j] for j in basis] + [int(i == t) for i in range(phi)] for t, row in enumerate(powers)]
    assert _rref_mod(a, phi, p) == list(range(phi)), "the embeddings are dependent mod p"
    return powers, basis, [row[phi:] for row in a]


# exact linear algebra over a field
#
# Only the test oracles eliminate over CycloElements; rational entries,
# ints and Fractions, work too.  Each pivot row is scaled by one inverse,
# so all that is used is +, -, *, comparison with zero, and
# CycloElement.inverse or a Fraction reciprocal.


def _rref(a: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of the rows in place on their first ncols columns.

    Pivot rows are scaled to 1 and moved to the top, in the order of
    their pivot columns, and every other row is zero in each pivot
    column.  Returns the pivot columns in order.  So a non-pivot column
    c holds the coefficients of column c over the pivot columns left of
    it: entry (i, c) goes with the i-th pivot column.
    """
    m = len(a)
    pivots = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, m):
            if a[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        piv = a[row][col]
        inv = piv.inverse() if isinstance(piv, CycloElement) else 1 / Fraction(piv)
        # the rows from `row` on are zero left of col, so only columns col.. change
        a[row][col:] = prow = [c * inv for c in a[row][col:]]
        for i in range(m):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i][col:] = [c - f * d if d else c for c, d in zip(a[i][col:], prow)]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return pivots


def tuple_table(a, span) -> list:
    """f_i evaluated at span's witness words: one row per word, one column per state of a."""
    return [[a.outputs[a.run(i, w)] for i in range(a.size)] for w in span.witness_words]


def span_by_full_table(a, span) -> tuple:
    """(rank, generators, alphas) of span's tuple table by one exact elimination over every state column.

    The oracle for span_analysis, which eliminates each distinct column
    once, modulo split primes: here the rows are the distinct rows of the
    table, the entries are CycloElements, and column p holds the
    coefficients of f_p over the pivots left of it.
    """
    d = a.size
    rows = list({tuple((v.vec, v.den) for v in row): row for row in tuple_table(a, span)}.values())
    pivots = _rref(rows, d)
    generators = pivots if 0 in pivots else [0] + pivots
    gpos = {g: t for t, g in enumerate(generators)}
    alphas = {}
    for p in range(d):
        if p not in gpos:
            coeffs = [span.field.zero()] * len(generators)
            for t, g in enumerate(pivots):
                coeffs[gpos[g]] = rows[t][p]
            alphas[p] = tuple(coeffs)
    return len(pivots), generators, alphas


def solve_exact(rows: list[list], rhs: list):
    """One exact solution of (rows) * x = rhs, or None when inconsistent.

    The system may be overdetermined; free variables are set to zero.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(aug, ncols)
    for i in range(len(pivots), len(aug)):
        if aug[i][ncols] != 0:
            return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return x


def scalar_mat_mul(a, b, f):
    """The product of two n x n matrices over the field f, summed term by term."""
    n = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(n)), f.zero()) for j in range(n)] for i in range(n)]


def minimal_poly_by_solves(rows, f):
    """Append powers of M until the next one solves exactly over the earlier ones."""
    a = [[f.coerce(v) for v in row] for row in rows]
    n = len(a)
    powers = [[[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]]
    while True:
        nxt = scalar_mat_mul(powers[-1], a, f)
        table = [[p[i][j] for p in powers] for i in range(n) for j in range(n)]
        sol = solve_exact(table, [v for row in nxt for v in row])
        if sol is not None:
            return [-f.coerce(v) for v in sol] + [f.one()]
        powers.append(nxt)


def nullspace(rows: list[list]) -> list[list]:
    """A basis of the right nullspace of the matrix, exact."""
    ncols = len(rows[0]) if rows else 0
    a = [list(r) for r in rows]
    pivots = _rref(a, ncols)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, col in enumerate(pivots):
            v[col] = -a[i][fc]
        basis.append(v)
    return basis


def stratum_patterns(seed: int) -> list:
    """Three (pattern spec, root exponent e) pairs per stratum (base, length, modulus, leading zero), drawn from seed.

    The strata and the draws of the benchmark's machines workload: a
    leading-zero stratum always holds the all-zero pattern, and each
    pattern is read at zeta_5^e.
    """
    rng = random.Random(seed)
    specs = []
    for k, length, m, lead_zero in iproduct((2, 3), (2, 3), (2, 3), (True, False)):
        patterns = [v for v in iproduct(range(k), repeat=length) if (v[0] == 0) == lead_zero]
        chosen = [patterns.pop(0)] if lead_zero else []
        chosen += rng.sample(patterns, min(3 - len(chosen), len(patterns)))
        for v in chosen:
            specs.append((PatternSpec(k, v, m), rng.randrange(1, 5)))
    return specs


def _integer_matrix(rows, field: CycloField) -> tuple:
    """(D M, D, field) for the square rows M, D M integer vectors and D their least common denominator."""
    m = [[field.coerce(v) for v in row] for row in rows]
    assert all(len(row) == len(m) for row in m), "matrix must be square"
    den = math.lcm(*(x.den for row in m for x in row))
    return [[[v * (den // x.den) for v in x.vec] for x in row] for row in m], den, field


def char_poly(rows, field: CycloField) -> list:
    """det(y I - M), constant term first, of a scalar matrix M given as rows: recurrence._char_poly on D M."""
    return _char_poly(*_integer_matrix(rows, field))


def minimal_poly(rows, field: CycloField) -> list:
    """The monic minimal polynomial of a scalar matrix M, constant term first: recurrence._minimal_poly on D M."""
    return _minimal_poly(*_integer_matrix(rows, field))


def reduced_product_at_root(a, span, root) -> tuple:
    """(M-hat(k^s; w) as field elements, its field): Left for a forward a, its Right mirror for a backward one."""
    L = math.lcm(a.output_field.conductor, root.r0)
    table, den = _reduced_table(a, span, L)
    vecs, den, field = _reduced_product(a, table, den, root, _parseval(table, L))
    return _elements(vecs, den, field), field


def char_poly_newton_oracle(rows, field) -> list:
    """det(y I - M), constant term first, by Newton's identities over CycloElements.

    The power sums p_j = tr(M^j) are field elements: M, ..., M^h, h = ceil(d/2),
    by matrix products, and for j > h, p_j = sum over i, t of (M^h)_it (M^(j-h))_ti.
    """
    m = [[field.coerce(v) for v in row] for row in rows]
    d, zero = len(m), field.zero()
    powers = [m]
    while 2 * len(powers) < d:
        powers.append(_mat_mul(powers[-1], m, zero))
    p = [zero] + [sum((x[i][i] for i in range(d)), zero) for x in powers]
    p += [
        sum((powers[-1][i][t] * x[t][i] for i in range(d) for t in range(d)), zero)
        for x in powers[: d - len(powers)]
    ]
    top = [field.one()]  # top[i] = c_(d-i)
    for j in range(1, d + 1):
        acc = sum((top[i] * p[j - i] for i in range(1, j)), p[j])
        top.append(-acc / j)
    return top[::-1]


def coset_product_oracle(coefficients, k: int, r0: int) -> list[int]:
    """The integer coefficients of the product over coset representatives u of <k> mod r0
    of sum over j of sigma_u(C_j) y^j, by CycloPoly products, scaled by the lcm of their denominators.

    The C_j lie in Q(zeta_r0) but may be given over Q(zeta_L), r0 | L;
    sigma_u is then applied as zeta_L -> zeta_L^t for some t = u (mod r0)
    prime to L, which restricts to sigma_u on Q(zeta_r0).
    """
    field = coefficients[0].field
    L = field.conductor
    prod = CycloPoly(field, [1])
    for u in coset_reps(k, r0):
        t = next(t for t in range(u, u + r0 * L, r0) if math.gcd(t, L) == 1)
        prod = prod * CycloPoly(field, [GaloisMap(field, t)(c) for c in coefficients])
    rat = [c.rational_value() for c in prod.coeffs]
    assert None not in rat, "the coset product is irrational"
    den = math.lcm(*(q.denominator for q in rat))
    return [int(q * den) for q in rat]


def bounded_first_failure(start, step, base: int, nonzero, n_max: int):
    """1 + the least m < n_max whose expansion leads from start to a state where nonzero holds.

    step(state, digit) reads one digit, most significant first; m = 0 is
    the empty word.  The expansions of one length ascend with their
    values, so per state only the least m of each length is kept, and
    nonzero is tested once per distinct state.
    """
    nonzero = functools.cache(nonzero)
    frontier = {start: 0} if n_max > 0 else {}  # state -> least m, ascending in m
    digits = range(1, base)
    while frontier:
        for state, m in frontier.items():
            if nonzero(state):
                return m + 1
        nxt: dict = {}
        for state, m in frontier.items():
            for dig in digits:
                if m * base + dig >= n_max:
                    break
                nxt.setdefault(step(state, dig), m * base + dig)
        frontier, digits = nxt, range(base)
    return None


def scan_by_normal_forms(cs: list, root, a, K: CycloField, n_max: int):
    """The first n <= n_max with a nonzero residual, each term decided by a normal form in K.

    The scan verify made before it decided zero on packed residues: the
    same Horner form of rho, then the normal form of each rho(q) and,
    backward, of each distinct state tuple's sum; a is padded
    (_pad_invariant) and cs are the C_j in K over one denominator.
    """
    k, size, L = a.base, a.size, K.conductor
    fwd = a.direction == FORWARD
    den = math.lcm(*(v.den for v in a.outputs))
    outs = [_pairs(v, L // a.output_field.conductor, den) for v in a.outputs]
    xs = outs if fwd else [[(0, 1)]] + [[]] * (size - 1)
    # the full machine's term table: per state, the (source, digit, 0, 1) terms it gathers
    table = [[] for _ in range(size)]
    for q, row in enumerate(a.delta):
        for dig, p in enumerate(row):
            dst, src = (q, p) if fwd else (p, q)
            table[dst].append((src, dig, 0, 1))
    gain, reach = max(map(len, table)) ** root.s, max(sum(abs(y) for _, y in x) for x in xs)
    width = _width(reach * sum(max(map(abs, c)) * gain**j for j, c in enumerate(cs)))
    v = [0] * size
    for j, c in enumerate(reversed(cs)):
        if j:
            v = _apply_levels(v, table, root, L, width)
        c = _pack(c, width)
        v = [_combine([(u, 0, 1)] + [(c, p, y) for p, y in x], width, L) for u, x in zip(v, xs)]
    rho = [list(K._normal(_unpack(x, width, L))) for x in v]
    if not any(map(any, rho)):
        return None
    if fwd:
        return bounded_first_failure(0, lambda q, dig: a.delta[q][dig], k, lambda q: any(rho[q]), n_max)
    width = _width(max(abs(x) for r in rho for x in r) * size * max(sum(abs(y) for _, y in x) for x in outs))
    packed = [_pack(r, width) for r in rho]

    def nonzero(tau: tuple) -> bool:
        terms = [(r, p, x) for r, q in zip(packed, tau) for p, x in outs[q]]
        return any(K._normal(_unpack(_combine(terms, width, L), width, L)))

    return bounded_first_failure(
        tuple(range(size)), lambda tau, dig: tuple(tau[row[dig]] for row in a.delta), k, nonzero, n_max
    )


def verify_by_normal_forms(rec, a, n_max: int) -> VerificationReport:
    """verify without a budget, its terms decided by scan_by_normal_forms."""
    a = _pad_invariant(prune_inaccessible(a))
    K = cyclo_field(math.lcm(a.output_field.conductor, rec.root.r0))
    cs = [K.coerce(c) for c in rec.coefficients]
    den = math.lcm(*(c.den for c in cs))
    failure = scan_by_normal_forms([[x * (den // c.den) for x in c.vec] for c in cs], rec.root, a, K, n_max)
    return VerificationReport(n_max, failure is None, failure)
