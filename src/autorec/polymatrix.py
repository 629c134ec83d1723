"""Digit cells, transition matrices and the span analysis of state functions.

For an automaton with states q_0, ..., q_(d-1) the transition matrix is

    m_ij(x) = sum of x^a over the digits a with delta(q_i, a) = q_j.

The span analysis finds, by linear algebra modulo split primes whose
lifted result is proved exact, which state functions f_i(w) =
output(delta(q_i, w)) are redundant; the resulting relations compress
M(x) to M-hat(x) over the generator states.
digit_cells gives the nonzero digit coefficients of either matrix as
(row, col, digit, c) cells, and recurrence synthesis reads those cells.
digit_product multiplies the scalar digit matrices of those cells into
the coefficients of the ordered products of digit-substituted copies,
reading words most significant digit first (Left) or least significant
digit first (Right), for the matrix command.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

from .errors import AutorecError
from .automaton import FORWARD, Dfao, closure
from .numberfield import (
    CycloElement,
    CycloField,
    _embeddings,
    _geometric,
    _lowest,
    _reconstruct,
    _rref_mod,
    _split_prime,
)

LEFT = "left"
RIGHT = "right"


# ----------------------------------------------------------------------
# matrices


def _mat_mul(a, b, zero) -> list[list]:
    """The product of two square matrices given as rows; entries need +, * and is_zero."""
    cols = list(zip(*b))
    out = []
    for row in a:
        live = [(t, x) for t, x in enumerate(row) if not x.is_zero()]
        new = []
        for col in cols:
            acc = zero
            for t, x in live:
                y = col[t]
                if not y.is_zero():
                    acc = acc + x * y
            new.append(acc)
        out.append(new)
    return out


# ----------------------------------------------------------------------
# span analysis


class SpanAnalysis:
    """Exact linear structure of the state functions f_i.

    witness_words   one word per distinct state tuple found by the
                    breadth-first closure of (q_0, ..., q_(d-1))
    rank            dimension of span{f_0, ..., f_(d-1)}
    generators      greedy-leftmost spanning prefix; always contains 0
    alphas          for each non-generator p the coefficients of
                    f_p = sum_j alphas[p][j] f_(generators[j])
    """

    def __init__(self, field, witness_words, rank, generators, alphas):
        self.field = field
        self.witness_words = witness_words
        self.rank = rank
        self.generators = generators
        self.alphas = alphas

    def to_json_dict(self) -> dict:
        return {
            "witness_words": ["".join(map(str, w)) for w in self.witness_words],
            "rank": self.rank,
            "generators": list(self.generators),
            "relations": {
                str(p): [c.pretty() for c in coeffs] for p, coeffs in self.alphas.items()
            },
        }

    def __repr__(self):
        return (
            f"SpanAnalysis(rank={self.rank}, generators={self.generators}, "
            f"{len(self.witness_words)} witness words)"
        )


def span_analysis(a: Dfao) -> SpanAnalysis:
    """Breadth-first tuple closure plus one elimination modulo split primes, certified exact.

    Starting from the identity tuple (q_0, ..., q_(d-1)), every digit is
    applied coordinatewise until no new tuple appears.  Evaluating the
    outputs along the witness word of each tuple gives a table whose
    column space is in exact bijection with span{f_i}.  Gauss-Jordan
    elimination over the distinct rows and the distinct columns of that
    table (a column is a state; each is taken at its first occurrence)
    yields everything: its pivot columns are the greedy leftmost spanning
    set, since a repeated column is never a pivot, and in each other
    column the entries in the rows of the pivots left of it are the unique
    coefficients over them.  A state reads the column it repeats, so a
    repeat of a pivot reads that pivot's unit column.  The generators
    always keep state 0 so the partial sums of the induced sequence stay
    expressible.

    The elimination runs in F_p (_certified_rref).  Let m be the output
    conductor, K = Q(zeta_m) and T the lcm of the output denominators.
    Each split prime p = 1 (mod 2m) above 2^61 that does not divide T
    gives phi(m) ring maps zeta_m -> g^t onto F_p, one per unit t mod m.
    Each distinct output is mapped once per map, and the table, whose
    entries are output indices, is eliminated once per map.  Columns
    independent mod p are independent over K.  A prime whose maps disagree
    on the pivots is dropped; of two primes with different pivots, the one
    whose pivot list has the larger prefix ranks is kept and the other is
    dropped.  Each coefficient is rebuilt from its phi(m) images as
    normal-form coordinates mod p, combined by CRT over the product M of
    the primes kept, and rationally reconstructed.

    The certificate: let D be the lcm of the denominators in a non-pivot
    column c.  Each residual D T (sum over b of alpha_b f_(g_b)(u) -
    f_c(u)) lies in Z[zeta_m] and vanishes at every map modulo every prime
    kept, so M divides its normal-form coordinates.  They are at most
    s (sum over b of ||D alpha_b||_1 + D) max over outputs o of ||T o||_1,
    s = 1 the largest coordinate of the normal form of any power of
    zeta_m: each prime power q || m clears a forbidden top digit into its
    p - 1 partners (one for p = 2) with sign -1, and different primes
    move disjoint CRT components.
    When that bound is below M/2 every residual is zero, so c lies in the
    span of the pivots left of it with these coefficients; otherwise the
    next prime is taken, and only finitely many primes are unlucky.  So
    the pivots, the rank and the alphas are exact; none is taken from a
    prime on trust.

    The cost per prime is phi(m) eliminations of O(rank * rows * cols)
    operations in F_p, rows and cols counting distinct ones only (a
    reversed pattern machine with 50 states and 50 tuples has 10 distinct
    rows and 15 distinct columns), plus phi(m)^2 operations per
    coefficient for its coordinates.  No field element is multiplied or
    inverted.
    """
    d = a.size
    targets = [[row[dig] for row in a.delta] for dig in range(a.base)]  # delta(., dig) as a list
    tuples, found = closure(tuple(range(d)), lambda tp, dig: tuple(map(targets[dig].__getitem__, tp)), a.base)
    # the first occurrence of t in row-major order is the edge that found it
    words = [()] + [None] * (len(tuples) - 1)
    for pos, row in enumerate(found):
        for dig, t in enumerate(row):
            if words[t] is None:
                words[t] = words[pos] + (dig,)

    field = a.output_field
    # a state reads the index of its output among the distinct ones; equal rows add
    # nothing to the elimination, and a repeated column is never a pivot
    index: dict = {}
    ids = [index.setdefault((v.vec, v.den), len(index)) for v in a.outputs]
    keys = dict.fromkeys(tuple(map(ids.__getitem__, tp)) for tp in tuples)
    cols: dict = {}  # column key -> its index among the first occurrences
    reps = [cols.setdefault(col, len(cols)) for col in zip(*keys)]
    firsts = [reps.index(c) for c in range(len(cols))]
    columns, coeffs = _certified_rref(field, list(index), [[row[q] for q in firsts] for row in keys])
    pivots = [firsts[c] for c in columns]

    generators = pivots if 0 in pivots else [0] + pivots
    gpos = {g: t for t, g in enumerate(generators)}
    zero = field.zero()
    shared = {}  # one tuple per distinct column, shared by the states that repeat it
    for c in dict.fromkeys(reps[p] for p in range(d) if p not in gpos):
        out = [zero] * len(generators)
        for g, x in zip(pivots, coeffs[c]):
            out[gpos[g]] = x
        shared[c] = tuple(out)
    alphas = {p: shared[reps[p]] for p in range(d) if p not in gpos}
    return SpanAnalysis(field, tuple(words), len(pivots), generators, alphas)


def _certified_rref(field: CycloField, outs: list, rows: list) -> tuple[list[int], list[list]]:
    """(pivots, coeffs) of the matrix whose entries are the outputs outs[i], (vector, denominator) pairs, for the indices i in rows.

    pivots are its pivot columns, and coeffs[c] holds the coefficients of
    column c over them: zero on the pivots right of c, and a unit vector
    for a pivot column.  The method and its certificate are span_analysis's.
    """
    n, ncols = field.conductor, len(rows[0])
    den = math.lcm(*(b for _, b in outs))
    height = max(sum(map(abs, v)) * (den // b) for v, b in outs)  # max over o of ||T o||_1
    best, modulus, got, p = None, 1, None, 1 << 61
    while True:
        p, g = _split_prime(n, p)
        if den % p == 0:
            continue
        roots, basis, inverse = _embeddings(n, p, g)
        dinv = [pow(b, -1, p) for _, b in outs]
        runs = []
        for pw in (_geometric(x, n, p) for x in roots):
            img = [sum(map(operator.mul, v, pw)) * x % p for (v, _), x in zip(outs, dinv)]
            m = [[img[i] for i in row] for row in rows]
            runs.append((_rref_mod(m, ncols, p), m))
        pivots = runs[0][0]
        if any(other != pivots for other, _ in runs):
            continue
        # no prime's prefix ranks exceed the true ones, so the true pivot list has the least key
        key = pivots + [ncols]
        if best is not None and key > best:
            continue
        if key != best:
            best, modulus, got = key, 1, None
        free = [c for c in range(ncols) if c not in pivots]
        rank = len(pivots)
        # the phi images of the coefficient of each free column c on each pivot i, and its coordinates mod p
        images = [[m[i][c] for _, m in runs] for c in free for i in range(rank)]
        res = [sum(map(operator.mul, row, v)) % p for v in images for row in inverse]
        inv = pow(modulus, -1, p)
        got = res if got is None else [x + modulus * ((y - x) * inv % p) for x, y in zip(got, res)]
        modulus *= p
        fracs = [_reconstruct(x, modulus) for x in got]
        if None in fracs:
            continue
        phi = len(basis)
        lifted = [fracs[k * rank * phi : (k + 1) * rank * phi] for k in range(len(free))]
        if all(_certified(col, height, modulus) for col in lifted):
            break
    one, zero = field.one(), field.zero()
    coeffs = [None] * ncols
    for t, c in enumerate(pivots):
        coeffs[c] = [one if i == t else zero for i in range(rank)]
    for c, col in zip(free, lifted):
        coeffs[c] = [_element(field, basis, col[i * phi : (i + 1) * phi]) for i in range(rank)]
    return pivots, coeffs


def _certified(col: list, height: int, modulus: int) -> bool:
    """Whether the height bound of span_analysis, for the (numerator, denominator) pairs col of one column, is below modulus / 2."""
    lcm = math.lcm(*(b for _, b in col))
    return 2 * (sum(abs(x) * (lcm // b) for x, b in col) + lcm) * height < modulus


def _element(field: CycloField, basis: list, coords: list) -> CycloElement:
    """The element with the rational coordinates coords, (numerator, denominator) pairs, on the normal-form basis."""
    if not any(x for x, _ in coords):
        return field.zero()
    lcm = math.lcm(*(b for _, b in coords))
    vec = [0] * field.conductor
    for j, (x, b) in zip(basis, coords):
        vec[j] = x * (lcm // b)
    return _lowest(field, vec, lcm)


# ----------------------------------------------------------------------
# digit cells: M(x) and M-hat(x) coefficient by coefficient


def digit_cells(a: Dfao, span: Optional[SpanAnalysis] = None) -> list[tuple]:
    """The nonzero digit coefficients of M(x), or of M-hat(x) given span, as (row, col, digit, c) cells.

    Row i reads generator g_i (every state when no span is given) and
    digit d reaches t = delta(g_i, d).  A kept t gives the cell
    (i, pos[t], d, 1); a dependent t gives (i, b, d, alpha_(t,b)) for each
    nonzero alpha_(t,b), as f_t = sum over b of alpha_(t,b) f_(g_b).
    One (i, d) has one target, so no two cells share a (row, col, digit).
    """
    one = a.output_field.one()
    gens, alphas = (range(a.size), {}) if span is None else (span.generators, span.alphas)
    pos = {g: b for b, g in enumerate(gens)}
    cells = []
    for i, g in enumerate(gens):
        for d, t in enumerate(a.delta[g]):
            if t in pos:
                cells.append((i, pos[t], d, one))
            else:
                cells += [(i, b, d, c) for b, c in enumerate(alphas[t]) if c]
    return cells


def digit_product(a: Dfao, span: Optional[SpanAnalysis], t: int) -> list[list[list]]:
    """The coefficients of the ordered product of t digit-substituted copies of M(x), or of M-hat(x) given span.

    Entry (i, j) of the result lists the k^t coefficients of x^0, ...,
    x^(k^t - 1).  A forward machine reads words most significant digit
    first, M(k^t; x) = M(x^(k^(t-1))) ... M(x^k) M(x); a backward one least
    significant digit first, M^R(k^t; x) = M(x) M(x^k) ... M(x^(k^(t-1))).
    Each coefficient is a product of the scalar digit matrices M_d of
    digit_cells, one per level: the block of digit d at level t is
    M_d P_(t-1) (forward) or P_(t-1) M_d (backward), at exponents
    d k^(t-1) and up.  t = 0 gives the identity.
    """
    if t < 0:
        raise AutorecError("t must be nonnegative")
    zero, one = a.output_field.zero(), a.output_field.one()
    dim = a.size if span is None else len(span.generators)
    digits = [[[zero] * dim for _ in range(dim)] for _ in range(a.base)]
    for i, j, d, c in digit_cells(a, span):
        digits[d][i][j] = c
    blocks = [[[one if i == j else zero for j in range(dim)] for i in range(dim)]]
    for _ in range(t):
        if a.direction == FORWARD:
            blocks = [_mat_mul(m, p, zero) for m in digits for p in blocks]
        else:
            blocks = [_mat_mul(p, m, zero) for m in digits for p in blocks]
    return [[[p[i][j] for p in blocks] for j in range(dim)] for i in range(dim)]
