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

from typing import Optional

from .errors import AutorecError
from .automaton import FORWARD, Dfao, closure
from .numberfield import _certified_rref

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

    The elimination runs modulo split primes and is proved exact by a
    height bound (numberfield._certified_rref states both), so the pivots,
    the rank and the alphas are exact.  It sees distinct rows and columns
    only: a reversed pattern machine with 50 states and 50 tuples has 10
    distinct rows and 15 distinct columns.
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
