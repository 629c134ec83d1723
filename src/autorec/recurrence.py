"""Recurrences for partial sums of automatic sequences at roots of unity.

For a k-automatic sequence a(n) with partial sum polynomial
A(n; x) = sum of a(m) x^m over m < n, and a root of unity w = zeta_r^e
with gcd(k, r) = 1, the characteristic polynomial of the reduced
transition product M-hat(k^s; w) yields coefficients C_0, ..., C_l with

    sum over m of C_m(w) A(k^(m s) n; w) = 0        for all n >= 1,

where s is a multiple of the multiplicative order of k modulo the
conductor r0 of w.  Products over Galois cosets turn these into integer
recurrences whenever the reduced matrix has rational entries.

On a forward machine that reads zero-padded words alike (_pad_invariant),
the word sums H_l(q) = sum over words y of l digits of out(delta(q, y)) w^[y]
obey H_l(q) = sum over digits d of w^(d k^(l-1)) H_(l-1)(delta(q, d)),
H_0 = out; as k^(js) = 1 (mod r0), A(k^(js) n; w) = sum over m < n of
w^m H_(js)(state(m)).  So the residual at n is the sum over m < n of
w^m rho(state(m)) with rho = sum over j of C_j H_(js), and the term of
m is rho(state(m)).  Backward machines push instead: G_l(p) sums w^[y]
over the y of l digits with delta(q0, y read backwards) = p, G_0 = e_q0,
rho = sum over j of C_j G_(js), and the term of m is the sum over p of
rho(p) out(delta(p, m read least significant digit first)).

Synthesis and verification share one _Machine per automaton structure
(_machine): the padded-word machine that _pad_invariant makes of the
pruned automaton, its span, one term table, M-hat's cells over the
span's generators (_reduced_table), kept for the last conductor, and
the polynomials and first failures found on it; and one level kernel,
_apply_levels, the s digit levels at x = w^(k^t) on one vector mod
x^L - 1 per generator, packed as one residue mod 2^(8 width L) - 1.
Synthesis applies them to unit vectors and takes a characteristic or
minimal polynomial; verify takes rho over the generators, rho-hat,
whose zero proves every n (_scan), scans a nonzero one for its first
failure over all n and takes no normal form (_annihilate).  Both work
at one root w1 per Galois class of a root sweep (_frame): synthesis
maps the polynomial built at w1 by sigma_t, and verify pulls the
coefficients back by sigma_t^(-1), so each polynomial and first failure
a machine keeps is a function of its key; the frames are memoized, so
a root of a cached class costs lookups.  Each packed kernel sizes its
slots by the narrower of two a-priori bounds, one from l1 norms and one
from l2 norms (Parseval; _parseval, _char_poly_width).
The characteristic polynomial comes from Berkowitz's division-free
recursion on the same packed residues, the product's vectors taken as
the levels leave them, and only its d coefficients take a normal form;
integer_recurrence multiplies the Galois conjugates of the coefficients
modulo split primes, rebuilding the product by CRT under an a-priori
bound on its coefficients.  Synthesis makes no field product, except
for a derogatory --minimal product.
The matrix command's ordered products are polymatrix.digit_product's
products of scalar digit matrices; no polynomial is formed.

Everything is computed over Q; floating point never enters.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import OrderedDict
from fractions import Fraction
from typing import Optional

from .errors import AutorecError, BudgetError
from .automaton import (
    FORWARD,
    Dfao,
    _pad_invariant,
    prune_inaccessible,
    reverse_dfao,
)
from .numberfield import (
    CycloElement,
    CycloField,
    GaloisMap,
    _certified_rref,
    _geometric,
    _lowest,
    _pack,
    _rref_mod,
    _split_prime,
    _unpack,
    _width,
    coset_reps,
    cyclo_field,
    factorize,
    multiplicative_order,
    pretty_sum,
)
from .polymatrix import (
    SpanAnalysis,
    _mat_mul,
    digit_cells,
    span_analysis,
)


# ----------------------------------------------------------------------
# root specifications


class RootSpec:
    """A root of unity w = zeta_r^e paired with a step exponent s.

    The conductor r0 = r / gcd(r, e) is the order of w; s must be a
    positive multiple of s0, the multiplicative order of k mod r0, so
    that k^s fixes w under m -> w^(k^s m).  gcd(k, r) = 1 is required.
    """

    def __init__(self, k: int, r: int, e: int = 1, s: Optional[int] = None):
        if r < 1:
            raise AutorecError("root order r must be positive")
        if math.gcd(k, r) != 1:
            raise AutorecError(f"gcd(k, r) = gcd({k}, {r}) != 1")
        self.k = k
        self.r = r
        self.e = e % r
        g = math.gcd(r, self.e)
        self.r0 = r // g if self.e else 1
        self.primitive_exponent = (self.e // g) % self.r0 if self.e else 0
        self.s0 = multiplicative_order(k, self.r0)
        self.s = self.s0 if s is None else s
        if self.s < 1 or self.s % self.s0:
            raise AutorecError(
                f"step s = {self.s} must be a positive multiple of s0 = {self.s0}"
            )

    @property
    def field(self) -> CycloField:
        return cyclo_field(self.r0)

    @property
    def omega(self) -> CycloElement:
        return self.field.omega_power(self.primitive_exponent)

    def __repr__(self):
        return f"RootSpec(k={self.k}, r={self.r}, e={self.e}, r0={self.r0}, s={self.s})"


# ----------------------------------------------------------------------
# recurrences


class Recurrence:
    """sum over m of coefficients[m] * A(k^(m s) n; w) = 0 for n >= 1."""

    def __init__(self, k: int, root: RootSpec, coefficients, provenance: str):
        if k != root.k:
            raise AutorecError(f"recurrence base k = {k} differs from its root's k = {root.k}")
        self.k = k
        self.root = root
        # an int or Fraction is an element of Q; coerce raises TypeError for anything else
        self.coefficients = tuple(c if isinstance(c, CycloElement) else cyclo_field(1).coerce(c) for c in coefficients)
        if not self.coefficients or self.coefficients[-1].is_zero():
            raise AutorecError("leading recurrence coefficient must be nonzero")
        self.provenance = provenance
        self.verified_to: Optional[int] = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def integer_coefficients(self) -> Optional[list[int]]:
        out = []
        for c in self.coefficients:
            q = c.rational_value()
            if q is None or q.denominator != 1:
                return None
            out.append(int(q))
        return out

    def pretty(self) -> str:
        k, s = self.k, self.root.s
        terms = [(c, f"A({k}^{m * s} n)" if m else "A(n)") for m, c in enumerate(self.coefficients)]
        return pretty_sum(reversed(terms)) + " = 0"

    def to_json_dict(self) -> dict:
        root = self.root
        return {
            "k": self.k,
            "r": root.r,
            "e": root.e,
            "r0": root.r0,
            "s": root.s,
            "order": self.order,
            "provenance": self.provenance,
            "coefficients": [
                {"coords": [str(Fraction(c)) for c in coeff.coords], "pretty": coeff.pretty()}
                for coeff in self.coefficients
            ],
            "verified_to": self.verified_to,
        }

    def __repr__(self):
        return f"Recurrence(order={self.order}, {self.pretty()})"


class VerificationReport:
    """Outcome of re-checking a recurrence against direct partial sums."""

    def __init__(self, n_max: int, all_zero: bool, first_failure: Optional[int]):
        self.n_max = n_max
        self.all_zero = all_zero
        self.first_failure = first_failure

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "all_zero": self.all_zero,
            "first_failure": self.first_failure,
        }

    def __repr__(self):
        return (
            f"VerificationReport(n_max={self.n_max}, all_zero={self.all_zero}, "
            f"first_failure={self.first_failure})"
        )


# ----------------------------------------------------------------------
# scalar matrices over a cyclotomic field


def _elements(vecs: list, den: int, field: CycloField) -> list:
    """The matrix of integer vectors mod x^L - 1 over den as field elements."""
    return [[_lowest(field, field._normal(list(v)), den) for v in row] for row in vecs]


def _char_poly(vecs: list, den: int, field: CycloField) -> list[CycloElement]:
    """det(y I - N / den), constant term first, for a d x d matrix N of integer vectors mod x^L - 1, L the conductor.

    The vectors need not be normal forms.  Berkowitz's division-free
    recursion (Inf. Process. Lett. 18 (1984) 147-150) runs on their packed
    residues (numberfield._pack): with N_i the trailing principal submatrix
    from row i on, [[a, R], [C, N_(i+1)]], det(y I - N_i) has the
    coefficients of det(y I - N_(i+1)), highest power first, times the
    lower triangular Toeplitz matrix with first column 1, -a, -R C,
    -R N_(i+1) C, ..., -R N_(i+1)^(d-i-2) C.  Each product is one packed
    multiplication and a fold; by the ring argument of _apply_levels only
    the slots of N and of the result must fit (_char_poly_width).  The
    coefficient of y^(d-j) is D^j times that of N / D: only these d are
    unpacked, normalized and divided by D^j.
    """
    d, L = len(vecs), field.conductor
    width = _char_poly_width(vecs)
    bits, full = 8 * width * L, (1 << 8 * width * L) - 1
    n = [[_pack(v, width) for v in row] for row in vecs]

    def dot(xs, ys) -> int:
        acc = sum(x * y for x, y in zip(xs, ys) if x and y)
        return ((acc & full) + (acc >> bits)) % full

    poly = [1]  # det(y I - N_(i+1)), highest power first; the vector 1 packs as 1
    for i in range(d - 1, -1, -1):
        row, col, sub = n[i][i + 1 :], [r[i] for r in n[i + 1 :]], [r[i + 1 :] for r in n[i + 1 :]]
        toeplitz = [1, -n[i][i]]
        for t in range(d - 1 - i):
            if t:
                col = [dot(r, col) for r in sub]
            toeplitz.append(-dot(row, col))
        poly = [dot(reversed(toeplitz[: j + 1]), poly) for j in range(len(poly) + 1)]
    coeffs = [_lowest(field, field._normal(_unpack(c, width, L)), den**j) for j, c in enumerate(poly[1:], 1)]
    return coeffs[::-1] + [field.one()]


def _char_poly_width(n: list) -> int:
    """The slot width of _char_poly: every entry of the integer matrix n and every slot of its coefficients fits.

    The coefficient of y^(d-j) is (-1)^j sum over |S| = j of det n[S].  A
    term of det n[S] is a cyclic product a_1 * ... * a_j of one entry per
    row of S, in row order, and letting each row range over all columns
    bounds the sum over the permutations.  With m_i, r_i and q_i the sums
    over row i of the max, the l1 and the l2 norms (rounded up) of the
    entries, two bounds hold, and the narrower is taken per j:
    - l1: ||a_1 * ... * a_j||_inf <= ||a_1||_inf times the ||a_i||_1 of the
      others, so the slots are at most sum over i of
      m_i e_(j-1)(r_(i+1), ..., r_d);
    - l2: it is at most ||a_1||_2 ||a_2||_2 times the ||a_i||_1 of the rest
      (Cauchy-Schwarz on a_1 * a_2), so at most sum over i_1 < i_2 of
      q_(i_1) q_(i_2) e_(j-2)(r after i_2) for j >= 2.
    At j = 1 the l1 bound, sum of m_i, covers every entry.  The l2 norms
    cost a pass over every slot, so the l2 bound is taken only past 8
    bytes, where _pack and _unpack leave struct for a codec per slot
    (numberfield._FORMATS).
    """
    m = [sum(max(map(abs, v)) for v in row) for row in n]
    r = [sum(sum(map(abs, v)) for v in row) for row in n]
    bound = _minor_bounds(m, r, r)
    if _width(max(bound, default=0)) > 8:
        q = [sum(1 + math.isqrt(t - 1) for t in (sum(map(operator.mul, v, v)) for v in row) if t) for row in n]
        bound = list(map(min, bound, _minor_bounds(q, q, r)))
    return _width(max(bound, default=0))


def _minor_bounds(first: list, second: list, r: list) -> list:
    """Per j = 1, ..., d, the sum over i_1 < ... < i_j of first[i_1] second[i_2] r[i_3] ... r[i_j]; first[i_1] alone at j = 1."""
    d = len(r)
    bound, tail, e = [0] * d, [1] + [0] * (d - 1), [1] + [0] * (d - 1)
    # from row d - 1 down: e[t] = e_t(r after i), tail[t] the sum over t rows after i of second at the first, r at the rest
    for a, b, c in zip(reversed(first), reversed(second), reversed(r)):
        bound = [x + a * y for x, y in zip(bound, tail)]
        tail = [1] + [y + b * x for x, y in zip(e, tail[1:])]
        e = [1] + [y + c * x for x, y in zip(e, e[1:])]
    return bound


def _nonderogatory(vecs: list, L: int) -> bool:
    """Whether one split prime shows that the d x d matrix N of integer vectors mod x^L - 1 is non-derogatory.

    With p = 1 mod L the first split prime above 2^61 (numberfield._split_prime,
    cached per conductor) and g of order L mod p, x -> g maps Z[x]/(x^L - 1)
    onto F_p through Z[zeta_L], a ring map that reads the vectors as they
    are, normal forms or not.  The minimal polynomial mu of N divides the
    characteristic one, monic over the integrally closed Z[zeta_L], so its
    coefficients are integral, and mu(N) = 0 maps to mu-bar(N-bar) = 0.
    So deg mu = d when I, N-bar, ..., N-bar^(d-1) are independent mod p.
    """
    d = len(vecs)
    p, g = _split_prime(L)
    gs = _geometric(g, L, p)
    cols = list(zip(*[[sum(map(operator.mul, v, gs)) % p for v in row] for row in vecs]))
    power, flat = [[int(i == j) for j in range(d)] for i in range(d)], []
    for _ in range(d):
        flat.append([x for row in power for x in row])
        power = [[sum(map(operator.mul, row, col)) % p for col in cols] for row in power]
    # column t of the table is N-bar^t flattened: all d columns are pivots exactly when they are independent
    return _rref_mod([list(r) for r in zip(*flat)], d, p) == list(range(d))


def _minimal_poly(vecs: list, den: int, field: CycloField) -> list[CycloElement]:
    """The monic minimal polynomial of M = N / den, constant term first, for N as in _char_poly.

    When one split prime shows N, so M, non-derogatory (_nonderogatory),
    it is the characteristic polynomial, _char_poly on the same vectors.
    Otherwise the powers I, M, ..., M^d become field elements, and the
    table whose column t is M^t flattened, t = 0, ..., d, goes to the
    certified elimination (numberfield._certified_rref) as indices of its
    distinct entries: the first non-pivot column t is the first power
    that depends on the lower ones, and its coefficients over the pivots
    give M^t = sum over i < t of c_i M^i.  By Cayley-Hamilton some t <= d
    is dependent.  No field element is inverted.
    """
    if _nonderogatory(vecs, field.conductor):
        return _char_poly(vecs, den, field)
    m, d, zero, one = _elements(vecs, den, field), len(vecs), field.zero(), field.one()
    powers = [[[one if i == j else zero for j in range(d)] for i in range(d)], m][: d + 1]  # I, M, ..., M^d
    while len(powers) <= d:
        powers.append(_mat_mul(powers[-1], m, zero))
    index: dict = {}  # one index per distinct entry; row i*d + j holds entry (i, j) of each power
    rows = [[index.setdefault((x[i][j].vec, x[i][j].den), len(index)) for x in powers] for i in range(d) for j in range(d)]
    pivots, coeffs = _certified_rref(field, list(index), rows)
    t = next(c for c in range(d + 1) if c not in pivots)
    return [-coeffs[t][i] for i in range(t)] + [one]


# ----------------------------------------------------------------------
# the s digit levels at a root of unity
#
# With w = zeta_r0^u and L = lcm(m, r0) for outputs in Q(zeta_m), a term
# c zeta_m^i x^e (c rational) of a level at x = w^(k^t) is
# c zeta_L^(i L/m + e k^t (L/r0) u).  So the levels act over Z, after one
# common denominator D, on one vector mod x^L - 1 per state, packed as a
# residue (numberfield._pack), and each becomes one field element at the
# end.  Every step is a ring operation, so only the final slots must fit,
# and two bounds size them (_parseval): s levels keep the max slot within
# gain^s, gain the most sum |c| a state gathers (l1), and the sum of the
# squared slots within lambda^s times its start (l2, Parseval).


def _pairs(c: CycloElement, lift: int, den: int) -> list:
    """den c, c.den | den, as (power of zeta_L, integer) pairs, zeta_m = zeta_L^lift; one if c is rational."""
    f = den // c.den
    q = c.field._rational(c.vec)
    if q is not None:
        return [(0, q * f)] if q else []
    return [(i * lift, x * f) for i, x in enumerate(c.vec) if x]


def _reduced_table(a: Dfao, span: SpanAnalysis, L: int) -> tuple:
    """M-hat's cells at conductor L as one integer term table and its denominator den.

    Per generator, the (source, x-power, power of zeta_L, integer) terms it
    gathers, den c x^e for a cell (row, col, e, c) of digit_cells: row from
    col pulling (Left, forward), col from row pushing (Right, backward).
    """
    cells = digit_cells(a, span)
    den = math.lcm(*(c.den for *_, c in cells))
    pull, lift = a.direction == FORWARD, L // a.output_field.conductor
    table: list = [[] for _ in span.generators]
    for row, col, e, c in cells:
        dst, src = (row, col) if pull else (col, row)
        table[dst] += [(src, e, p, x) for p, x in _pairs(c, lift, den)]
    return table, den


def _parseval(table: list, L: int) -> int:
    """lambda: a level of the integer term table multiplies the sum over states of sum slot^2 by at most lambda.

    Reading a vector mod x^L - 1 at an L-th root of unity eta is a ring
    map, so a level at x = zeta_L^step acts on the values v(eta) as the
    d x d matrix A(eta), A[g][src] the sum of c eta^(p + e step) over the
    terms (src, e, p, c) of table[g].  Parseval on Z/L gives sum slot^2 =
    (1/L) sum over eta of |v(eta)|^2, so a level multiplies the sum over g
    of ||v_g||_2^2 by at most the max over eta of ||A(eta)||_2^2 =
    rho(A* A) <= max over i of sum over j of |(A* A)[i][j]|.  (A* A)[i][j]
    sums c1 c2 eta^(p2 - p1 + (e2 - e1) step) over the ordered pairs of
    terms of one generator whose sources are i and j; grouped by the key
    (i, j, (p2 - p1) mod L, e2 - e1), it is at most the sum over keys of
    |sum c1 c2|, and lambda is the max over i of that sum.  A key fixes
    the power of eta at every step, so one lambda serves every level and
    every root; the table's p are i L/m (_pairs), so it is the same at
    every conductor L.  After s levels on e_j every slot is at most
    isqrt(lambda^s), beside the l1 bound gain^s.  Neither bound implies
    the other: lambda exceeds gain^2 when one source feeds many states,
    and Rudin-Shapiro's level [[1, x], [1, -x]] has lambda = 2, gain^2 = 4.
    """
    sums: dict = {}
    for terms in table:
        for i, e1, p1, c1 in terms:
            for j, e2, p2, c2 in terms:
                key = (i, j, (p2 - p1) % L, e2 - e1)
                sums[key] = sums.get(key, 0) + c1 * c2
    rows = [0] * len(table)
    for (i, *_), x in sums.items():
        rows[i] += abs(x)
    return max(rows, default=0)


def _combine(terms, width: int, L: int) -> int:
    """The sum of c x^p v over the (v, p, c) terms, v residues, 0 <= p < L."""
    bits, full = 8 * width, (1 << 8 * width * L) - 1
    acc = sum(c * (v << p * bits) for v, p, c in terms)
    return ((acc & full) + (acc >> bits * L)) % full  # 2^(bits L) = 1 folds the top half down


def _apply_levels(vecs: list, table: list, root: RootSpec, L: int, width: int) -> list:
    """Levels t = 0, ..., s - 1 of an integer term table, at x = w^(k^t), on one residue per state.

    Each level folds its sums once, as (acc & full) + (acc >> top): the
    value stays congruent mod full, as 2^top = 1, and grows by at most
    log2(sum |c| + 1) bits a level, so one % full per state at the end
    makes the residues of the s levels.
    """
    bits, top, full = 8 * width, 8 * width * L, (1 << 8 * width * L) - 1
    step = L // root.r0 * root.primitive_exponent  # zeta_L^step = w^(k^t)
    for _ in range(root.s):
        nxt = []
        for terms in table:
            acc = 0
            for src, e, p, c in terms:
                v = vecs[src]
                if v:  # zero is exact mod full: a zero vector adds nothing to the final slots
                    v <<= (p + e * step) % L * bits
                    acc += v if c == 1 else c * v
            nxt.append((acc & full) + (acc >> top))
        vecs = nxt
        step = step * root.k % L
    return [v % full for v in vecs]


def _unit_levels(table: list, root: RootSpec, L: int, lam: int) -> list:
    """Per j, the levels of an integer term table applied to the unit vector e_j, as vectors mod x^L - 1.

    The slots are at most gain^s and at most isqrt(lam^s), lam the
    table's _parseval, and the narrower width is taken.
    """
    gain = max(sum(abs(t[-1]) for t in terms) for terms in table)
    width = _width(min(gain**root.s, math.isqrt(lam**root.s)))
    units = [[int(i == j) for i in range(len(table))] for j in range(len(table))]
    return [[_unpack(v, width, L) for v in _apply_levels(u, table, root, L, width)] for u in units]


def _reduced_product(a: Dfao, table: list, den: int, root: RootSpec, lam: int) -> tuple:
    """M-hat(k^s; w) as integer vectors mod x^L - 1, not normalized, over D, with its field Q(zeta_L).

    The ordered product of the s digit-substituted copies of M-hat(x), read
    as _reduced_table's table over den at L = lcm(m, r0), at x = w: column
    j (Left) or row j (Right) is the levels applied to e_j, and D = den^s;
    lam is the table's _parseval.
    """
    K = cyclo_field(math.lcm(a.output_field.conductor, root.r0))
    got = _unit_levels(table, root, K.conductor, lam)
    return [list(col) for col in zip(*got)] if a.direction == FORWARD else got, den**root.s, K


# ----------------------------------------------------------------------
# process-wide caches, least recently used first

# machines, and polynomials and first failures per machine; a root sweep
# keeps one of each per conductor and Galois class on its machine (18 per
# machine over criterion 02's grid)
_CACHE_SIZE = 128
# frames (_frame), one per output conductor and root, not per class: 257
# over criterion 02's grid, each three small objects
_FRAME_CACHE_SIZE = 1024
_MACHINE_CACHE: OrderedDict = OrderedDict()


def _cached(cache: OrderedDict, key, build):
    """cache[key], built on a miss; the least recently used entry goes past _CACHE_SIZE."""
    try:
        cache.move_to_end(key)
    except KeyError:
        cache[key] = build()
        if len(cache) > _CACHE_SIZE:
            cache.popitem(last=False)
    return cache[key]


def clear_caches() -> None:
    """Empty the machine and frame caches of this module, so the next call does all of its work cold.

    They hold at most _CACHE_SIZE machines, each with its span, term
    table and at most _CACHE_SIZE polynomials and _CACHE_SIZE first
    failures, and at most _FRAME_CACHE_SIZE frames.  numberfield's LRUs
    (cyclo_field, _split_prime, _embeddings) are not emptied; _embeddings
    also holds the product conductor L of a derogatory --minimal.
    """
    _MACHINE_CACHE.clear()
    _frame.cache_clear()


def _structure(a: Dfao) -> tuple:
    """What synthesis and verify read of an automaton: equal keys, equal results.

    A Dfao is never mutated, so the key is built once and kept on it.
    """
    try:
        return a._structure_key
    except AttributeError:
        key = (a.base, a.direction, a.delta, a.output_field.conductor, tuple((v.vec, v.den) for v in a.outputs))
        a._structure_key = key
        return key


class _Machine:
    """The padded-word machine of a (_pad_invariant), on first use its span, term table and lambda, and LRUs of its polynomials and first failures."""

    def __init__(self, a: Dfao):
        self.padded = _pad_invariant(prune_inaccessible(a))
        self._table: tuple = (None, None)
        self.parseval: Optional[int] = None  # _parseval of the term table, the same at every L: set by the first table
        self.polys: OrderedDict = OrderedDict()
        self.failures: OrderedDict = OrderedDict()

    @functools.cached_property
    def span(self) -> SpanAnalysis:
        """The padded machine's span analysis, once per structure, kept without the witness words."""
        span = span_analysis(self.padded)
        return SpanAnalysis(span.field, (), span.rank, span.generators, span.alphas)

    def table(self, L: int) -> tuple:
        """_reduced_table at conductor L, kept for the last L only: synthesis and verify of a root ask for the same L."""
        if self._table[0] != L:
            self._table = (L, _reduced_table(self.padded, self.span, L))
            if self.parseval is None:
                self.parseval = _parseval(self._table[1][0], L)
        return self._table[1]


def _machine(a: Dfao) -> _Machine:
    """The _Machine of a, per structure."""
    return _cached(_MACHINE_CACHE, _structure(a), lambda: _Machine(a))


# ----------------------------------------------------------------------
# synthesis


def synthesize(a: Dfao, root: RootSpec, use_minimal: bool = False) -> Recurrence:
    """Recurrence for A(n; w) out of the reduced transition product.

    The coefficients are those of the characteristic polynomial of
    M-hat(k^s; w); with use_minimal the minimal polynomial is taken
    instead, which can shorten the recurrence.  The polynomial is built
    at the root u1 of w's Galois class (_frame) and mapped by sigma_t, so
    a root sweep builds one per automaton, conductor and class.
    """
    if root.k != a.base:
        raise AutorecError(f"root was built for k = {root.k}, automaton has base {a.base}")
    machine, r0, u = _machine(a), root.r0, root.primitive_exponent
    u1, sigma, _ = _frame(a.output_field.conductor, r0, u)

    def build():
        at_u1 = RootSpec(root.k, r0, u1, root.s)
        table, den = machine.table(sigma.field.conductor)
        product = _reduced_product(machine.padded, table, den, at_u1, machine.parseval)
        return (_minimal_poly if use_minimal else _char_poly)(*product)

    coeffs = _cached(machine.polys, (root.s, r0, u1, use_minimal), build)
    if u1 != u:
        coeffs = [c if sigma.field._rational(c.vec) is not None else sigma(c) for c in coeffs]
    return Recurrence(a.base, root, coeffs, "min_poly" if use_minimal else "char_poly")


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _frame(m: int, r0: int, u: int) -> tuple:
    """(u1, sigma_t, sigma_t^(-1)): the root zeta_r0^u1 that stands for zeta_r0^u in synthesis and verify, and the maps between them.

    u1 is the least unit mod r0 with u1 = u (mod g), g = gcd(m, r0), and
    sigma_t: zeta_L -> zeta_L^t on Q(zeta_L), L = lcm(m, r0), with t = 1
    (mod m) and t u1 = u (mod r0); both congruences agree mod g, so t
    exists, and it is prime to L.  sigma_t fixes the outputs, in
    Q(zeta_m), and takes w1 = zeta_r0^u1 to w = zeta_r0^u.  The entry of
    the product at slot (j, i) becomes zeta_m^i w^j, so M-hat(k^s; w) is
    sigma_t of M-hat(k^s; w1) entry by entry, and so are its
    characteristic and minimal polynomials; and A(n; w) = sigma_t(A(n;
    w1)), so the residuals of a recurrence at w are sigma_t of those of
    sigma_t^(-1) of it at w1, and vanish at the same n.  Rational
    coefficients are fixed.  For m = 1 there is one class per conductor.
    The frames of the last _FRAME_CACHE_SIZE keys are kept.
    """
    g = math.gcd(m, r0)
    u1 = u % g
    while math.gcd(u1, r0) != 1:
        u1 += g
    # t = 1 + m x with m x = u / u1 - 1 (mod r0), which g divides
    x = (u * pow(u1, -1, r0) - 1) // g * pow(m // g, -1, r0 // g)
    K, t = cyclo_field(math.lcm(m, r0)), 1 + m * x
    return u1, GaloisMap(K, t), GaloisMap(K, pow(t, -1, K.conductor))


# ----------------------------------------------------------------------
# verification


def _first_failure(start, step, base: int, nonzero) -> Optional[int]:
    """1 + the least m whose expansion leads from start to a state where nonzero holds, or None when none does.

    step(state, digit) reads one digit, most significant first; m = 0 is
    the empty word.  Each state is tested and extended once, at the first
    length that reaches it and from the least m found there, as the
    expansions of one length ascend with their values.  No failure is
    lost: were a state on the path of the least failing m met before, at
    some m', m' followed by the rest of m's digits would fail below m, as
    a digit word has the term of its value, leading zeros or not
    (_pad_invariant).  So None, every reached state tested zero, proves
    every m.
    """
    frontier, seen = {start: 0}, {start}  # state -> least m, ascending in m
    digits = range(1, base)
    while frontier:
        for state, m in frontier.items():
            if nonzero(state):
                return m + 1
        nxt: dict = {}
        for state, m in frontier.items():
            for dig in digits:
                q = step(state, dig)
                if q not in seen:
                    seen.add(q)
                    nxt[q] = m * base + dig
        frontier, digits = nxt, range(base)
    return None


def _units(factors: list, L: int, n: int) -> int:
    """The sum over n' = 1, ..., n and f in factors of L + (n' f).bit_length().

    n' f keeps one bit length on a run of consecutive n'; each run is summed at once.
    """
    total = n * len(factors) * L
    for f in factors:
        lo, b = 1, f.bit_length()
        while lo <= n:
            hi = min(n, ((1 << b) - 1) // f)  # the last n' with (n' f).bit_length() == b
            total += (hi - lo + 1) * b
            lo, b = hi + 1, b + 1
    return total


def _overrun(rec: Recurrence, L: int, n_max: int, budget: Optional[int]) -> Optional[tuple]:
    """The first n <= n_max whose work units pass the budget, with the units spent."""
    if budget is None or n_max < 1:
        return None
    factors = [rec.k ** (rec.root.s * j) for j in range(rec.order + 1)]
    if _units(factors, L, n_max) <= budget:
        return None
    # the units grow with n, so the first n past the budget is found by bisection
    n = 1 + bisect.bisect_right(range(1, n_max + 1), budget, key=lambda m: _units(factors, L, m))
    return n, _units(factors, L, n)


def verify(
    rec: Recurrence,
    a: Dfao,
    n_max: int,
    budget: Optional[int] = None,
) -> VerificationReport:
    """Re-check the recurrence for n = 1, ..., n_max through the word-sum recursion on M-hat.

    The first failure is 1 + the least m whose term (module docstring)
    is nonzero.  _scan builds rho-hat, rho over the span's generators, on
    the term table synthesis reads, with no normal form (_annihilate),
    and scans a nonzero rho-hat per distinct state, or per distinct
    backward state tuple, for the first failure over all n, which verify
    reports when it is at most n_max.  The scan runs at the root u1 of
    w's Galois class (_frame) on the coefficients pulled back by
    sigma_t^(-1), and its first failure is kept on the automaton's
    _Machine per step, class and pulled-back coefficients (failures),
    for every bound and every root of the class.  A call costs l s T
    shifts for any n_max, T the table's terms, plus those sums.  The budget caps the
    work units, L + (n k^(js)).bit_length() per n and term, summed in
    closed form, with a BudgetError at the first n past it unless an
    earlier n fails.  A coefficient may be written in a field larger
    than Q(zeta_L), L the conductor of the outputs and w together; it
    is descended into Q(zeta_L) first, and one whose value lies outside
    that field raises.
    """
    if rec.k != a.base:
        raise AutorecError("recurrence and automaton disagree on the base k")
    if n_max < 0:
        raise AutorecError(f"verification bound must be nonnegative, got {n_max}")
    if budget is not None and budget < 0:
        raise AutorecError(f"verification budget must be nonnegative, got {budget}")
    root, machine = rec.root, _machine(a)
    u1, _, pull = _frame(a.output_field.conductor, root.r0, root.primitive_exponent)
    K = pull.field
    L = K.conductor
    cs = [K.coerce(c) if L % c.field.conductor == 0 else _descend(c, L) for c in rec.coefficients]
    if any(c is None for c in cs):
        raise AutorecError(f"a recurrence coefficient lies outside Q(zeta_{L}), the field of the outputs and w")
    if u1 != root.primitive_exponent:
        cs = [c if K._rational(c.vec) is not None else pull(c) for c in cs]

    def scan():
        den = math.lcm(*(c.den for c in cs))
        vecs = [_annihilate([x * (den // c.den) for x in c.vec], L) for c in cs]
        return _scan(vecs, RootSpec(root.k, root.r0, u1, root.s), machine, L)

    key = (root.s, root.r0, u1, tuple((c.vec, c.den) for c in cs))
    failure = _cached(machine.failures, key, scan)
    if failure is not None and failure > n_max:
        failure = None
    # the units run out at n before the residual at n is read
    over = _overrun(rec, L, failure or n_max, budget)
    if over is not None:
        raise BudgetError(
            f"verification budget exhausted at n = {over[0]} ({over[1]} > {budget} units)"
        )
    return VerificationReport(n_max, failure is None, failure)


def _annihilate(c: list, L: int) -> list:
    """e_L c mod x^L - 1, e_L the product over the primes p | L of x^(L/p) - 1.

    It is zero exactly when c is zero in Q(zeta_L).  By CRT, Q[x]/(x^L - 1)
    is the product of the Q(zeta_d) over d | L.  Each d < L divides some
    L/p, so e_L vanishes at zeta_d; at zeta_L it is the product of the
    zeta_p - 1, which is not 0.  A slot grows at most 2^omega(L)-fold.
    """
    for p, _ in factorize(L):
        h = L // p
        c = [x - y for x, y in zip(c[-h:] + c[:-h], c)]
    return c


def _scan(cs: list, root: RootSpec, machine: _Machine, L: int) -> Optional[int]:
    """The first n with a nonzero residual, from rho-hat on M-hat's term table (_reduced_table).

    With f_p = sum over b of alpha_(p,b) f_(g_b) on all words (the span),
    H_l(p) = sum over b of alpha_(p,b)
    H-hat_l(b) and G_l alpha = G-hat_l, the levels of the table from
    out(g_b) and from e_0.  So with rho-hat = sum over j of C_j H-hat_(js)
    (or G-hat_(js)), the term of m is sum over b of alpha_(q,b) rho-hat(b),
    q = state(m), forward, and sum over b of rho-hat(b) out(tau(g_b)), tau
    the state tuple of m, backward.  rho-hat = 0 proves every n.  The
    converse holds forward, as rho-hat(b) is the term of an m that
    reaches g_b (the padded machine ignores leading zeros), but not
    always backward: the f_(g_b) are independent unless state 0 is a
    generator and no pivot (span_analysis), that is, unless f_0, the
    sequence, is 0 on every word, and then every recurrence holds.  So a
    nonzero rho-hat is scanned (_first_failure), which returns None when
    every reached state or state tuple has a zero term.  With B the s
    levels of the table and D = den^s, Horner's form (_horner) gives
    D^l rho-hat = sum over j of B^j(D^(l-j) C_j x), the C_j times e_L
    (_annihilate), so a term is zero exactly when its residue is 0.
    """
    a, span = machine.padded, machine.span
    gens, lift = span.generators, L // a.output_field.conductor
    table, den = machine.table(L)
    # each output as (power of zeta_L, integer) pairs, all over one denominator
    oden = math.lcm(*(v.den for v in a.outputs))
    outs = [_pairs(v, lift, oden) for v in a.outputs]
    if a.direction == FORWARD:
        # the term of q reads rho-hat through alpha_q, over its own denominator
        rows = {g: [(b, 0, 1)] for b, g in enumerate(gens)}
        for q, alpha in span.alphas.items():
            d = math.lcm(*(c.den for c in alpha))
            rows[q] = [(b, p, y) for b, c in enumerate(alpha) for p, y in _pairs(c, lift, d)]
        xs, spread = [outs[g] for g in gens], max(sum(abs(y) for *_, y in row) for row in rows.values())
        start, step = 0, lambda q, dig: a.delta[q][dig]
    else:
        xs, spread = [[(0, 1)]] + [[]] * (len(gens) - 1), len(gens)
        # the state tuple of m maps p to delta(p, m read least significant digit first)
        start, step = tuple(range(a.size)), lambda tau, dig: tuple(tau[row[dig]] for row in a.delta)
    # slots, by the two bounds of _parseval: B multiplies the max slot by at most gain (l1) and the sum
    # over generators of sum slot^2 by at most lam (l2), where ||C_j x_b||_2 <= ||C_j||_2 ||x_b||_1 (Young);
    # x multiplies the max slot by at most reach, and a term multiplies it by ||alpha_q||_1 or the rank
    gain = max(1, *(sum(abs(t[-1]) for t in terms) for terms in table)) ** root.s
    lam = max(1, machine.parseval) ** root.s
    l, D, reach = len(cs) - 1, den**root.s, max(1, *(sum(abs(y) for _, y in x) for x in outs))
    l1 = sum(max(map(abs, c)) * D ** (l - j) * gain**j for j, c in enumerate(cs))
    xx = max(1, sum(sum(abs(y) for _, y in x) ** 2 for x in xs))
    l2 = sum(math.isqrt(D ** (2 * (l - j)) * lam**j * sum(map(operator.mul, c, c)) * xx) for j, c in enumerate(cs))
    width = _width(reach * spread * min(l1, l2))
    v = _horner(cs, xs, table, D, root, L, width)
    if not any(v):
        return None  # rho-hat = 0: the recurrence holds for all n

    def nonzero(state) -> bool:
        """Whether the term of a state (forward) or of a state tuple (backward) is nonzero."""
        terms = rows[state] if a.direction == FORWARD else [(b, p, y) for b, g in enumerate(gens) for p, y in outs[state[g]]]
        return _combine([(v[b], p, y) for b, p, y in terms], width, L) != 0

    return _first_failure(start, step, a.base, nonzero)


def _horner(cs: list, xs: list, table: list, D: int, root: RootSpec, L: int, width: int) -> list:
    """D^l rho-hat = sum over j of B^j(D^(l-j) C_j x_b), one residue per generator b, by Horner's form at the slot width.

    x_b is a list of (power of zeta_L, integer) pairs, B the s levels of
    the table (_apply_levels) and D = den^s.
    """
    v = [0] * len(xs)
    for i, c in enumerate(reversed(cs)):
        v = _apply_levels(v, table, root, L, width)  # a no-op on the zeros before C_l
        c = _pack(c, width)
        v = [_combine([(u, 0, 1)] + [(c, p, y * D**i) for p, y in x], width, L) for u, x in zip(v, xs)]
    return v


# ----------------------------------------------------------------------
# integer recurrences via coset products


def integer_recurrence(a: Dfao, root: RootSpec) -> Recurrence:
    """Multiply the recurrence over Galois coset representatives.

    Requires every entry of the reduced matrix to have rational
    coefficients.  Then M-hat(k^s; w) has entries in Q(zeta_r0), so do
    the coefficients C_j of its characteristic polynomial, whatever the
    outputs, and sigma_k: zeta -> zeta^k, which turns the product into a
    cyclic rotation of itself, fixes each C_j.  Each C_j is descended into
    Q(zeta_r0) and sigma_k(C_j) = C_j is checked exactly; a C_j that fails
    raises, as a bug.  So the C_j lie in the fixed field of <k>, sigma_u(C_j)
    depends only on the coset of u, and the product over the h coset
    representatives u of sum over j of sigma_u(C_j) y^j is the norm of the
    polynomial down to Q: its coefficients are rational.

    They are computed by CRT (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 5).  With D the lcm of the denominators, a_j = D C_j
    integer vectors and B = (sum over j of ||a_j||_1)^h, every coefficient
    of the product of the sum over j of sigma_u(a_j) y^j is an integer of
    size at most B: each embedding of sigma_u(a_j) has size at most
    ||a_j||_1.  For each split prime p = 1 (mod 2 r0) above 2^61 in
    increasing order, walked through the cache of numberfield._split_prime,
    with g of order r0 mod p, zeta -> g^u maps sigma_u(a_j) to the sum over
    i of a_j[i] g^(u i) in F_p, a ring map, and the h factors are
    multiplied mod p.  Once the product of the primes passes 2 B the
    symmetric residues are the coefficients, which are divided by D^h and
    then scaled by the lcm of their denominators.
    """
    machine = _machine(a)
    if any(c.rational_value() is None for *_, c in digit_cells(machine.padded, machine.span)):
        raise AutorecError("integer recurrences need a reduced matrix with rational entries")
    base_rec = synthesize(a, root)
    r0 = root.r0
    sigma = GaloisMap(cyclo_field(r0), root.k)
    cs = [_descend(c, r0) for c in base_rec.coefficients]
    if any(c is None or sigma(c) != c for c in cs):
        raise AutorecError(
            "coset product produced an irrational coefficient; "
            "this contradicts the Galois argument and indicates a bug"
        )
    den = math.lcm(*(c.den for c in cs))
    vecs = [[(i, x * (den // c.den)) for i, x in enumerate(c.vec) if x] for c in cs]
    reps = coset_reps(root.k, r0)
    bound = sum(abs(x) for v in vecs for _, x in v) ** len(reps)
    got, modulus, p = [0] * (len(reps) * (len(cs) - 1) + 1), 1, 1 << 61
    while modulus <= 2 * bound:
        p, g = _split_prime(r0, p)
        gs = _geometric(g, r0, p)
        prod = [1]
        for u in reps:
            f = [sum(x * gs[i * u % r0] for i, x in v) % p for v in vecs]
            out = [0] * (len(prod) + len(f) - 1)
            for i, x in enumerate(prod):
                for j, y in enumerate(f):
                    out[i + j] += x * y
            prod = [x % p for x in out]
        # the residue mod modulus p that is x mod modulus and y mod p
        inv = pow(modulus, -1, p)
        got = [x + modulus * ((y - x) * inv % p) for x, y in zip(got, prod)]
        modulus *= p
    rat = [Fraction(x - modulus if 2 * x > modulus else x, den ** len(reps)) for x in got]
    scale = math.lcm(*(q.denominator for q in rat))
    coeffs = [cyclo_field(1).from_rational(q * scale) for q in rat]
    return Recurrence(a.base, root, coeffs, "integer_product")


def _descend(c: CycloElement, r0: int) -> Optional[CycloElement]:
    """c as an element of Q(zeta_r0), or None when it lies outside that field."""
    if c.field.conductor == r0:
        return c
    n, vec = c._minimal()
    if r0 % n:
        return None
    return cyclo_field(r0).coerce(_lowest(cyclo_field(n), vec, c.den))


# ----------------------------------------------------------------------
# dimensions


def lmin_bound(a: Dfao) -> int:
    """Upper bound for the minimal recurrence length: the span rank."""
    return span_analysis(prune_inaccessible(a)).rank


class DimReport:
    def __init__(self, forward_dim, backward_dim, forward_states, backward_states):
        self.forward_dim = forward_dim
        self.backward_dim = backward_dim
        self.forward_states = forward_states
        self.backward_states = backward_states

    def to_json_dict(self) -> dict:
        return {
            "forward_dim": self.forward_dim,
            "backward_dim": self.backward_dim,
            "forward_states": self.forward_states,
            "backward_states": self.backward_states,
        }

    def __repr__(self):
        return (
            f"DimReport(forward_dim={self.forward_dim}, backward_dim={self.backward_dim})"
        )


def dim_experiment(a: Dfao, cap: int = 100000) -> DimReport:
    """Span ranks of the machine and of its direction reversal, from one span analysis.

    Both are the rank of the Hankel matrix (u, v) -> a(uv) of the word
    function, whose reversal's, a(v^R u^R), is a relabelled transpose;
    the reversal is built for its size alone.
    """
    rank = lmin_bound(a)
    sizes = [prune_inaccessible(b).size for b in (a, reverse_dfao(a, cap))]
    return DimReport(rank, rank, *(sizes if a.direction == FORWARD else sizes[::-1]))
