"""Recurrences for partial sums of automatic sequences at roots of unity.

For a k-automatic sequence a(n) with partial sum polynomial
A(n; x) = sum of a(m) x^m over m < n, and a root of unity w = zeta_r^e
with gcd(k, r) = 1, the characteristic polynomial of the reduced
transition product M-hat(k^s; w) yields coefficients C_0, ..., C_l with

    sum over m of C_m(w) A(k^(m s) n; w) = 0        for all n >= 1,

where s is a multiple of the multiplicative order of k modulo the
conductor r0 of w.  Products over Galois cosets turn these into integer
recurrences whenever the reduced matrix has rational entries.

Verification is independent of the synthesis route: partial sums are
re-evaluated directly from the sequence, with equal-length digit blocks
grouped so that astronomically large arguments k^(ms) n stay exact and
cheap.  Everything is computed over Q; floating point never enters.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction
from typing import Optional

from .errors import AutorecError, BudgetError
from .automaton import (
    BACKWARD,
    FORWARD,
    Dfao,
    expansion,
    prune_inaccessible,
    reverse_dfao,
)
from .numberfield import (
    CycloElement,
    CycloField,
    CyclicMultiplier,
    GaloisMap,
    _rref,
    coset_reps,
    cyclo_field,
    multiplicative_order,
    pretty_sum,
)
from .polymatrix import (
    LEFT,
    RIGHT,
    CycloPoly,
    PolyMatrix,
    _mat_mul,
    reduced_matrix,
    span_analysis,
    transition_matrix,
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
        self.k = k
        self.root = root
        self.coefficients = tuple(coefficients)
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


def _powers(rows, field: CycloField) -> list:
    """I, M, M^2, ..., M^d for the d x d matrix M, from d - 1 products."""
    d = len(rows)
    m = [[field.coerce(v) for v in row] for row in rows]
    if any(len(row) != d for row in m):
        raise AutorecError("matrix must be square")
    zero, one = field.zero(), field.one()
    powers = [[[one if i == j else zero for j in range(d)] for i in range(d)], m][: d + 1]
    while len(powers) <= d:
        powers.append(_mat_mul(powers[-1], m, zero))
    return powers


def char_poly(rows, field: CycloField) -> list[CycloElement]:
    """Characteristic polynomial coefficients of a scalar matrix.

    Returns (c_0, ..., c_d) with det(y I - M) = sum c_m y^m, constant
    term first and c_d = 1.  The coefficients come from the power sums
    p_j = tr(M^j) by Newton's identities,
    j c_(d-j) = -(p_j + sum over 0 < i < j of c_(d-i) p_(j-i)),
    so the only divisions are by the integers 2, ..., d.
    """
    powers = _powers(rows, field)
    d = len(powers) - 1
    p = [sum((m[i][i] for i in range(d)), field.zero()) for m in powers]
    top = [field.one()]  # top[i] = c_(d-i)
    for j in range(1, d + 1):
        acc = p[j]
        for i in range(1, j):
            acc = acc + top[i] * p[j - i]
        top.append(-acc / j if j > 1 else -acc)  # a division by 1 still costs a pass
    return top[::-1]


def minimal_poly(rows, field: CycloField) -> list[CycloElement]:
    """Monic minimal polynomial of a scalar matrix, constant term first.

    One elimination over the table whose column t is M^t flattened,
    t = 0, ..., d: the first non-pivot column t is the first power that
    depends on the lower ones, and the pivot rows hold its coefficients,
    M^t = sum over i < t of table[i][t] M^i.  By Cayley-Hamilton some
    t <= d is dependent.
    """
    powers = _powers(rows, field)
    d = len(powers) - 1
    table = [[m[i][j] for m in powers] for i in range(d) for j in range(d)]
    pivots = _rref(table, d + 1)
    t = next(c for c in range(d + 1) if c not in pivots)
    return [-table[i][t] for i in range(t)] + [field.one()]


# ----------------------------------------------------------------------
# evaluating the ordered matrix product at a root of unity
#
# With outputs in Q(zeta_m), w = zeta_r0^u and L = lcm(m, r0), the term
# c zeta_m^i x^e (c rational) of M-hat(x^(k^t)) is c zeta_L^(i L/m + e k^t (L/r0) u)
# at x = w.  So the whole product is accumulated over Q, modulo x^L - 1 in
# powers of zeta_L, and each entry becomes one field element at the end.


def _cyc_add_scaled(dst: list, src: list, shift: int, c) -> None:
    """dst[(shift + j) % r] += c * src[j], in place."""
    r = len(dst)
    shift %= r
    cut = r - shift
    if c == 1:
        dst[shift:] = [x + y for x, y in zip(dst[shift:], src[:cut])]
        if shift:
            dst[:shift] = [x + y for x, y in zip(dst[:shift], src[cut:])]
    else:
        dst[shift:] = [x + c * y for x, y in zip(dst[shift:], src[:cut])]
        if shift:
            dst[:shift] = [x + c * y for x, y in zip(dst[:shift], src[cut:])]


def _product_at_root(mhat: PolyMatrix, root: RootSpec, side: str) -> list:
    """Ordered product of the s digit-substituted copies of mhat at x = w.

    Entries come back as dense rational vectors on the powers of zeta_L.
    """
    d, m, r0 = mhat.dim, mhat.field.conductor, root.r0
    L = math.lcm(m, r0)
    lift = L // m
    # (power of zeta_L, power of x, rational coefficient) per term of each entry
    terms = [
        [
            [(i * lift, e, c) for e, z in enumerate(p.coeffs) for i, c in enumerate(z.vec) if c]
            for p in row
        ]
        for row in mhat.rows
    ]
    xpow = (L // r0) * root.primitive_exponent  # the power of zeta_L at x^(k^t)
    acc = None
    for _ in range(root.s):
        fac = [[[((i + e * xpow) % L, c) for i, e, c in cell] for cell in row] for row in terms]
        xpow = xpow * root.k % L
        new = [[[0] * L for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                dst = new[i][j]
                if acc is None:
                    for e, c in fac[i][j]:
                        dst[e] += c
                    continue
                for t in range(d):
                    if side == LEFT:
                        pairs, vec = fac[i][t], acc[t][j]
                    else:
                        pairs, vec = fac[t][j], acc[i][t]
                    for e, c in pairs:
                        _cyc_add_scaled(dst, vec, e, c)
        acc = new
    return acc


def _root_map(m: int, root: RootSpec) -> list[list[int]]:
    """The slot-to-power map of bucket vectors, as g lists of slots per power.

    Slot j*m + i (the coefficient of zeta_m^i in residue class j) goes to
    power (i*L/m + j*(L/r0)*u) mod L of zeta_L, where L = lcm(m, r0) and
    w = zeta_r0^u.  The map is an additive homomorphism Z_r0 x Z_m -> Z_L
    onto, so every power receives g = r0*m/L slots; list t holds the t-th
    slot of each power.  g = 1 (a bijection) when gcd(m, r0) = 1.
    """
    L = math.lcm(m, root.r0)
    lift = L // m
    step = (L // root.r0) * root.primitive_exponent
    slots: list[list[int]] = [[] for _ in range(L)]
    for j in range(root.r0):
        for i in range(m):
            slots[(i * lift + j * step) % L].append(j * m + i)
    return [list(col) for col in zip(*slots)]


def _at_root(vec: list, inv: list[list[int]]) -> list:
    """sum of vec[j*m + i] zeta_m^i w^j as a vector mod x^L - 1, not normalized."""
    out = [vec[s] for s in inv[0]]
    for more in inv[1:]:
        out = [x + vec[s] for x, s in zip(out, more)]
    return out


def reduced_product_at_root(mhat: PolyMatrix, root: RootSpec, side: str):
    """M-hat(k^s; w) (Left) or its Right mirror, as a scalar matrix."""
    K = cyclo_field(math.lcm(mhat.field.conductor, root.r0))
    return [[K.element(vec) for vec in row] for row in _product_at_root(mhat, root, side)], K


# ----------------------------------------------------------------------
# process-wide caches, least recently used first

# entries per cache; a root sweep keeps one per automaton and conductor
# (72 over criterion 02's grid)
_CACHE_SIZE = 128
_SYNTH_CACHE: OrderedDict = OrderedDict()
_BLOCK_CACHE: OrderedDict = OrderedDict()


def _cached(cache: OrderedDict, key, build):
    """cache[key], built on a miss; the least recently used entry goes past _CACHE_SIZE."""
    got = cache.get(key)
    if got is None:
        got = cache[key] = build()
        if len(cache) > _CACHE_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return got


def clear_caches() -> None:
    """Empty the synthesis and block-sum caches."""
    _SYNTH_CACHE.clear()
    _BLOCK_CACHE.clear()


def _structure(a: Dfao) -> tuple:
    """What synthesis and block sums read of an automaton: equal keys, equal results."""
    return (a.base, a.direction, a.delta, a.output_field.conductor, tuple(v.vec for v in a.outputs))


# ----------------------------------------------------------------------
# synthesis


def _check_leading_zeros(a: Dfao) -> None:
    """Reject a backward machine that reads a most-significant zero as a change.

    Block sums count words zero-padded at the most significant end, so a
    state reached by an expansion (empty, or last digit read nonzero) must
    keep its output along its 0-transitions.  Each state of a, pruned, is
    on such a 0-path, so each 0-transition must keep the output.
    """
    for q in range(a.size):
        if a.outputs[a.delta[q][0]].vec != a.outputs[q].vec:
            raise AutorecError(
                f"backward automaton: reading a most-significant zero in state "
                f"{a.states[q]!r} changes the output, so padded words read a different a(n)"
            )


def _prepare(a: Dfao):
    ap = prune_inaccessible(a)
    if ap.direction == BACKWARD:
        _check_leading_zeros(ap)
    span = span_analysis(ap)
    mhat = reduced_matrix(transition_matrix(ap), span)
    side = LEFT if ap.direction == FORWARD else RIGHT
    return ap, span, mhat, side


def synthesize(a: Dfao, root: RootSpec, use_minimal: bool = False) -> Recurrence:
    """Recurrence for A(n; w) out of the reduced transition product.

    The coefficients are those of the characteristic polynomial of
    M-hat(k^s; w); with use_minimal the minimal polynomial is taken
    instead, which can shorten the recurrence.

    A root sweep builds one polynomial per automaton, conductor and
    Galois class, and reaches the other roots of the class by a Galois
    map.  With outputs in Q(zeta_m), w = zeta_r0^u, L = lcm(m, r0) and
    g = gcd(m, r0), the product entry at slot (j, i) becomes
    zeta_m^i w^j.  Take a root u1 already built with u = u1 (mod g).
    The t mod L with t = 1 (mod m) and t = u / u1 (mod r0) exists, as
    both congruences agree mod g, and sigma_t: zeta_L -> zeta_L^t fixes
    zeta_m and sends zeta_r0^u1 to zeta_r0^u.  So M-hat(k^s; zeta^u) is
    sigma_t of M-hat(k^s; zeta^u1) entry by entry, and so are its
    characteristic and minimal polynomials; rational coefficients are
    fixed by sigma_t.  For m = 1 there is one class per conductor.  The
    construction is shared across roots, never the check: verify
    re-evaluates every root on its own.
    """
    if root.k != a.base:
        raise AutorecError(f"root was built for k = {root.k}, automaton has base {a.base}")
    m, r0, u = a.output_field.conductor, root.r0, root.primitive_exponent
    key = (_structure(a), root.s, r0, u % math.gcd(m, r0), use_minimal)

    def build():
        _, _, mhat, side = _prepare(a)
        scal, field = reduced_product_at_root(mhat, root, side)
        return u, minimal_poly(scal, field) if use_minimal else char_poly(scal, field)

    u1, coeffs = _cached(_SYNTH_CACHE, key, build)
    if u1 != u:
        psi = GaloisMap(cyclo_field(math.lcm(m, r0)), _conjugator(m, r0, u * pow(u1, -1, r0)))
        coeffs = [c if c.rational_value() is not None else psi(c) for c in coeffs]
    return Recurrence(a.base, root, coeffs, "min_poly" if use_minimal else "char_poly")


def _conjugator(m: int, r0: int, v: int) -> int:
    """The t mod lcm(m, r0) with t = 1 (mod m) and t = v (mod r0), for v = 1 (mod gcd(m, r0))."""
    g = math.gcd(m, r0)
    x = (v - 1) // g * pow(m // g, -1, r0 // g)
    return (1 + m * x) % math.lcm(m, r0)


# ----------------------------------------------------------------------
# direct partial sums


class BlockSums:
    """Exact residue-class partial sums of an automatic sequence, in rationals only.

    bucket_vector(N) is one flat vector of length r0 * m, where m is the
    conductor of the output field: slot j*m + i holds the coefficient of
    zeta_m^i in the sum of a(t) over t < N with t = j mod r0.  It is valid
    for arbitrarily large N: words of equal length are grouped, and one
    table per word length propagates (state, value residue) weights, so a
    call costs O(k * len(digits of N)) vector rotations and no field
    arithmetic.  Forward tables hold flat output sums, where a residue
    shift s is a flat rotation by s*m.  Backward tables hold integer word
    counts per residue; a call adds them into one count vector per
    distinct output value and folds the values in once at the end, in
    O(values * r0 * m).  Over Q (m = 1) both are plain residue vectors.

    The words shorter than N (the full blocks) are summed once per word
    length t of the arguments asked for, each from the nearest shorter
    length already summed, and kept in `_full`; lengths never asked for
    are not kept, so the cache grows with the distinct argument lengths
    only.
    """

    def __init__(self, a: Dfao, r0: int):
        self.a = a
        self.r0 = r0
        self.m = a.output_field.conductor
        self._fwd = a.direction == FORWARD
        self._values = list(dict.fromkeys(v.vec for v in a.outputs))
        self._value_of = [self._values.index(v.vec) for v in a.outputs]
        # per word length t: the sums over all words shorter than t; t = 1
        # holds the empty word alone, which reads the output of state 0
        if self._fwd:
            base = [0] * (r0 * self.m)
            base[: self.m] = a.outputs[0].vec
        else:
            base = [[0] * r0 for _ in self._values]
            base[self._value_of[0]][0] = 1
        self._full = {1: base}
        # `at` before any digit is read (see _add_words): state 0, or the identity map
        self._start = 0 if self._fwd else list(range(a.size))
        self._kpow = [1 % r0]
        self._tables = []  # per free-suffix length
        self._buckets: dict[int, list] = {}

    def _kp(self, i: int) -> int:
        while len(self._kpow) <= i:
            self._kpow.append((self._kpow[-1] * self.a.base) % self.r0)
        return self._kpow[i]

    def _ensure(self, length: int) -> None:
        a, r0, m, fwd = self.a, self.r0, self.m, self._fwd
        tabs = self._tables
        if not tabs:
            if fwd:
                base = [list(v.vec) + [0] * ((r0 - 1) * m) for v in a.outputs]
            else:
                base = [[0] * r0 for _ in range(a.size)]
                base[0][0] = 1
            tabs.append(base)
        while len(tabs) <= length:
            prev = tabs[-1]
            unit = self._kp(len(tabs) - 1) * (m if fwd else 1)
            cur = [[0] * len(prev[0]) for _ in prev]
            # forward tables pull from the state a digit leads to, backward ones push to it
            for q, row in enumerate(a.delta):
                for dig, p in enumerate(row):
                    dst, src = (cur[q], prev[p]) if fwd else (cur[p], prev[q])
                    _cyc_add_scaled(dst, src, dig * unit, 1)
            tabs.append(cur)

    def _copy(self, acc) -> list:
        return list(acc) if self._fwd else [list(c) for c in acc]

    def _add_words(self, acc, at, val: int, digs, free: int) -> None:
        """Add the words prefix, dig, then `free` arbitrary digits, for dig in digs.

        val is the prefix's value mod r0.  Forward, at is the state the
        prefix leads to and acc a flat vector.  Backward, at[q] is the state
        reached by reading the prefix, least significant digit first, from
        q, and acc holds one count vector per distinct output value.
        """
        a, k = self.a, self.a.base
        tab = self._tables[free]
        unit = self._kp(free)
        if self._fwd:
            unit *= self.m
            for dig in digs:
                _cyc_add_scaled(acc, tab[a.delta[at][dig]], (val * k + dig) * unit, 1)
            return
        value_of = self._value_of
        for dig in digs:
            shift = (val * k + dig) * unit
            for q, src in enumerate(tab):
                if any(src):
                    _cyc_add_scaled(acc[value_of[at[a.delta[q][dig]]]], src, shift, 1)

    def _shorter(self, t: int) -> list:
        """The sums over all words shorter than t digits, t >= 1 (shared; do not mutate)."""
        full = self._full
        got = full.get(t)
        if got is None:
            below = max(ell for ell in full if ell < t)
            got = self._copy(full[below])
            for ell in range(below, t):  # words of exactly ell digits, leading digit nonzero
                self._add_words(got, self._start, 0, range(1, self.a.base), ell - 1)
            full[t] = got
        return got

    def bucket_vector(self, n: int) -> list:
        """Flat residue-class sums over t < n; cached per n."""
        got = self._buckets.get(n)
        if got is not None:
            return got
        a, r0, m = self.a, self.r0, self.m
        digits = expansion(n, a.base)
        if not digits:
            vec = [0] * (r0 * m)
        else:
            t = len(digits)
            self._ensure(t - 1)
            acc = self._copy(self._shorter(t))
            # the top block: proper prefixes of the digit string of n
            at = self._start
            val = 0
            for i, ni in enumerate(digits):
                lo = 1 if i == 0 else 0
                if ni > lo:
                    self._add_words(acc, at, val, range(lo, ni), t - i - 1)
                if self._fwd:
                    at = a.delta[at][ni]
                else:
                    at = [at[a.delta[q][ni]] for q in range(a.size)]
                val = (val * a.base + ni) % r0
            vec = acc if self._fwd else self._fold(acc)
        self._buckets[n] = vec
        return vec

    def _fold(self, counts) -> list:
        """Each output value enters once: slot j*m + i gains count[j] * value[i]."""
        m = self.m
        vec = [0] * (self.r0 * m)
        for value, count in zip(self._values, counts):
            for j, c in enumerate(count):
                if c:
                    lo = j * m
                    vec[lo : lo + m] = [x + c * y for x, y in zip(vec[lo : lo + m], value)]
        return vec


def block_sums(a: Dfao, r0: int) -> BlockSums:
    """Shared BlockSums instance per automaton structure and conductor."""
    return _cached(_BLOCK_CACHE, (_structure(a), r0), lambda: BlockSums(a, r0))


# ----------------------------------------------------------------------
# verification


def verify(
    rec: Recurrence,
    a: Dfao,
    n_max: int,
    budget: Optional[int] = None,
) -> VerificationReport:
    """Re-check the recurrence against directly computed partial sums.

    For every n up to n_max the residual sum of C_m(w) A(k^(ms) n; w) is
    evaluated exactly, as one vector mod x^L - 1, and its normal form is
    compared with zero.  The bucket vectors of BlockSums are carried to
    powers of zeta_L through one slot-to-power map, built once per call;
    a rational coefficient scales in the same pass, the others multiply
    the mapped vector mod x^L - 1 through one CyclicMultiplier each.
    The budget, when given, caps the number of elementary block
    operations and aborts with a BudgetError instead of running without
    bound.
    """
    if rec.k != a.base:
        raise AutorecError("recurrence and automaton disagree on the base k")
    if n_max < 0:
        raise AutorecError(f"verification bound must be nonnegative, got {n_max}")
    root = rec.root
    m = a.output_field.conductor
    K = cyclo_field(math.lcm(m, root.r0))
    L = K.conductor
    inv = _root_map(m, root)
    cs = []
    for c in rec.coefficients:
        q = c.rational_value()
        # a rational coefficient scales the vector, the others multiply it mod x^L - 1
        if q is None:
            cs.append(CyclicMultiplier(K.coerce(c).vec))
        else:
            cs.append(int(q) if q.denominator == 1 else q)
    blocks = block_sums(a, root.r0)
    step = root.k ** root.s
    work = 0
    first_failure = None
    for n in range(1, n_max + 1):
        acc = [0] * L
        arg = n
        for c in cs:
            vec = blocks.bucket_vector(arg)
            if type(c) is CyclicMultiplier:
                acc = [x + y for x, y in zip(acc, c(_at_root(vec, inv)))]
            else:
                for slots in inv:
                    acc = [x + c * vec[s] for x, s in zip(acc, slots)]
            work += L + arg.bit_length()
            arg *= step
        if budget is not None and work > budget:
            raise BudgetError(
                f"verification budget exhausted at n = {n} ({work} > {budget} units)"
            )
        if any(K._normal(acc)):
            first_failure = n
            break
    return VerificationReport(n_max, first_failure is None, first_failure)


# ----------------------------------------------------------------------
# integer recurrences via coset products


def integer_recurrence(a: Dfao, root: RootSpec) -> Recurrence:
    """Multiply the recurrence over Galois coset representatives.

    Requires every entry of the reduced matrix to have rational
    coefficients; then each coefficient of the product over psi_u of the
    characteristic polynomial is rational, and after clearing one common
    denominator, integral.
    """
    _, _, mhat, _ = _prepare(a)
    if any(c.rational_value() is None for row in mhat.rows for p in row for c in p.coeffs):
        raise AutorecError("integer recurrences need a reduced matrix with rational entries")
    base_rec = synthesize(a, root)
    field = root.field
    prod = CycloPoly(field, [1])
    for u in coset_reps(root.k, root.r0):
        psi = GaloisMap(field, u)
        prod = prod * CycloPoly(field, [psi(c) for c in base_rec.coefficients])
    rat = [c.rational_value() for c in prod.coeffs]
    if None in rat:
        raise AutorecError(
            "coset product produced an irrational coefficient; "
            "this contradicts the Galois argument and indicates a bug"
        )
    den = math.lcm(*(q.denominator for q in rat))
    coeffs = [cyclo_field(1).from_rational(q * den) for q in rat]
    return Recurrence(a.base, root, coeffs, "integer_product")


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
    """Span ranks of the machine and of its direction reversal."""
    rev = reverse_dfao(a, cap)
    fwd_machine = a if a.direction == FORWARD else rev
    bwd_machine = rev if a.direction == FORWARD else a
    fp = prune_inaccessible(fwd_machine)
    bp = prune_inaccessible(bwd_machine)
    return DimReport(
        span_analysis(fp).rank,
        span_analysis(bp).rank,
        fp.size,
        bp.size,
    )
