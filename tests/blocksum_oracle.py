"""The block evaluator: exact residue-class partial sums for arbitrarily large n.

It groups the words below n into blocks of equal length and sums residue
classes, a route to A(n; w) that shares no code with the word-sum
recursion of autorec.recurrence.verify, not even the vector rotation.
The tests compare the two, and the evaluator against literal summation.
"""

import math
from fractions import Fraction

from autorec.automaton import FORWARD, Dfao, expansion
from autorec.numberfield import cyclo_field
from autorec.recurrence import RootSpec, _structure


def _value(v) -> tuple:
    """An output as its rational vector on the powers of zeta_m: vec over den."""
    return tuple(x if v.den == 1 else Fraction(x, v.den) for x in v.vec)


def _add_shifted(dst: list, src: list, shift: int) -> None:
    """dst[(shift + j) % len(dst)] += src[j] for every j, in place."""
    for j, x in enumerate(src):
        dst[(shift + j) % len(dst)] += x


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
        self._values = list(dict.fromkeys(map(_value, a.outputs)))
        self._value_of = [self._values.index(_value(v)) for v in a.outputs]
        # per word length t: the sums over all words shorter than t; t = 1
        # holds the empty word alone, which reads the output of state 0
        if self._fwd:
            base = [0] * (r0 * self.m)
            base[: self.m] = _value(a.outputs[0])
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
                base = [list(_value(v)) + [0] * ((r0 - 1) * m) for v in a.outputs]
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
                    _add_shifted(dst, src, dig * unit)
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
                _add_shifted(acc, tab[a.delta[at][dig]], (val * k + dig) * unit)
            return
        value_of = self._value_of
        for dig in digs:
            shift = (val * k + dig) * unit
            for q, src in enumerate(tab):
                if any(src):
                    _add_shifted(acc[value_of[at[a.delta[q][dig]]]], src, shift)

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


_BLOCKS: dict = {}


def block_sums(a: Dfao, r0: int) -> BlockSums:
    """Shared BlockSums instance per automaton structure and conductor."""
    key = (_structure(a), r0)
    if key not in _BLOCKS:
        _BLOCKS[key] = BlockSums(a, r0)
    return _BLOCKS[key]


def root_map(m: int, root: RootSpec) -> list[list[int]]:
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


def at_root(vec: list, inv: list[list[int]]) -> list:
    """sum of vec[j*m + i] zeta_m^i w^j as a vector mod x^L - 1, not normalized."""
    out = [vec[s] for s in inv[0]]
    for more in inv[1:]:
        out = [x + vec[s] for x, s in zip(out, more)]
    return out


def partial_sum_fast(a, n: int, root):
    """A(n; w) through the block evaluator and the root map; exact for huge n."""
    m = a.output_field.conductor
    vec = at_root(block_sums(a, root.r0).bucket_vector(n), root_map(m, root))
    return cyclo_field(math.lcm(m, root.r0)).element(vec)
