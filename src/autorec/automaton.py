"""Finite automata with output and the sequences they induce.

A Dfao over the digit alphabet {0, ..., k-1} carries one output value
per state, taken from a cyclotomic field.  Reading the base-k expansion
of n most significant digit first (forward) or least significant digit
first (backward) from the initial state induces the sequence

    a(n) = output(delta(q0, w)),   w the expansion of n, (0) = empty word.

The module also provides the reversal construction that flips the
reading direction without changing the sequence, and a pattern counting
automaton for sequences zeta^(number of occurrences of a digit block).
"""

from __future__ import annotations

import re
from fractions import Fraction
from importlib import resources
from typing import Iterable, Optional

from .errors import AutorecError, ParseError
from .numberfield import CycloElement, common_field, cyclo_field, root_of_unity

FORWARD = "forward"
BACKWARD = "backward"

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ZETA = re.compile(r"zeta\((\d+)\)(?:\^(-?\d+))?\Z")
_INT = re.compile(r"-?\d+\Z")
_RAT = re.compile(r"(-?\d+)/(\d+)\Z")


# ----------------------------------------------------------------------
# expansions


def expansion(n: int, k: int) -> tuple[int, ...]:
    """Base-k digits of n, most significant first; n = 0 gives the empty word."""
    if n < 0:
        raise ValueError("expansion of a negative integer")
    digits = []
    while n:
        digits.append(n % k)
        n //= k
    return tuple(reversed(digits))


# ----------------------------------------------------------------------
# the automaton


class Dfao:
    """Deterministic finite automaton with output; state 0 is initial."""

    def __init__(self, base, direction, states, outputs, delta):
        if base < 2:
            raise AutorecError("base must be at least 2")
        if direction not in (FORWARD, BACKWARD):
            raise AutorecError(f"unknown direction {direction!r}")
        states = tuple(states)
        if not states:
            raise AutorecError("automaton needs at least one state")
        if len(set(states)) != len(states):
            raise AutorecError("duplicate state names")
        self.base = base
        self.direction = direction
        self.states = states
        field = cyclo_field(1)
        vals = []
        for v in outputs:
            if isinstance(v, (int, Fraction)):
                v = cyclo_field(1).from_rational(v)
            field = common_field(field, v.field)
            vals.append(v)
        self.output_field = field
        self.outputs = tuple(field.coerce(v) for v in vals)
        if len(self.outputs) != len(states):
            raise AutorecError("need exactly one output per state")
        delta = tuple(tuple(row) for row in delta)
        if len(delta) != len(states) or any(len(row) != base for row in delta):
            raise AutorecError("transition table must be states x base")
        for row in delta:
            for tgt in row:
                if not 0 <= tgt < len(states):
                    raise AutorecError(f"transition target {tgt} out of range")
        self.delta = delta

    # -- basic structure

    @property
    def size(self) -> int:
        return len(self.states)

    def run(self, state: int, word: Iterable[int]) -> int:
        for d in word:
            state = self.delta[state][d]
        return state

    def __eq__(self, other):
        if not isinstance(other, Dfao):
            return NotImplemented
        return (
            self.base == other.base
            and self.direction == other.direction
            and self.states == other.states
            and self.outputs == other.outputs
            and self.delta == other.delta
        )

    def __repr__(self):
        return (
            f"Dfao(base={self.base}, {self.direction}, "
            f"{len(self.states)} states)"
        )

    # -- serialization

    def to_text(self) -> str:
        """Canonical file form; parsing it back reproduces the automaton."""
        lines = [
            f"base: {self.base}",
            f"direction: {self.direction}",
            "states: " + " ".join(self.states),
        ]
        for name, v in zip(self.states, self.outputs):
            lines.append(f"output: {name} = {_render_value(v)}")
        for i, name in enumerate(self.states):
            for d in range(self.base):
                lines.append(f"delta: {name} {d} -> {self.states[self.delta[i][d]]}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "direction": self.direction,
            "states": list(self.states),
            "outputs": {n: _render_value(v) for n, v in zip(self.states, self.outputs)},
            "delta": [
                {"from": self.states[i], "digit": d, "to": self.states[self.delta[i][d]]}
                for i in range(len(self.states))
                for d in range(self.base)
            ],
        }


def _render_value(v: CycloElement) -> str:
    q = v.rational_value()
    if q is not None:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    n = v.field.conductor
    for e in range(1, n):
        if v == v.field.omega_power(e):
            return f"zeta({n})^{e}"
    raise AutorecError("output value is neither rational nor a root of unity")


def _parse_value(text: str, line_no: int, col: int) -> CycloElement:
    m = _INT.match(text)
    if m:
        return cyclo_field(1).from_rational(int(text))
    m = _RAT.match(text)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise ParseError("zero denominator in output value", line_no, col)
        return cyclo_field(1).from_rational(Fraction(int(m.group(1)), den))
    m = _ZETA.match(text)
    if m:
        order = int(m.group(1))
        if order < 1:
            raise ParseError("zeta order must be positive", line_no, col)
        return root_of_unity(order, int(m.group(2)) if m.group(2) is not None else 1)
    raise ParseError(f"cannot read output value {text!r}", line_no, col)


def parse_dfao(text: str) -> Dfao:
    """Parse the line-oriented automaton format.

    Lines:  base: <k>           (required, once)
            direction: forward|backward     (required, once)
            states: <name> ...  (required, once; first name is initial)
            output: <name> = <value>        (one per state)
            delta: <name> <digit> -> <name> (one per state and digit)
    '#' starts a comment; blank lines are ignored.
    """
    base = None
    direction = None
    states: Optional[list[str]] = None
    outputs: dict[str, CycloElement] = {}
    moves: dict[tuple[str, int], str] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected '<keyword>: ...'", line_no, 1)
        head, _, body = line.partition(":")
        key = head.strip()
        bodycol = len(head) + 2
        body = body.strip()
        if key == "base":
            if base is not None:
                raise ParseError("duplicate base line", line_no)
            if not body.isdecimal():
                raise ParseError(f"base must be an integer, got {body!r}", line_no, bodycol)
            base = int(body)
            if base < 2:
                raise ParseError("base must be at least 2", line_no, bodycol)
        elif key == "direction":
            if direction is not None:
                raise ParseError("duplicate direction line", line_no)
            if body not in (FORWARD, BACKWARD):
                raise ParseError(
                    f"direction must be forward or backward, got {body!r}", line_no, bodycol
                )
            direction = body
        elif key == "states":
            if states is not None:
                raise ParseError("duplicate states line", line_no)
            states = body.split()
            if not states:
                raise ParseError("states line is empty", line_no, bodycol)
            for s in states:
                if not _TOKEN.match(s):
                    raise ParseError(f"bad state name {s!r}", line_no)
            if len(set(states)) != len(states):
                raise ParseError("duplicate state names", line_no)
        elif key == "output":
            if "=" not in body:
                raise ParseError("output line needs '<state> = <value>'", line_no)
            name, _, val = body.partition("=")
            name = name.strip()
            val = val.strip()
            if name in outputs:
                raise ParseError(f"duplicate output for state {name!r}", line_no)
            outputs[name] = _parse_value(val, line_no, line.index("=") + 2)
        elif key == "delta":
            m = re.match(r"(\S+)\s+(\d+)\s*->\s*(\S+)\Z", body)
            if not m:
                raise ParseError("delta line needs '<state> <digit> -> <state>'", line_no)
            src, digit, dst = m.group(1), int(m.group(2)), m.group(3)
            if (src, digit) in moves:
                raise ParseError(f"duplicate transition for ({src}, {digit})", line_no)
            moves[(src, digit)] = dst
        else:
            raise ParseError(f"unknown keyword {key!r}", line_no, 1)

    if base is None:
        raise ParseError("missing base line")
    if direction is None:
        raise ParseError("missing direction line")
    if states is None:
        raise ParseError("missing states line")
    index = {s: i for i, s in enumerate(states)}
    for name in outputs:
        if name not in index:
            raise ParseError(f"output for unknown state {name!r}")
    for s in states:
        if s not in outputs:
            raise ParseError(f"state {s!r} has no output value")
    delta = [[None] * base for _ in states]
    for (src, digit), dst in moves.items():
        if src not in index:
            raise ParseError(f"transition from unknown state {src!r}")
        if dst not in index:
            raise ParseError(f"transition to unknown state {dst!r}")
        if digit >= base:
            raise ParseError(f"digit {digit} out of range for base {base}")
        delta[index[src]][digit] = index[dst]
    for s in states:
        for d in range(base):
            if delta[index[s]][d] is None:
                raise ParseError(f"missing transition for ({s!r}, {d})")
    return Dfao(base, direction, states, [outputs[s] for s in states], delta)


# ----------------------------------------------------------------------
# bundled machines


def builtin_names() -> list[str]:
    """Names of the automaton files shipped with the package."""
    files = resources.files("autorec.data")
    return sorted(p.name[: -len(".dfao")] for p in files.iterdir() if p.name.endswith(".dfao"))


def load_builtin(name: str) -> Dfao:
    """Parse one of the shipped automata (thue_morse, rudin_shapiro, baum_sweet)."""
    if name.endswith(".dfao"):
        name = name[: -len(".dfao")]
    path = resources.files("autorec.data") / f"{name}.dfao"
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        raise AutorecError(
            f"no bundled automaton named {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return parse_dfao(text)


# ----------------------------------------------------------------------
# induced sequences


def sequence_term(a: Dfao, n: int) -> CycloElement:
    """a(n): run the expansion of n through the automaton.

    Forward machines read most significant digit first, backward machines
    least significant first.  n = 0 is the empty word.
    """
    w = expansion(n, a.base)
    if a.direction == BACKWARD:
        w = tuple(reversed(w))
    return a.outputs[a.run(0, w)]


def sequence_terms(a: Dfao, count: int) -> list[CycloElement]:
    if count < 0:
        raise AutorecError(f"term count must be nonnegative, got {count}")
    return [sequence_term(a, n) for n in range(count)]


# ----------------------------------------------------------------------
# constructions


def closure(start, step, base: int, cap: Optional[int] = None) -> tuple[list, list[list[int]]]:
    """Breadth-first closure of start under step(item, digit), digits ascending.

    Returns the items in the order found and the index table, whose row i
    holds the index of step(items[i], digit) for each digit.  Raises once
    more than cap items appear.
    """
    index = {start: 0}
    items = [start]
    table = []
    for item in items:  # grows while it is read
        row = []
        for dig in range(base):
            nxt = step(item, dig)
            t = index.get(nxt)
            if t is None:
                if cap is not None and len(items) >= cap:
                    raise AutorecError(f"reversal construction exceeded the cap of {cap} states")
                t = index[nxt] = len(items)
                items.append(nxt)
            row.append(t)
        table.append(row)
    return items, table


def prune_inaccessible(a: Dfao) -> Dfao:
    """Drop states unreachable from the initial state, keeping state order."""
    keep = sorted(closure(0, lambda q, dig: a.delta[q][dig], a.base)[0])
    if len(keep) == a.size:
        return a
    remap = {old: new for new, old in enumerate(keep)}
    return Dfao(
        a.base,
        a.direction,
        [a.states[i] for i in keep],
        [a.outputs[i] for i in keep],
        [[remap[a.delta[i][d]] for d in range(a.base)] for i in keep],
    )


def reverse_dfao(a: Dfao, cap: int = 100000) -> Dfao:
    """An automaton for the same sequence read in the opposite direction.

    States are the word-induced maps Q -> Q, built breadth first from the
    identity; reading w in the new machine tracks the action of reading
    the reversal of w in the old one.  Raises when cap is below 1 or more
    than cap states appear.
    """
    if cap < 1:
        raise AutorecError(f"the reversal's state cap must be at least 1, got {cap}")
    states = range(a.size)
    # first act with the digit, then with the already-read suffix
    maps, delta = closure(
        tuple(states), lambda h, dig: tuple(h[a.delta[q][dig]] for q in states), a.base, cap
    )
    outputs = [a.outputs[h[0]] for h in maps]
    names = [f"t{i}" for i in range(len(maps))]
    direction = BACKWARD if a.direction == FORWARD else FORWARD
    return Dfao(a.base, direction, names, outputs, delta)


def add_initial_state(a: Dfao) -> Dfao:
    """Prepend a fresh initial state that absorbs leading zeros.

    The result forward-induces n -> output(delta(q0, expansion(n))) of the
    input machine even when fed padded words.
    """
    name = "init"
    while name in a.states:
        name += "_"
    delta = [[0] + [a.delta[0][d] + 1 for d in range(1, a.base)]]
    for i in range(a.size):
        delta.append([a.delta[i][d] + 1 for d in range(a.base)])
    return Dfao(
        a.base,
        FORWARD,
        (name,) + a.states,
        (a.outputs[0],) + a.outputs,
        delta,
    )


def _pad_invariant(a: Dfao) -> Dfao:
    """A pruned machine a, or one for the same sequence that reads zero-padded words alike.

    Padding goes at the most significant end.  A forward machine with
    delta(q0, 0) != q0 gets a fresh initial state that absorbs leading
    zeros.  A backward machine whose output can change on a zero gets
    states (q, p): q the current state, p the state at the last nonzero
    digit, whose output (q, p) shows; at most |Q|^2 of them are reachable.
    """
    if a.direction == FORWARD:
        return a if a.delta[0][0] == 0 else prune_inaccessible(add_initial_state(a))
    if all(a.outputs[row[0]] == a.outputs[q] for q, row in enumerate(a.delta)):
        return a
    # a pair (q, p) moves q, and p to the new q on a nonzero digit
    pairs, delta = closure(
        (0, 0), lambda qp, dig: (a.delta[qp[0]][dig], a.delta[qp[0]][dig] if dig else qp[1]), a.base
    )
    names = [f"s{i}" for i in range(len(pairs))]
    return Dfao(a.base, BACKWARD, names, [a.outputs[p] for _, p in pairs], delta)


# ----------------------------------------------------------------------
# pattern counting automata


class PatternSpec:
    """Sequence spec a(n) = zeta_m ^ (occurrences of block v in (n)_k)."""

    def __init__(self, k: int, v: Iterable[int], m: int):
        v = tuple(v)
        if k < 2:
            raise AutorecError("base must be at least 2")
        if m < 1:
            raise AutorecError("root order m must be positive")
        if not v:
            raise AutorecError("pattern must be nonempty")
        if any(not 0 <= d < k for d in v):
            raise AutorecError("pattern digits out of range")
        self.k = k
        self.v = v
        self.m = m

    def __repr__(self):
        return f"PatternSpec(k={self.k}, v={''.join(map(str, self.v))}, m={self.m})"


def _failure_table(v: tuple[int, ...]) -> list[int]:
    """fail[i] = length of the longest proper border of v[:i]."""
    fail = [0] * (len(v) + 1)
    t = 0
    for i in range(1, len(v)):
        while t and v[i] != v[t]:
            t = fail[t]
        if v[i] == v[t]:
            t += 1
        fail[i + 1] = t
    return fail


def pattern_dfao(spec: PatternSpec) -> Dfao:
    """Forward automaton counting overlapping occurrences of v modulo m.

    States are pairs (count mod m, matched prefix length); matching uses
    the classical failure function, so the automaton has m * len(v)
    states, plus one more when v starts with 0 and leading-zero padding
    has to be absorbed by a fresh initial state.
    """
    k, v, m = spec.k, spec.v, spec.m
    e = len(v)
    fail = _failure_table(v)
    names = []
    outputs = []
    delta = []
    for p in range(m):
        for t in range(e):
            names.append(f"p{p}t{t}")
            outputs.append(root_of_unity(m, p))
            row = []
            for dig in range(k):
                tt = t
                while tt and v[tt] != dig:
                    tt = fail[tt]
                tt = tt + 1 if v[tt] == dig else 0
                np = p
                if tt == e:
                    np = (p + 1) % m
                    tt = fail[e]
                row.append(np * e + tt)
            delta.append(row)
    a = Dfao(k, FORWARD, names, outputs, delta)
    if v[0] == 0:
        a = add_initial_state(a)
    return a
