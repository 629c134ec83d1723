"""DFAO parsing, semantics, reversal, and the pattern-counting builder."""

import random
from itertools import product

import pytest

from autorec.automaton import (
    BACKWARD,
    FORWARD,
    Dfao,
    PatternSpec,
    add_initial_state,
    builtin_names,
    expansion,
    load_builtin,
    parse_dfao,
    pattern_dfao,
    prune_inaccessible,
    reverse_dfao,
    sequence_term,
    sequence_terms,
)
from autorec.errors import AutorecError, ParseError
from autorec.numberfield import CycloElement, cyclo_field
from conftest import nullspace, occurrences, word_value


# ----------------------------------------------------------------------
# direct definitions of the three shipped sequences, used as oracles


def tm_direct(n: int) -> int:
    return -1 if bin(n).count("1") % 2 else 1


def rs_direct(n: int) -> int:
    return -1 if occurrences((1, 1), tuple(expansion(n, 2))) % 2 else 1


def bs_direct(n: int) -> int:
    if n == 0:
        return 1
    runs = [len(r) for r in bin(n)[2:].split("1") if r]
    return 0 if any(r % 2 for r in runs) else 1


# ----------------------------------------------------------------------
# digits


def test_expansion_and_word_value_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(2, 7)
        n = rng.randrange(10**6)
        w = expansion(n, k)
        assert word_value(w, k) == n
        if n:
            assert w[0] != 0
    assert expansion(0, 2) == ()
    assert expansion(11, 2) == (1, 0, 1, 1)


# ----------------------------------------------------------------------
# parsing and serialization


def test_parse_round_trip_builtins():
    for name in builtin_names():
        a = load_builtin(name)
        again = parse_dfao(a.to_text())
        assert again == a
        assert again.to_text() == a.to_text()


def test_builtin_names_are_the_shipped_three():
    assert builtin_names() == ["baum_sweet", "rudin_shapiro", "thue_morse"]
    with pytest.raises(AutorecError):
        load_builtin("no_such_machine")


def test_parse_accepts_comments_and_blank_lines():
    a = parse_dfao(
        """
        # a one-state machine emitting 1 forever
        base: 2
        direction: forward
        states: q
        output: q = 1
        delta: q 0 -> q
        delta: q 1 -> q
        """
    )
    assert a.size == 1
    assert [v.rational_value() for v in sequence_terms(a, 5)] == [1] * 5


def test_parse_value_forms():
    a = parse_dfao(
        "base: 2\ndirection: forward\nstates: p q r\n"
        "output: p = -2/3\noutput: q = zeta(3)^2\noutput: r = zeta(4)^2\n"
        + "".join(f"delta: {s} {d} -> p\n" for s in "pqr" for d in "01")
    )
    f3 = cyclo_field(3)
    assert a.outputs[1] == f3.omega_power(2)
    # zeta(4)^2 = -1 collapses to the rationals
    assert a.outputs[2].rational_value() == -1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("base: 1\ndirection: forward\nstates: q\noutput: q = 1\n", "base"),
        ("base: 2\ndirection: up\nstates: q\noutput: q = 1\n", "direction"),
        ("base: 2\ndirection: forward\nstates: q q\noutput: q = 1\n", "duplicate"),
        (
            "base: 2\ndirection: forward\nstates: q\noutput: q = 1\n"
            "delta: q 2 -> q\ndelta: q 0 -> q\n",
            "digit",
        ),
        (
            "base: 2\ndirection: forward\nstates: q\noutput: q = 1\ndelta: q 0 -> q\n",
            "missing",
        ),
        (
            "base: 2\ndirection: forward\nstates: q\ndelta: q 0 -> q\ndelta: q 1 -> q\n",
            "output",
        ),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_dfao(text)
    assert fragment in str(info.value).lower()


def test_parse_error_reports_line_numbers():
    bad = "base: 2\ndirection: forward\nstates: q\noutput: q = ?\n"
    with pytest.raises(ParseError) as info:
        parse_dfao(bad)
    assert info.value.line == 4


def test_json_export_mirrors_text_fields(tm):
    d = tm.to_json_dict()
    assert d["base"] == 2
    assert d["direction"] == FORWARD
    assert d["states"] == list(tm.states)
    assert len(d["delta"]) == 2 * tm.size


# ----------------------------------------------------------------------
# sequence semantics


def test_shipped_sequences_match_direct_definitions(tm, rs, bs):
    for n in range(2**10):
        assert sequence_term(tm, n).rational_value() == tm_direct(n), n
        assert sequence_term(rs, n).rational_value() == rs_direct(n), n
        assert sequence_term(bs, n).rational_value() == bs_direct(n), n


def test_first_terms_frozen(tm, rs, bs):
    want_tm = [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1]
    want_rs = [1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1, 1, -1]
    want_bs = [1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1]
    assert [v.rational_value() for v in sequence_terms(tm, 16)] == want_tm
    assert [v.rational_value() for v in sequence_terms(rs, 16)] == want_rs
    assert [v.rational_value() for v in sequence_terms(bs, 16)] == want_bs


def test_leading_zero_insensitivity(tm, rs):
    # both machines fix the start state on digit 0, so padding the
    # expansion with leading zeros cannot change the result
    for a in (tm, rs):
        assert a.delta[0][0] == 0
        for n in range(2**10):
            w = expansion(n, 2)
            padded = (0, 0, 0) + w
            assert a.run(0, padded) == a.run(0, w)


def test_sequence_term_zero_is_initial_output(tm, bs):
    assert sequence_term(tm, 0) == tm.outputs[0]
    assert sequence_term(bs, 0) == bs.outputs[0]


# ----------------------------------------------------------------------
# reversal


def test_reverse_flips_direction_and_preserves_sequence(tm, rs, bs):
    for a in (tm, rs, bs):
        rev = reverse_dfao(a)
        assert rev.direction != a.direction
        for n in range(2**12):
            assert sequence_term(rev, n) == sequence_term(a, n), n


def test_reverse_twice_preserves_sequence(tm):
    back = reverse_dfao(tm)
    fwd = reverse_dfao(back)
    assert fwd.direction == tm.direction
    for n in range(2**10):
        assert sequence_term(fwd, n) == sequence_term(tm, n)


def _read(a, word):
    """The output a shows after reading word from its initial state, in a's own reading order."""
    q = 0
    for dig in word:
        q = a.delta[q][dig]
    return a.outputs[q]


def test_reverse_reads_every_word_backwards(tm, rs, bs):
    # the reversal's word function is the source's on the reversed word, zeros at
    # either end included; dims takes the reversal's span rank from the source's on this
    rng = random.Random(23)
    machines = [tm, rs, bs, pattern_dfao(PatternSpec(2, (0, 1, 0), 3)), pattern_dfao(PatternSpec(3, (1, 2), 3))]
    for i in range(20):
        size, k = rng.randint(2, 5), rng.choice((2, 3))
        delta = [[rng.randrange(size) for _ in range(k)] for _ in range(size)]
        outs = [rng.randrange(3) for _ in range(size)]
        machines.append(Dfao(k, (FORWARD, BACKWARD)[i % 2], [f"s{j}" for j in range(size)], outs, delta))
    for a in machines:
        rev = reverse_dfao(a)
        for n in range(7):
            for word in product(range(a.base), repeat=n):
                assert _read(rev, word) == _read(a, word[::-1]), (a, word)


def test_reverse_delta_frozen():
    """The breadth-first state order of the reversal, digits ascending."""
    assert reverse_dfao(load_builtin("rudin_shapiro")).delta == (
        (1, 2), (1, 3), (4, 5), (1, 6), (4, 2), (7, 2), (8, 3), (7, 5), (8, 6),
    )
    assert reverse_dfao(pattern_dfao(PatternSpec(2, (0, 1, 0), 3))).delta == (
        (1, 2), (1, 3), (4, 5), (6, 7), (4, 8), (9, 5), (6, 10), (11, 7), (12, 13), (9, 14),
        (15, 16), (11, 3), (12, 17), (18, 13), (19, 5), (15, 20), (21, 16), (22, 23), (18, 8),
        (19, 24), (25, 26), (21, 10), (22, 27), (28, 23), (29, 30), (25, 3), (31, 26), (32, 33),
        (28, 17), (29, 34), (35, 30), (31, 20), (32, 8), (36, 33), (37, 38), (35, 24), (36, 27),
        (37, 14), (39, 38), (39, 34),
    )


def test_reverse_state_cap():
    with pytest.raises(AutorecError):
        reverse_dfao(load_builtin("rudin_shapiro"), cap=2)


@pytest.mark.parametrize("cap", (0, -5))
def test_reverse_rejects_a_cap_below_one(cap):
    # a one-state machine needs no new state, so only the check up front refuses it
    one = Dfao(2, FORWARD, ["q"], [1], [[0, 0]])
    with pytest.raises(AutorecError, match=f"cap must be at least 1, got {cap}"):
        reverse_dfao(one, cap=cap)


# ----------------------------------------------------------------------
# structural transforms


def test_prune_inaccessible_preserves_sequence(tm):
    # graft an unreachable state onto the transition table
    padded = Dfao(
        tm.base,
        tm.direction,
        tm.states + ("limbo",),
        tm.outputs + (cyclo_field(1).from_rational(17),),
        tuple(tm.delta) + ((2, 2),),
    )
    pruned = prune_inaccessible(padded)
    assert pruned.size == tm.size
    for n in range(2**12):
        assert sequence_term(pruned, n) == sequence_term(tm, n)


def test_add_initial_state_preserves_sequence(rs):
    aug = add_initial_state(rs)
    assert aug.size == rs.size + 1
    # the fresh start state absorbs leading zeros and is unreachable
    # from the copied states
    assert aug.delta[0][0] == 0
    assert all(row[d] != 0 for row in aug.delta[1:] for d in range(aug.base))
    assert aug.run(0, (0, 0, 0, 1)) == aug.run(0, (1,))
    for n in range(2**12):
        assert sequence_term(aug, n) == sequence_term(rs, n)


# ----------------------------------------------------------------------
# pattern-counting machines


def test_pattern_spec_validation():
    with pytest.raises(AutorecError):
        PatternSpec(1, (0,), 2)
    with pytest.raises(AutorecError):
        PatternSpec(2, (), 2)
    with pytest.raises(AutorecError):
        PatternSpec(2, (0, 2), 2)
    with pytest.raises(AutorecError):
        PatternSpec(2, (1,), 0)


def test_pattern_eleven_mod_two_is_second_shipped_sequence(rs, pat11):
    # counting '11' blocks mod 2 with sign is exactly the fourth shipped
    # sequence's defining rule, so the two machines must agree
    for n in range(2**12):
        assert sequence_term(pat11, n) == sequence_term(rs, n), n


def test_pattern_counts_against_direct_scan():
    rng = random.Random(20)
    for trial in range(20):
        k = rng.randint(2, 4)
        v = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
        m = rng.randint(2, 5)
        spec = PatternSpec(k, v, m)
        a = pattern_dfao(spec)
        field = cyclo_field(m)
        for n in range(2**11):
            hits = occurrences(v, tuple(expansion(n, k)))
            want = field.omega_power(hits) if m > 2 else field.from_rational((-1) ** hits)
            assert sequence_term(a, n) == want, (trial, spec, n)


def test_pattern_machine_shape():
    # states track the KMP prefix length, so |v| + 1 prefix classes
    # crossed with the m residue classes bounds the machine size
    spec = PatternSpec(2, (1, 0, 1), 3)
    a = pattern_dfao(spec)
    assert a.direction == FORWARD
    assert a.size <= (len(spec.v) + 1) * spec.m
    f3 = cyclo_field(3)
    seen = {sequence_term(a, n) for n in range(2**10)}
    assert seen == {f3.one(), f3.omega(), f3.omega_power(2)}


# ----------------------------------------------------------------------
# symmetry checker


class SymmetryReport:
    """Result of check_symmetry: commutation flag plus induced relations."""

    def __init__(self, commutes, failure, period, betas, relations):
        self.commutes = commutes
        self.failure = failure  # (state, digit) witnessing non-commutation
        self.period = period
        self.betas = betas
        self.relations = relations  # list of {state index: coefficient}

    def __repr__(self):
        return f"SymmetryReport(commutes={self.commutes}, {len(self.relations)} relations)"


def check_symmetry(a: Dfao, rho: dict[int, int], q_start: int) -> SymmetryReport:
    """Test delta(rho(q), d) = rho(delta(q, d)) on the domain of rho.

    The domain must be closed under both rho and the transitions.  When
    the test passes, every exact linear dependence among the output rows
    (output(rho^i(q)))_i that holds for all q reachable from q_start is
    returned as a relation sum_i beta_i f_(rho^i(q)) = 0, instantiated
    per reachable state, consumable as a span-analysis cross check.
    """
    dom = set(rho)
    if q_start not in dom:
        raise AutorecError("start state is outside the domain of rho")
    for q, img in rho.items():
        if img not in dom:
            raise AutorecError("rho does not map its domain into itself")
    for q in dom:
        for d in range(a.base):
            if a.delta[q][d] not in dom:
                raise AutorecError("domain of rho is not closed under transitions")
    for q in dom:
        for d in range(a.base):
            if a.delta[rho[q]][d] != rho[a.delta[q][d]]:
                return SymmetryReport(False, (q, d), None, [], [])

    # reachable part from q_start
    reach = {q_start}
    todo = [q_start]
    while todo:
        q = todo.pop()
        for d in range(a.base):
            t = a.delta[q][d]
            if t not in reach:
                reach.add(t)
                todo.append(t)
    reach = sorted(reach)

    # iterate rho as a map on the domain until it repeats
    dom_sorted = sorted(dom)
    cur = {q: q for q in dom_sorted}
    seen = [dict(cur)]
    while True:
        cur = {q: rho[cur[q]] for q in dom_sorted}
        if any(cur == s for s in seen):
            break
        seen.append(dict(cur))
    period = len(seen)

    rows = [[a.outputs[it[q]] for it in seen] for q in reach]
    betas = nullspace(rows)
    relations = []
    for beta in betas:
        for q in reach:
            rel: dict[int, CycloElement] = {}
            for i, b in enumerate(beta):
                if b == 0:
                    continue
                st = seen[i][q]
                rel[st] = rel.get(st, 0) + b
            rel = {s: c for s, c in rel.items() if c != 0}
            if rel:
                relations.append(rel)
    return SymmetryReport(True, None, period, betas, relations)


def test_symmetry_swap_on_two_state_machine(tm):
    rep = check_symmetry(tm, {0: 1, 1: 0}, 0)
    assert rep.commutes
    assert rep.period == 2
    # f_0 + f_1 = 0 on every reachable state
    assert rep.relations
    span_zero = [rel for rel in rep.relations if set(rel) == {0, 1}]
    assert span_zero


def test_symmetry_failure_is_witnessed(rs):
    rep = check_symmetry(rs, {0: 1, 1: 0, 2: 3, 3: 2}, 0)
    assert not rep.commutes
    state, digit = rep.failure
    img = {0: 1, 1: 0, 2: 3, 3: 2}
    assert rs.delta[img[state]][digit] != img[rs.delta[state][digit]]


def test_symmetry_domain_must_be_closed(tm):
    with pytest.raises(AutorecError):
        check_symmetry(tm, {0: 0}, 0)
