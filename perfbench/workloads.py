"""The benchmark's workloads: inputs built from a seed, timed items, checks.

A workload's build(seed, toy) makes its inputs and returns a list of
items.  An item is a label, a thunk that runs one timed call into
autorec and returns its output, and a check that turns that output into
an error message or None.  Checks run after the timed phase, against
references from reference.py, or against autorec's own exact verifier,
which checks a recurrence against literal partial sums.
"""

from __future__ import annotations

import itertools
import random

from autorec.automaton import (
    PatternSpec,
    load_builtin,
    parse_dfao,
    pattern_dfao,
    reverse_dfao,
    sequence_term,
)
from autorec.numberfield import complex_embed
from autorec.recurrence import RootSpec, integer_recurrence, synthesize, verify
from autorec.thuemorse import tm_table

import reference

GRID_MACHINES = ("thue_morse", "rudin_shapiro", "baum_sweet")
GRID_N_MAX = 100
TM_BOUND = 1000
BIGFIELD_RS = (105, 1155, 3003)
BIGFIELD_INTREC_R = 273
BIGFIELD_N_MAX = 5
MACHINE_R = 5  # coprime to both bases; every e in 1..4 gives conductor 5
MACHINE_N_MAX = 16
MACHINES_PER_STRATUM = 3  # fewer where a stratum has fewer patterns
MACHINE_TERMS = 400  # terms compared with the direct count, per automaton


class Item:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _verified(report) -> str | None:
    if report.all_zero:
        return None
    return f"recurrence fails at n = {report.first_failure}"


def _synth_verify(a, root, n_max):
    return verify(synthesize(a, root), a, n_max)


def _intrec_verify(a, root, n_max):
    rec = integer_recurrence(a, root)
    return rec.integer_coefficients(), verify(rec, a, n_max)


def _intrec_checked(out) -> str | None:
    ints, report = out
    if ints is None:
        return "coset product has non-integer coefficients"
    return _verified(report)


def build_grid(seed: int, toy: bool) -> list[Item]:
    """Criterion 02: four machines x odd r <= 35 x every e, to n = 100."""
    machines = [(n, load_builtin(n)) for n in GRID_MACHINES]
    machines.append(("pattern_11_mod_2", pattern_dfao(PatternSpec(2, (1, 1), 2))))
    r_max = 5 if toy else 35
    return [
        Item(
            f"{name} r={r} e={e}",
            lambda a=a, root=RootSpec(2, r, e): _synth_verify(a, root, GRID_N_MAX),
            _verified,
        )
        for name, a in machines
        for r in range(1, r_max + 1, 2)
        for e in range(r)
    ]


def build_tmscan(seed: int, toy: bool) -> list[Item]:
    """The exact Thue-Morse conductor scan, checked against a reference table."""
    bound = 300 if toy else TM_BOUND

    def check(table):
        want = reference.FROZEN_TM_TABLES.get(bound) or reference.tm_table_reference(bound)
        bad = reference.table_mismatches(table, want)
        return "; ".join(bad) if bad else None

    return [Item(f"tm_table({bound})", lambda: tm_table(bound), check)]


def build_bigfield(seed: int, toy: bool) -> list[Item]:
    """Rudin-Shapiro at large conductors, plus one integer recurrence."""
    rs = load_builtin("rudin_shapiro")
    rs_r = (21, 105) if toy else BIGFIELD_RS
    intrec_r = 7 if toy else BIGFIELD_INTREC_R
    items = [
        Item(
            f"rudin_shapiro r={r}",
            lambda root=RootSpec(2, r, 1): _synth_verify(rs, root, BIGFIELD_N_MAX),
            _verified,
        )
        for r in rs_r
    ]
    items.append(
        Item(
            f"rudin_shapiro intrec r={intrec_r}",
            lambda root=RootSpec(2, intrec_r, 1): _intrec_verify(rs, root, BIGFIELD_N_MAX),
            _intrec_checked,
        )
    )
    return items


def machine_specs(seed: int, toy: bool) -> list[tuple]:
    """Three patterns per stratum (base, length, modulus, leading zero).

    The strata fix the properties that set an automaton's size, so the
    total work barely moves between seeds while no automaton repeats.
    A leading-zero stratum always holds the all-zero pattern, whose
    reversal is the largest of its stratum, so the slowest items do not
    depend on the seed; the other patterns are drawn at random.  Each
    pattern gets a random exponent e of its root zeta_5^e.
    """
    rng = random.Random(seed)
    strata = [
        (k, length, m, lead_zero)
        for k in (2, 3)
        for length in (2, 3)
        for m in (2, 3)
        for lead_zero in (True, False)
    ]
    per_stratum = MACHINES_PER_STRATUM
    if toy:
        strata, per_stratum = [(2, 2, 3, True)], 1
    specs = []
    for k, length, m, lead_zero in strata:
        patterns = [
            v
            for v in itertools.product(range(k), repeat=length)
            if (v[0] == 0) == lead_zero
        ]
        chosen = [patterns.pop(0)] if lead_zero else []  # the all-zero pattern
        chosen += rng.sample(patterns, min(per_stratum - len(chosen), len(patterns)))
        for v in chosen:
            specs.append((k, v, m, rng.randrange(1, MACHINE_R)))
    return specs


def _terms_error(fwd, bwd, v, k, m) -> str | None:
    """Compare both automata with a direct count of occurrences of v."""
    for n in range(MACHINE_TERMS):
        want = reference.root_of_unity(m, reference.pattern_count(v, n, k))
        got = sequence_term(fwd, n)
        if abs(complex(complex_embed(got)) - want) > 1e-9:
            return f"forward term a({n}) = {got!r} disagrees with the direct count"
        if sequence_term(bwd, n) != got:
            return f"reversed term a({n}) disagrees with the forward automaton"
    return None


def build_machines(seed: int, toy: bool) -> list[Item]:
    """Random pattern-counting automata, parsed from text and reversed."""
    items = []
    for k, v, m, e in machine_specs(seed, toy):
        text = pattern_dfao(PatternSpec(k, v, m)).to_text()
        fwd = parse_dfao(text)
        bwd = reverse_dfao(fwd)
        root = RootSpec(k, MACHINE_R, e)
        name = f"k={k} v={''.join(map(str, v))} m={m} e={e}"
        terms = []  # the direct-count comparison, made once per automaton pair

        def check(report, fwd=fwd, bwd=bwd, v=v, k=k, m=m, terms=terms):
            if not terms:
                terms.append(_terms_error(fwd, bwd, v, k, m))
            return terms[0] or _verified(report)

        for direction, a in (("forward", fwd), ("backward", bwd)):
            items.append(
                Item(
                    f"{name} {direction}",
                    lambda a=a, root=root: _synth_verify(a, root, MACHINE_N_MAX),
                    check,
                )
            )
    return items


WORKLOADS = {
    "grid": build_grid,
    "tmscan": build_tmscan,
    "bigfield": build_bigfield,
    "machines": build_machines,
}

# A fixed round of small CLI commands run at the end of every traced
# child, with the expected fragment of each output.  It measures the cli
# layer and gives every traced layer at least one call on every workload.
CLI_ROUND = (
    (["seq", "--dfao", "thue_morse", "--count", "6"], "1 -1 -1 1 -1 1"),
    (
        ["synth", "--dfao", "rudin_shapiro", "--r", "3", "--e", "1", "--s", "2", "--verify-n", "20"],
        '"pretty": "A(2^4 n) - A(2^2 n) + 4*A(n) = 0"',
    ),
    (["intrec", "--dfao", "thue_morse", "--r", "7", "--verify-n", "20"], '"all_zero": true'),
    (["dims", "--dfao", "baum_sweet"], "forward dimension"),
    (["tm-table", "--bound", "45"], "scanned 6 odd conductors"),
)
