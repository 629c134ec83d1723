"""The span analysis on state tuples, as autorec.polymatrix ran it before it closed output rows.

The breadth-first closure appends digits to the identity tuple
(q_0, ..., q_(d-1)) until no new state tuple appears, maps each tuple to
its output row and keeps the distinct rows, then eliminates the distinct
columns with the package's certified elimination.  The package closes the
rows themselves under prepended digits and builds no tuple; the tests
compare the two on rank, generators and alphas.
"""

from autorec.automaton import closure
from autorec.numberfield import _certified_rref


def span_by_tuples(a) -> tuple:
    """(rank, generators, alphas, number of state tuples) of a, from the distinct output rows of its state tuples."""
    d = a.size
    targets = [[row[dig] for row in a.delta] for dig in range(a.base)]
    tuples, _ = closure(tuple(range(d)), lambda tp, dig: tuple(map(targets[dig].__getitem__, tp)), a.base)
    index: dict = {}
    ids = [index.setdefault((v.vec, v.den), len(index)) for v in a.outputs]
    keys = dict.fromkeys(tuple(map(ids.__getitem__, tp)) for tp in tuples)
    cols: dict = {}
    reps = [cols.setdefault(col, len(cols)) for col in zip(*keys)]
    firsts = [reps.index(c) for c in range(len(cols))]
    columns, coeffs = _certified_rref(a.output_field, list(index), [[row[q] for q in firsts] for row in keys])
    pivots = [firsts[c] for c in columns]
    generators = pivots if 0 in pivots else [0] + pivots
    gpos = {g: t for t, g in enumerate(generators)}
    alphas = {}
    for p in range(d):
        if p not in gpos:
            out = [a.output_field.zero()] * len(generators)
            for g, x in zip(pivots, coeffs[reps[p]]):
                out[gpos[g]] = x
            alphas[p] = tuple(out)
    return len(pivots), generators, alphas, len(tuples)
