"""The list level kernel: the digit levels on Python lists mod x^L - 1.

autorec.recurrence applies its levels to packed residues mod 2^(8 width L) - 1.
This is the same operator on one list of L rationals per state, slicing
and adding lists term by term, with no slot width and so no bound to get
wrong; the tests compare the two.
"""

from operator import add


def shift_sum(terms, L: int) -> list:
    """The sum of c x^p vec mod x^L - 1 over the (vec, p, c) terms, vec a list, as a new list."""
    acc = None
    for vec, p, c in terms:
        cut = -p % L
        rot = vec[cut:] + vec[:cut]
        if c != 1:
            rot = [c * x for x in rot]
        acc = rot if acc is None else list(map(add, acc, rot))
    return [0] * L if acc is None else acc


def apply_levels(vecs: list, table: list, root, L: int) -> list:
    """Levels t = 0, ..., s - 1 of the term table, at x = w^(k^t), on one list per state."""
    step = L // root.r0 * root.primitive_exponent  # zeta_L^step = w^(k^t)
    for _ in range(root.s):
        live = [any(v) for v in vecs]
        vecs = [
            shift_sum([(vecs[src], p + e * step, c) for src, e, p, c in terms if live[src]], L)
            for terms in table
        ]
        step = step * root.k % L
    return vecs


def unit_levels(table: list, root, L: int) -> list:
    """Per j, apply_levels on the unit vector e_j: 1 at state j, 0 elsewhere."""
    d = len(table)
    one, zero = [1] + [0] * (L - 1), [0] * L
    return [apply_levels([one if i == j else zero for i in range(d)], table, root, L) for j in range(d)]


def horner(cs: list, xs: list, table: list, D: int, root, L: int) -> list:
    """recurrence._horner on lists: sum over j of B^j(D^(l-j) C_j x_b) per generator b, B the s levels."""
    v = [[0] * L for _ in xs]
    for i, c in enumerate(reversed(cs)):
        v = apply_levels(v, table, root, L)
        v = [shift_sum([(u, 0, 1)] + [(c, p, y * D**i) for p, y in x], L) for u, x in zip(v, xs)]
    return v
