"""Exact recurrences for partial sums of automatic sequences at roots of unity.

The package builds, for a k-automatic sequence a(n) given by a finite
automaton with output, linear recurrences with exact cyclotomic (and,
where the theory allows, integer) coefficients satisfied by the partial
sum polynomials A(n; x) = sum of a(m) x^m over m < n, evaluated at a
root of unity x = w.
"""

from .numberfield import (
    CycloElement,
    CycloField,
    GaloisMap,
    cyclo_field,
    complex_embed,
    multiplicative_order,
)

__all__ = [
    "CycloElement",
    "CycloField",
    "GaloisMap",
    "cyclo_field",
    "complex_embed",
    "multiplicative_order",
]

__version__ = "0.1.0"
