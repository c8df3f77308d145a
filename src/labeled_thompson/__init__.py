"""Exact computations in labeled Thompson groups.

Group elements are labeled paired tree diagrams over a wreath recursion,
stored in reduced canonical form so that equality and the word problem
are literal comparisons.  Modules cover the group arithmetic, the
Cantor-set action, commutator certificates, a permutation-model oracle,
germ combinatorics at the all-zero point, and integer homology of the
associated matching and descending-link complexes.
"""

from .diagrams import Context, LabeledDiagram
from .elements import GroupoidElement, VPhiElement, identity, iota, lambda_u, rho
from .groups import (
    CyclicGroup,
    FiniteTableGroup,
    FreeGroup,
    GroupElement,
    ProductGroup,
    SymmetricGroup,
    WreathImage,
    WreathRecursion,
    cyclic_table,
    injectivize,
    symmetric_table,
)
from .words import EventuallyPeriodicWord, OMEGA0

__all__ = [
    "Context",
    "CyclicGroup",
    "EventuallyPeriodicWord",
    "FiniteTableGroup",
    "FreeGroup",
    "GroupElement",
    "GroupoidElement",
    "LabeledDiagram",
    "OMEGA0",
    "ProductGroup",
    "SymmetricGroup",
    "VPhiElement",
    "WreathImage",
    "WreathRecursion",
    "cyclic_table",
    "identity",
    "injectivize",
    "iota",
    "lambda_u",
    "rho",
    "symmetric_table",
]

__version__ = "0.1.0"
