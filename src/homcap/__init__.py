"""Exact homotopy-capacity computations.

The capacity of a space is the number of homotopy types it dominates.
This package computes it (and enumerates the dominated types) for the
families where the answer is settled: wedges of spheres of arbitrary
dimensions, Moore spaces, abelian Eilenberg-MacLane spaces, and CP^2,
with certified lower bounds for finite products.  The supporting layers
are exact: integer linear algebra through Smith normal form, canonical
finitely generated abelian groups, and degreewise homology with the
Kunneth formula.
"""

from .abelian import *
from .spaces import *
from .capacity import *
from .grammar import *

__version__ = "0.1.0"
