"""Capacity of a space: how many homotopy types it dominates.

:func:`classify` is the one dispatch: it canonicalizes the space once and
returns a :class:`Rule` holding the canonical space, the count, and the
dominated types where they are settled; :func:`capacity` and
:func:`enumerate_dominated` read their answers off it.  The dispatch
covers exactly the families with known answers: wedges of
spheres (so in particular single spheres and bouquets of circles),
Moore spaces and wedges of Moore spaces in distinct degrees, abelian
Eilenberg-MacLane spaces, and CP^2.  Products yield a certified lower
bound counted from homology-distinguishable sub-products, and every
family without a proved value reports Unknown rather than a guess.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .abelian import (
    Z,
    FgAbelianGroup,
    count_direct_summands,
    enumerate_direct_summands,
)
from .spaces import (
    POINT,
    ComplexProjective,
    EilenbergMacLane,
    Moore,
    Product,
    SpaceExpr,
    Sphere,
    UnsupportedSpaceError,
    Wedge,
    _dimension,
    _graded,
    _kunneth,
    _moore_parts,
    _profile,
    canonicalize,
    space_sort_key,
    wedge,
)

__all__ = [
    "ExtendedCount",
    "CounterexampleReport",
    "UnsupportedCapacityError",
    "Rule",
    "classify",
    "capacity",
    "enumerate_dominated",
    "capacity_two_complex",
    "borsuk_report",
    "DEFAULT_COMPARISON_FLOOR",
]

DEFAULT_COMPARISON_FLOOR = 10


class UnsupportedCapacityError(ValueError):
    """Dominated-type enumeration was asked where only a bound (or nothing)
    is known."""


@dataclass(frozen=True)
class ExtendedCount:
    """An exact count, a certified lower bound, or Unknown."""

    kind: str  # "finite" | "lower-bound" | "unknown"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "lower-bound", "unknown"):
            raise ValueError(f"bad count kind {self.kind!r}")
        if self.kind == "unknown":
            if self.value is not None:
                raise ValueError("unknown counts carry no value")
        elif self.value is None or self.value < 1:
            raise ValueError("counts are at least 1 (the point is always dominated)")

    @classmethod
    def finite(cls, value: int) -> ExtendedCount:
        return cls("finite", value)

    @classmethod
    def lower_bound(cls, value: int) -> ExtendedCount:
        return cls("lower-bound", value)

    @classmethod
    def unknown(cls) -> ExtendedCount:
        return cls("unknown")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.value})"
        if self.kind == "lower-bound":
            return f"LowerBound({self.value})"
        return "Unknown"


def _moore_wedge_groups(canon: SpaceExpr) -> dict[int, FgAbelianGroup] | None:
    """Coefficient groups by degree for a canonical wedge of spheres/Moore
    spaces; the point is the empty wedge.

    The groups are the wedge's reduced homology, so same-degree children
    merge by direct sum (M(A,n) v M(B,n) is M(A+B, n)).  Returns None
    when the wedge is outside the settled families: a non-sphere/Moore
    child, or a circle mixed with torsion.
    """
    children = canon.children if isinstance(canon, Wedge) else () if canon == POINT else (canon,)
    if not all(isinstance(c, (Sphere, Moore)) for c in children):
        return None
    has_circle = any(isinstance(c, Sphere) and c.dim == 1 for c in children)
    if has_circle and not all(isinstance(c, Sphere) for c in children):
        # a circle wedged with a torsion Moore space has no proved value
        return None
    return {n: g for n, g in _graded(canon, _dimension(canon)).items() if n}


def _summand_wedges(groups: dict[int, FgAbelianGroup], parts) -> list[SpaceExpr]:
    # one wedge of parts(summand, degree) per choice of a direct-summand
    # class in every degree, with the lowest degree varying fastest
    degrees = sorted(groups, reverse=True)
    choices = [enumerate_direct_summands(groups[d]) for d in degrees]
    return [
        wedge(*sorted(
            (p for deg, s in zip(degrees, combo) for p in parts(s, deg)), key=space_sort_key
        ))
        for combo in itertools.product(*choices)
    ]


@dataclass(frozen=True)
class Rule:
    """What the capacity dispatch settles for one space.

    ``space`` is the canonical form the rule was read from and ``count``
    the capacity.  ``extension`` is true when the count is the degreewise
    summand-count product over a wedge that mixes degrees and carries
    torsion, i.e. the sphere-wedge rule extended to Moore coefficients
    rather than a single settled case.
    """

    space: SpaceExpr
    count: ExtendedCount
    extension: bool = False
    enumerator: Callable[[], list[SpaceExpr]] | None = None

    def dominated(self) -> list[SpaceExpr]:
        """The dominated homotopy types, as canonical space expressions;
        the list contains the point and the space, and its length is the
        count."""
        if self.enumerator is None:
            raise UnsupportedCapacityError(
                "dominated types can be enumerated only where the capacity is a "
                "settled finite value (wedges of spheres/Moore spaces, K(A, n), CP^2)"
            )
        return self.enumerator()


def classify(space: SpaceExpr) -> Rule:
    """Canonicalize the space once and settle its capacity.

    Finite for the settled families, a lower bound for products of
    factors with tabled homology, and Unknown elsewhere (CP^n, n >= 3,
    circles wedged with torsion, wedges with products/CP/K spaces, ...);
    dominated types are enumerable exactly where the count is finite.
    """
    return _rule(canonicalize(space))


def _rule(canon: SpaceExpr) -> Rule:
    # the dispatch of classify, on a canonical space
    groups, parts = _moore_wedge_groups(canon), _moore_parts
    if isinstance(canon, EilenbergMacLane):
        groups = {canon.degree: canon.group}
        parts = lambda s, n: [canonicalize(EilenbergMacLane(s, n))]
    if groups is not None:
        return Rule(
            canon,
            ExtendedCount.finite(math.prod(count_direct_summands(g) for g in groups.values())),
            len(groups) > 1 and any(g.invariant_factors for g in groups.values()),
            partial(_summand_wedges, groups, parts),
        )
    if canon == ComplexProjective(2):
        return Rule(canon, ExtendedCount.finite(2), enumerator=lambda: [POINT, canon])
    if isinstance(canon, Product):
        try:
            return Rule(canon, ExtendedCount.lower_bound(_distinguishable_subproducts(canon)))
        except UnsupportedSpaceError:
            pass  # a factor outside the homology table
    return Rule(canon, ExtendedCount.unknown())


def capacity(space: SpaceExpr) -> ExtendedCount:
    """Number of homotopy types dominated by the space (see :func:`classify`)."""
    return classify(space).count


def enumerate_dominated(space: SpaceExpr) -> list[SpaceExpr]:
    """The dominated homotopy types, where :func:`capacity` is a settled
    finite value (see :meth:`Rule.dominated`)."""
    return classify(space).dominated()


def _distinguishable_subproducts(prod: Product) -> int:
    # Every sub-product is a retract, hence dominated; counting the ones
    # homology can tell apart gives a certified lower bound.  Equal factors
    # give equal sub-products, so only the prod(m_i + 1) sub-multisets of
    # the sorted factors are built, each one Kunneth step from its parent.
    # Every step comes first: an untabled factor raises before any Kunneth.
    dims = [_dimension(c) for c in prod.children]
    bound = _floored(sum(d for d in dims if d is not None))
    steps = [(_graded(f, bound), len(list(run))) for f, run in itertools.groupby(prod.children)]
    profiles = [{0: Z}]
    for step, copies in steps:
        grown = []
        for graded in profiles:
            for _ in range(copies):
                graded = _kunneth(graded, step, bound)
                grown.append(graded)
        profiles += grown
    return len({frozenset(graded.items()) for graded in profiles})


def capacity_two_complex(r: int, s: int) -> ExtendedCount:
    """Capacity of any 2-complex with free fundamental group of rank ``r``
    and H_2 of rank ``s``: such a complex is a wedge of r circles and s
    2-spheres, so the answer is (r+1) * (s+1)."""
    if r < 0 or s < 0:
        raise ValueError("ranks must be nonnegative")
    return ExtendedCount.finite((r + 1) * (s + 1))


def _floored(*dims: int | None) -> int:
    # the largest finite dimension (None is unbounded and skipped), floored
    # at DEFAULT_COMPARISON_FLOOR
    return max([DEFAULT_COMPARISON_FLOOR] + [d for d in dims if d is not None])


@dataclass(frozen=True)
class CounterexampleReport:
    """Everything needed to decide whether a pair of spaces witnesses
    homology-blindness of the capacity: identical homology (exactly, in
    all degrees) with different finite capacities."""

    space_x: SpaceExpr
    space_y: SpaceExpr
    compared_up_to: int
    homology_agrees: bool
    exact_comparison: bool
    capacity_x: ExtendedCount
    capacity_y: ExtendedCount
    is_counterexample: bool


def borsuk_report(
    space_x: SpaceExpr, space_y: SpaceExpr, bound: int | None = None
) -> CounterexampleReport:
    """Homology of both spaces up to ``bound`` (by default the largest finite
    homological dimension, floored at DEFAULT_COMPARISON_FLOOR), then both
    capacities, so an untabled space raises before any product walk."""
    canon_x, canon_y = canonicalize(space_x), canonicalize(space_y)
    if bound is None:
        bound = _floored(_dimension(canon_x), _dimension(canon_y))
    px, py = _profile(canon_x, bound), _profile(canon_y, bound)
    agrees = px.groups == py.groups
    exact = px.exact_above_bound and py.exact_above_bound
    cap_x, cap_y = _rule(canon_x).count, _rule(canon_y).count
    return CounterexampleReport(
        space_x=canon_x,
        space_y=canon_y,
        compared_up_to=bound,
        homology_agrees=agrees,
        exact_comparison=exact,
        capacity_x=cap_x,
        capacity_y=cap_y,
        is_counterexample=(
            agrees
            and exact
            and cap_x.is_finite
            and cap_y.is_finite
            and cap_x.value != cap_y.value
        ),
    )
