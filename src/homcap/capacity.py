"""Capacity of a space: how many homotopy types it dominates.

The dispatch covers exactly the families with known answers: wedges of
spheres (so in particular single spheres and bouquets of circles),
Moore spaces and wedges of Moore spaces in distinct degrees, abelian
Eilenberg-MacLane spaces, and CP^2.  Products yield a certified lower
bound counted from homology-distinguishable sub-products, and every
family without a proved value reports Unknown rather than a guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .abelian import (
    TRIVIAL,
    Z,
    FgAbelianGroup,
    count_direct_summands,
    direct_sum,
    enumerate_direct_summands,
)
from .spaces import (
    POINT,
    ComplexProjective,
    EilenbergMacLane,
    Moore,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Wedge,
    _graded,
    _kunneth,
    _moore_parts,
    canonicalize,
    homological_dimension,
    homology_profile,
    is_homology_supported,
    space_sort_key,
    wedge,
)

__all__ = [
    "ExtendedCount",
    "CounterexampleReport",
    "UnsupportedCapacityError",
    "capacity",
    "enumerate_dominated",
    "capacity_two_complex",
    "homology_equivalent",
    "borsuk_report",
    "default_comparison_bound",
    "uses_moore_wedge_extension",
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


def _moore_wedge_groups(children) -> dict[int, FgAbelianGroup] | None:
    """Coefficient groups by degree for a wedge of spheres/Moore spaces.

    Same-degree children merge by direct sum (M(A,n) v M(B,n) is
    M(A+B, n)).  Returns None when the wedge is outside the settled
    families: a non-sphere/Moore child, or a circle mixed with torsion.
    """
    if not all(isinstance(c, (Sphere, Moore)) for c in children):
        return None
    has_circle = any(isinstance(c, Sphere) and c.dim == 1 for c in children)
    if has_circle and not all(isinstance(c, Sphere) for c in children):
        # a circle wedged with a torsion Moore space has no proved value
        return None
    groups: dict[int, FgAbelianGroup] = {}
    for c in children:
        deg, g = (c.dim, Z) if isinstance(c, Sphere) else (c.degree, c.group)
        groups[deg] = direct_sum(groups.get(deg, TRIVIAL), g)
    return groups


def capacity(space: SpaceExpr) -> ExtendedCount:
    """Number of homotopy types dominated by the space.

    Finite for the settled families, a lower bound for products, and
    Unknown elsewhere (CP^n with n >= 3, circles wedged with torsion,
    wedges involving products/CP/K spaces, ...).
    """
    canon = canonicalize(space)
    if isinstance(canon, Point):
        return ExtendedCount.finite(1)

    children = canon.children if isinstance(canon, Wedge) else (canon,)
    groups = _moore_wedge_groups(children)
    if groups is not None:
        return ExtendedCount.finite(
            math.prod(count_direct_summands(g) for g in groups.values())
        )
    if isinstance(canon, EilenbergMacLane):
        return ExtendedCount.finite(count_direct_summands(canon.group))
    if isinstance(canon, ComplexProjective):
        if canon.dim == 2:
            return ExtendedCount.finite(2)
        return ExtendedCount.unknown()
    if isinstance(canon, Product) and all(
        is_homology_supported(c) for c in canon.children
    ):
        return ExtendedCount.lower_bound(_distinguishable_subproducts(canon))
    return ExtendedCount.unknown()


def uses_moore_wedge_extension(space: SpaceExpr) -> bool:
    """True when the capacity value comes from the degreewise
    summand-count product over a wedge that mixes degrees and carries
    torsion, i.e. from extending the sphere-wedge rule to Moore
    coefficients rather than from a single settled case."""
    canon = canonicalize(space)
    children = canon.children if isinstance(canon, Wedge) else (canon,)
    groups = _moore_wedge_groups(children)
    if groups is None or len(groups) < 2:
        return False
    return not all(isinstance(c, Sphere) for c in children)


def _distinguishable_subproducts(prod: Product) -> int:
    # Every sub-product is a retract, hence dominated; counting the ones
    # homology can tell apart gives a certified lower bound.  Equal factors
    # give equal sub-products, so only the prod(m_i + 1) sub-multisets of
    # the sorted factors are built, each one Kunneth step from its parent.
    dims = [homological_dimension(c) for c in prod.children]
    bound = max(DEFAULT_COMPARISON_FLOOR, sum(d for d in dims if d is not None))
    profiles = [{0: Z}]
    for factor, run in itertools.groupby(prod.children):
        step, copies = _graded(factor, bound), len(list(run))
        grown = []
        for graded in profiles:
            for _ in range(copies):
                graded = _kunneth(graded, step, bound)
                grown.append(graded)
        profiles += grown
    return len({frozenset(graded.items()) for graded in profiles})


def enumerate_dominated(space: SpaceExpr) -> list[SpaceExpr]:
    """The dominated homotopy types, as canonical space expressions.

    Defined exactly where :func:`capacity` is finite through dispatch on
    wedges of spheres/Moore spaces, Eilenberg-MacLane spaces, and CP^2;
    the list always contains the point and the space itself, and its
    length equals the capacity.
    """
    canon = canonicalize(space)
    if isinstance(canon, Point):
        return [POINT]

    children = canon.children if isinstance(canon, Wedge) else (canon,)
    groups = _moore_wedge_groups(children)
    if groups is not None:
        degrees = sorted(groups)
        choices = [enumerate_direct_summands(groups[d]) for d in degrees]
        out = []
        # iterate with the lowest degree varying fastest
        for combo in itertools.product(*reversed(choices)):
            combo = tuple(reversed(combo))
            parts: list[SpaceExpr] = []
            for deg, summand in zip(degrees, combo):
                parts.extend(_moore_parts(summand, deg))
            out.append(wedge(*sorted(parts, key=space_sort_key)))
        return out
    if isinstance(canon, EilenbergMacLane):
        return [
            canonicalize(EilenbergMacLane(s, canon.degree)) if not s.is_trivial() else POINT
            for s in enumerate_direct_summands(canon.group)
        ]
    if isinstance(canon, ComplexProjective) and canon.dim == 2:
        return [POINT, canon]
    raise UnsupportedCapacityError(
        "dominated types can be enumerated only where the capacity is a "
        "settled finite value (wedges of spheres/Moore spaces, K(A, n), CP^2)"
    )


def capacity_two_complex(r: int, s: int) -> ExtendedCount:
    """Capacity of any 2-complex with free fundamental group of rank ``r``
    and H_2 of rank ``s``: such a complex is a wedge of r circles and s
    2-spheres, so the answer is (r+1) * (s+1)."""
    if r < 0 or s < 0:
        raise ValueError("ranks must be nonnegative")
    return ExtendedCount.finite((r + 1) * (s + 1))


def default_comparison_bound(*spaces: SpaceExpr) -> int:
    """Largest homological dimension among the finite-dimensional inputs,
    floored at DEFAULT_COMPARISON_FLOOR."""
    dims = [homological_dimension(s) for s in spaces]
    return max([DEFAULT_COMPARISON_FLOOR] + [d for d in dims if d is not None])


def homology_equivalent(
    space_x: SpaceExpr, space_y: SpaceExpr, bound: int | None = None
) -> tuple[bool, bool]:
    """(agrees, exact): degreewise isomorphism up to ``bound``, and whether
    both profiles certify triviality above it (making agreement total)."""
    if bound is None:
        bound = default_comparison_bound(space_x, space_y)
    px = homology_profile(space_x, bound)
    py = homology_profile(space_y, bound)
    return px.groups == py.groups, px.exact_above_bound and py.exact_above_bound


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
    if bound is None:
        bound = default_comparison_bound(space_x, space_y)
    agrees, exact = homology_equivalent(space_x, space_y, bound)
    cap_x = capacity(space_x)
    cap_y = capacity(space_y)
    return CounterexampleReport(
        space_x=canonicalize(space_x),
        space_y=canonicalize(space_y),
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
