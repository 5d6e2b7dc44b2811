"""Space expression trees, canonical forms, and integral homology.

The supported families are the one-point space, spheres S^n, wedge
sums, Moore spaces M(A, n) with n >= 2, Eilenberg-MacLane spaces
K(A, n) for finitely generated abelian A, complex projective spaces
CP^n with n >= 2, and finite products.  Homology is computed from the
standard tables, with the Kunneth formula (tensor plus Tor correction)
handling products.

A graded group is kept sparse: a dict from degree to its nonzero group,
up to a bound, in ascending degree.  Atoms list only their nonzero
degrees (a sphere is {0: Z, n: Z}); only K-spaces fill every periodic
degree up to the bound.  Products fold their factors with
``abelian._kunneth``, which pairs nonzero degrees only and canonicalizes
each degree once.  A profile is made dense only where every degree is
returned or printed.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Union

from .abelian import (
    TRIVIAL,
    Z,
    FgAbelianGroup,
    _kunneth,
    direct_sum,
    group_sort_key,
)

__all__ = [
    "SpaceExpr",
    "Point",
    "POINT",
    "Sphere",
    "Wedge",
    "Moore",
    "EilenbergMacLane",
    "ComplexProjective",
    "Product",
    "HomologyProfile",
    "UnsupportedSpaceError",
    "wedge",
    "product",
    "canonicalize",
    "space_sort_key",
    "homology",
    "homology_profile",
]


class UnsupportedSpaceError(ValueError):
    """An operation was asked about a space outside its supported table."""


@dataclass(frozen=True)
class Point:
    pass


@dataclass(frozen=True)
class Sphere:
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 1:
            raise ValueError("sphere dimension must be >= 1")


@dataclass(frozen=True)
class Wedge:
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        children = tuple(self.children)
        if not children:
            raise ValueError("a wedge needs at least one child")
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Moore:
    """Simply connected space with a single nonzero reduced homology group
    (``group`` in degree ``degree``).  Undefined in degree 1."""

    group: FgAbelianGroup
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", operator.index(self.degree))
        if self.degree < 2:
            raise ValueError(
                "Moore spaces are not defined in degree 1; degree must be >= 2"
            )


@dataclass(frozen=True)
class EilenbergMacLane:
    """Space with a single nonzero homotopy group (``group`` in degree
    ``degree``); only abelian coefficient groups are representable here."""

    group: FgAbelianGroup
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", operator.index(self.degree))
        if self.degree < 1:
            raise ValueError("Eilenberg-MacLane degree must be >= 1")


@dataclass(frozen=True)
class ComplexProjective:
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim == 1:
            raise ValueError("CP^1 is the 2-sphere; write S^2")
        if self.dim < 2:
            raise ValueError("complex projective index must be >= 2")


@dataclass(frozen=True)
class Product:
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        children = tuple(self.children)
        if len(children) < 2:
            raise ValueError("a product needs at least two factors")
        object.__setattr__(self, "children", children)


SpaceExpr = Union[
    Point, Sphere, Wedge, Moore, EilenbergMacLane, ComplexProjective, Product
]

POINT = Point()


def wedge(*children: SpaceExpr) -> SpaceExpr:
    """Wedge sum; the empty wedge is the point and a single child is itself."""
    if not children:
        return POINT
    if len(children) == 1:
        return children[0]
    return Wedge(tuple(children))


def product(*children: SpaceExpr) -> SpaceExpr:
    """Cartesian product; empty product is the point, one factor is itself."""
    if not children:
        return POINT
    if len(children) == 1:
        return children[0]
    return Product(tuple(children))


# ---------------------------------------------------------------------------
# canonical form


def space_sort_key(space: SpaceExpr) -> tuple:
    """Fixed total order used to sort wedge and product children."""
    if isinstance(space, Point):
        return (0,)
    if isinstance(space, Sphere):
        return (1, space.dim)
    if isinstance(space, Moore):
        return (2, space.degree, group_sort_key(space.group))
    if isinstance(space, ComplexProjective):
        return (3, space.dim)
    if isinstance(space, EilenbergMacLane):
        return (4, space.degree, group_sort_key(space.group))
    if isinstance(space, Product):
        return (5, len(space.children)) + tuple(space_sort_key(c) for c in space.children)
    if isinstance(space, Wedge):
        return (6, len(space.children)) + tuple(space_sort_key(c) for c in space.children)
    raise TypeError(f"not a space expression: {space!r}")


def _moore_groups(children) -> tuple[dict[int, FgAbelianGroup], list[SpaceExpr]]:
    # the reduced homology of the sphere and Moore children by ascending
    # degree, each degree summed once, and the other children as they are
    summands: dict[int, list[FgAbelianGroup]] = defaultdict(list)
    rest: list[SpaceExpr] = []
    for child in children:
        if isinstance(child, Sphere):
            summands[child.dim].append(Z)
        elif isinstance(child, Moore):
            summands[child.degree].append(child.group)
        else:
            rest.append(child)
    return {n: direct_sum(*summands[n]) for n in sorted(summands)}, rest


def _moore_wedge(groups: dict[int, FgAbelianGroup], rest=()) -> SpaceExpr:
    # the canonical wedge of rest with reduced homology groups[n] in each
    # degree n: M(A (+) B, n) splits as M(A, n) v M(B, n), so the free part
    # is spheres and the torsion a single Moore space
    parts = list(rest)
    for n, g in groups.items():
        parts += [Sphere(n)] * g.free_rank
        if g.invariant_factors:
            parts.append(Moore(g.torsion(), n))
    return wedge(*sorted(parts, key=space_sort_key))


def canonicalize(space: SpaceExpr) -> SpaceExpr:
    """Rewrite to the canonical form, preserving homotopy type.

    Wedges and products are flattened, stripped of point children, and
    sorted; K(0, n) is a point and K(Z, 1) is the circle.  In a wedge the
    spheres and Moore spaces of one degree merge into that degree's
    spheres plus at most one torsion Moore space (M(A, n) v M(B, n) is
    M(A + B, n) and M(Z, n) is S^n); a trivial group vanishes.  Idempotent.
    """
    if isinstance(space, (Point, Sphere, ComplexProjective)):
        return space
    if isinstance(space, Moore):
        return _moore_wedge({space.degree: space.group})
    if isinstance(space, EilenbergMacLane):
        if space.group.is_trivial():
            return POINT
        if space.group == Z and space.degree == 1:
            return Sphere(1)
        return space
    if isinstance(space, (Wedge, Product)):
        flat: list[SpaceExpr] = []
        for child in space.children:
            child = canonicalize(child)
            if isinstance(child, type(space)):
                flat.extend(child.children)
            elif not isinstance(child, Point):
                flat.append(child)
        if isinstance(space, Product):
            return product(*sorted(flat, key=space_sort_key))
        return _moore_wedge(*_moore_groups(flat))
    raise TypeError(f"not a space expression: {space!r}")


# ---------------------------------------------------------------------------
# homology


def _em_supported(space: EilenbergMacLane) -> bool:
    g, n = space.group, space.degree
    return (n == 1 and g.free_rank == 0 and len(g.invariant_factors) == 1) or (
        n == 2 and g == Z
    )


def _graded(space: SpaceExpr, top: int) -> dict[int, FgAbelianGroup]:
    """The nonzero groups H_0 .. H_top of a canonical space, by ascending
    degree."""
    if isinstance(space, Point):
        return {0: Z}
    if isinstance(space, Sphere):
        return {0: Z} | ({space.dim: Z} if space.dim <= top else {})
    if isinstance(space, Moore):
        return {0: Z} | ({space.degree: space.group} if space.degree <= top else {})
    if isinstance(space, ComplexProjective):
        return {n: Z for n in range(0, min(2 * space.dim, top) + 1, 2)}
    if isinstance(space, EilenbergMacLane):
        if not _em_supported(space):
            raise UnsupportedSpaceError(
                f"homology of K({space.group}, {space.degree}) is outside the "
                "supported table (finite cyclic in degree 1, or Z in degree 2)"
            )
        if space.degree == 1:
            return {0: Z} | {n: space.group for n in range(1, top + 1, 2)}
        return {n: Z for n in range(0, top + 1, 2)}
    if isinstance(space, Wedge):
        summands: dict[int, list[FgAbelianGroup]] = defaultdict(list)
        for child in space.children:
            for n, g in _graded(child, top).items():
                if n:  # the reduced groups add up; H_0 stays Z
                    summands[n].append(g)
        return {0: Z} | {n: direct_sum(*summands[n]) for n in sorted(summands)}
    if isinstance(space, Product):
        graded = {0: Z}
        for child in space.children:
            graded = _kunneth(graded, _graded(child, top), top)
        return graded
    raise TypeError(f"not a space expression: {space!r}")


def homology(space: SpaceExpr, n: int) -> FgAbelianGroup:
    """The integral homology group H_n, in canonical form."""
    if n < 0:
        raise ValueError("homology degree must be >= 0")
    return _graded(canonicalize(space), n).get(n, TRIVIAL)


def _dimension(space: SpaceExpr) -> int | None:
    # the largest degree with possibly nonzero homology of a canonical
    # space, or None when it is unbounded (an Eilenberg-MacLane factor)
    if isinstance(space, Point):
        return 0
    if isinstance(space, Sphere):
        return space.dim
    if isinstance(space, Moore):
        return space.degree
    if isinstance(space, ComplexProjective):
        return 2 * space.dim
    if isinstance(space, EilenbergMacLane):
        return None
    dims = [_dimension(c) for c in space.children]
    if any(d is None for d in dims):
        return None
    return max(dims) if isinstance(space, Wedge) else sum(dims)


@dataclass(frozen=True)
class HomologyProfile:
    """Degreewise homology table: ``groups[n]`` is H_n, from degree 0 up to
    the bound the profile was computed to.

    ``exact_above_bound`` certifies that every degree above the bound is
    trivial; it holds exactly when the space is finite-dimensional and
    the bound reaches its homological dimension.
    """

    groups: tuple[FgAbelianGroup, ...]
    exact_above_bound: bool


def homology_profile(space: SpaceExpr, bound: int) -> HomologyProfile:
    graded, exact = _profile(canonicalize(space), bound)
    return HomologyProfile(tuple(graded.get(n, TRIVIAL) for n in range(bound + 1)), exact)


def _profile(canon: SpaceExpr, bound: int) -> tuple[dict[int, FgAbelianGroup], bool]:
    # homology_profile of a canonical space, kept sparse
    if bound < 0:
        raise ValueError("profile bound must be >= 0")
    dim = _dimension(canon)
    return _graded(canon, bound), dim is not None and bound >= dim
