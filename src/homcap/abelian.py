"""Exact algebra of finitely generated abelian groups.

Everything here is pure and exact: matrices hold Python's
arbitrary-precision integers, and groups are kept in invariant-factor
canonical form (free rank plus a divisibility chain d1 | d2 | ...), so
structural equality coincides with isomorphism.

The module provides the Smith normal form underneath presentations, the
usual constructions (direct sum, tensor, Tor, primary decomposition),
and counting/enumeration of direct-summand isomorphism classes together
with a brute-force oracle that validates the counting formula on small
finite groups.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "FgAbelianGroup",
    "PrimaryComponent",
    "PrimaryDecomposition",
    "SizeLimitError",
    "Z",
    "TRIVIAL",
    "cyclic",
    "free",
    "smith_normal_form",
    "from_presentation",
    "is_isomorphic",
    "direct_sum",
    "primary_decomposition",
    "count_direct_summands",
    "enumerate_direct_summands",
    "brute_force_summands",
    "tensor",
    "tor",
    "DEFAULT_BRUTE_FORCE_LIMIT",
]


class SizeLimitError(ValueError):
    """A brute-force computation was asked for a group that is too large."""


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, stored row-major.

    Empty shapes are legal and meaningful: a matrix with no columns is
    the relation matrix of a free group.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(int(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs "
                f"{self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have unequal lengths")
        return cls(len(rows), ncols, tuple(e for row in rows for e in row))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values, rows: int | None = None, cols: int | None = None) -> IntMatrix:
        values = list(values)
        rows = len(values) if rows is None else rows
        cols = len(values) if cols is None else cols
        entries = [0] * (rows * cols)
        for i, v in enumerate(values):
            if i >= min(rows, cols):
                raise ValueError("more diagonal values than the shape holds")
            entries[i * cols + i] = v
        return cls(rows, cols, tuple(entries))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def diagonal_entries(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.at(i, k)
                if a == 0:
                    continue
                base = i * other.cols
                krow = k * other.cols
                for j in range(other.cols):
                    out[base + j] += a * other.entries[krow + j]
        return IntMatrix(self.rows, other.cols, tuple(out))

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols} matrix>"
        return "\n".join(" ".join(str(e) for e in row) for row in self.to_rows())


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row_multiple(a, u, dst, src, factor):
    # row[dst] += factor * row[src]
    ad, asrc = a[dst], a[src]
    for j in range(len(ad)):
        ad[j] += factor * asrc[j]
    ud, usrc = u[dst], u[src]
    for j in range(len(ud)):
        ud[j] += factor * usrc[j]


def _add_col_multiple(a, v, dst, src, factor):
    # col[dst] += factor * col[src]
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def _negate_row(a, u, i):
    a[i] = [-e for e in a[i]]
    u[i] = [-e for e in u[i]]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (u, d, v) with u @ m @ v == d exactly, u and v square with
    determinant +-1, and the diagonal of d a nonnegative chain
    d1 | d2 | ... with zeros trailing.  Pivots are chosen as the nonzero
    entry of least absolute value in the working submatrix, which keeps
    intermediate entries small in practice.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate the minimal-|entry| nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
            if best == 1:
                break
        if pivot is None:
            break  # trailing block is zero; remaining diagonal stays 0
        _swap_rows(a, u, t, pivot[0])
        _swap_cols(a, v, t, pivot[1])

        while True:
            if a[t][t] < 0:
                _negate_row(a, u, t)
            d = a[t][t]
            # clear the pivot column with row operations
            for i in range(t + 1, nr):
                if a[i][t]:
                    _add_row_multiple(a, u, i, t, -(a[i][t] // d))
            residue = [i for i in range(t + 1, nr) if a[i][t]]
            if residue:
                # a remainder smaller than the pivot appeared; promote it
                _swap_rows(a, u, t, min(residue, key=lambda r: abs(a[r][t])))
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, nc):
                if a[t][j]:
                    _add_col_multiple(a, v, j, t, -(a[t][j] // d))
            residue = [j for j in range(t + 1, nc) if a[t][j]]
            if residue:
                _swap_cols(a, v, t, min(residue, key=lambda c: abs(a[t][c])))
                continue
            # pivot must divide the whole trailing block for the chain to hold
            bad_row = None
            for i in range(t + 1, nr):
                if any(a[i][j] % d for j in range(t + 1, nc)):
                    bad_row = i
                    break
            if bad_row is not None:
                _add_row_multiple(a, u, t, bad_row, 1)
                continue
            break
        t += 1

    d = IntMatrix.from_rows(a) if nr else IntMatrix(0, nc, ())
    return (
        IntMatrix.from_rows(u) if nr else IntMatrix(0, 0, ()),
        d,
        IntMatrix.from_rows(v) if nc else IntMatrix(0, 0, ()),
    )


# ---------------------------------------------------------------------------
# finitely generated abelian groups in canonical form


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n >= 1."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _factorint(n) == {n: 1}


def _invariant_factors_from_primary(primary: dict[int, list[int]]) -> tuple[int, ...]:
    """Recombine prime-power exponent lists into a divisibility chain.

    The largest invariant factor collects the largest exponent of every
    prime, the next the second largest, and so on.
    """
    columns = [sorted(exps, reverse=True) for p, exps in sorted(primary.items())]
    primes = sorted(primary)
    factors = []
    for slot in itertools.zip_longest(*columns, fillvalue=0):
        factors.append(math.prod(p**e for p, e in zip(primes, slot)))
    factors = [f for f in factors if f > 1]
    return tuple(sorted(factors))


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group, canonically presented.

    ``free_rank`` copies of Z plus cyclic groups Z/d1 (+) ... (+) Z/dk
    where each di >= 2 and d1 | d2 | ... | dk.  The representation is
    unique, so ``==`` decides isomorphism.
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(int(d) for d in self.invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (drop trivial factors)")
        for lo, hi in zip(factors, factors[1:]):
            if hi % lo:
                raise ValueError(f"invariant factors must chain: {lo} does not divide {hi}")
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def from_orders(cls, *orders: int) -> FgAbelianGroup:
        """Normalize an arbitrary direct sum of cyclic groups.

        Each order n >= 2 contributes Z/n, order 0 contributes a copy of
        Z, order 1 contributes nothing.
        """
        rank = 0
        primary: dict[int, list[int]] = defaultdict(list)
        for n in orders:
            n = abs(int(n))
            if n == 0:
                rank += 1
            elif n > 1:
                for p, e in _factorint(n).items():
                    primary[p].append(e)
        return cls(rank, _invariant_factors_from_primary(primary))

    @classmethod
    def from_presentation(cls, relations: IntMatrix) -> FgAbelianGroup:
        """Cokernel of the relation matrix (columns are relations among
        ``relations.rows`` generators)."""
        _, d, _ = smith_normal_form(relations)
        diag = d.diagonal_entries()
        nonzero = [e for e in diag if e != 0]
        return cls(relations.rows - len(nonzero), tuple(e for e in nonzero if e > 1))

    # -- structure queries ---------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def is_cyclic(self) -> bool:
        return self.free_rank + len(self.invariant_factors) <= 1

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def torsion(self) -> FgAbelianGroup:
        return FgAbelianGroup(0, self.invariant_factors)

    def presentation_matrix(self) -> IntMatrix:
        """A relation matrix whose cokernel is this group."""
        k = len(self.invariant_factors)
        return IntMatrix.diagonal(self.invariant_factors, rows=k + self.free_rank, cols=k)

    def __str__(self) -> str:
        # matches the group literal grammar: Z, Z/n, Z^r, 0, joined by +
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


Z = FgAbelianGroup(1)
TRIVIAL = FgAbelianGroup()


def cyclic(n: int) -> FgAbelianGroup:
    """Z/n for n >= 2, Z for n == 0, trivial for n == 1."""
    return FgAbelianGroup.from_orders(n)


def free(rank: int) -> FgAbelianGroup:
    return FgAbelianGroup(rank)


def from_presentation(relations: IntMatrix) -> FgAbelianGroup:
    return FgAbelianGroup.from_presentation(relations)


def is_isomorphic(a: FgAbelianGroup, b: FgAbelianGroup) -> bool:
    """Canonical forms are unique, so isomorphism is structural equality."""
    return a == b


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    orders: list[int] = []
    for g in groups:
        orders.extend([0] * g.free_rank)
        orders.extend(g.invariant_factors)
    return FgAbelianGroup.from_orders(*orders)


def group_sort_key(g: FgAbelianGroup) -> tuple:
    """Deterministic total order: free rank, then factor count, then factors."""
    return (g.free_rank, len(g.invariant_factors), g.invariant_factors)


# ---------------------------------------------------------------------------
# primary decomposition and direct summands


@dataclass(frozen=True)
class PrimaryComponent:
    prime: int
    exponent: int
    multiplicity: int


@dataclass(frozen=True)
class PrimaryDecomposition:
    """The decomposition into indecomposables: Z^free_rank plus, for each
    (prime, exponent), ``multiplicity`` copies of Z/p^e."""

    free_rank: int
    components: tuple[PrimaryComponent, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        keys = [(c.prime, c.exponent) for c in self.components]
        if keys != sorted(set(keys)):
            raise ValueError("components must be strictly sorted by (prime, exponent)")
        for c in self.components:
            if not _is_prime(c.prime):
                raise ValueError(f"{c.prime} is not prime")
            if c.exponent < 1 or c.multiplicity < 1:
                raise ValueError("exponents and multiplicities must be >= 1")

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(c.prime, c.exponent): c.multiplicity for c in self.components}

    def to_group(self) -> FgAbelianGroup:
        orders = [0] * self.free_rank
        for c in self.components:
            orders.extend([c.prime**c.exponent] * c.multiplicity)
        return FgAbelianGroup.from_orders(*orders)


def primary_decomposition(g: FgAbelianGroup) -> PrimaryDecomposition:
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for d in g.invariant_factors:
        for p, e in _factorint(d).items():
            counts[(p, e)] += 1
    comps = tuple(
        PrimaryComponent(p, e, m) for (p, e), m in sorted(counts.items())
    )
    return PrimaryDecomposition(g.free_rank, comps)


def count_direct_summands(g: FgAbelianGroup) -> int:
    """Number of isomorphism classes of direct summands of ``g``.

    By uniqueness of the decomposition into indecomposables, a summand
    is determined up to isomorphism by a sub-multiset of the
    indecomposable pieces, giving (rank+1) * prod (multiplicity+1).
    The brute-force oracle below validates this on small groups.
    """
    pd = primary_decomposition(g)
    n = pd.free_rank + 1
    for c in pd.components:
        n *= c.multiplicity + 1
    return n


def enumerate_direct_summands(g: FgAbelianGroup) -> list[FgAbelianGroup]:
    """All isomorphism classes of direct summands, deterministically ordered."""
    pd = primary_decomposition(g)
    out = []
    for rank in range(pd.free_rank + 1):
        for picks in itertools.product(*(range(c.multiplicity + 1) for c in pd.components)):
            orders = [0] * rank
            for c, take in zip(pd.components, picks):
                orders.extend([c.prime**c.exponent] * take)
            out.append(FgAbelianGroup.from_orders(*orders))
    return sorted(out, key=group_sort_key)


# ---------------------------------------------------------------------------
# tensor and Tor


def _tor_orders(a: FgAbelianGroup, b: FgAbelianGroup) -> list[int]:
    # cyclic orders of Tor(A, B), trivial pieces dropped
    pairs = itertools.product(a.invariant_factors, b.invariant_factors)
    return [g for d, e in pairs if (g := math.gcd(d, e)) > 1]


def _tensor_orders(a: FgAbelianGroup, b: FgAbelianGroup) -> list[int]:
    # cyclic orders of A (x) B, trivial pieces dropped
    orders: list[int] = [0] * (a.free_rank * b.free_rank)
    orders.extend(list(b.invariant_factors) * a.free_rank)
    orders.extend(list(a.invariant_factors) * b.free_rank)
    orders.extend(_tor_orders(a, b))
    return orders


def tensor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z: bilinear in direct sums, Z (x) X = X,
    Z/m (x) Z/n = Z/gcd(m, n)."""
    return FgAbelianGroup.from_orders(*_tensor_orders(a, b))


def tor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor over Z: vanishes against free groups, Tor(Z/m, Z/n) = Z/gcd(m, n)."""
    return FgAbelianGroup.from_orders(*_tor_orders(a, b))


# ---------------------------------------------------------------------------
# brute-force summand oracle on an explicit finite model

DEFAULT_BRUTE_FORCE_LIMIT = 256


class _FiniteModel:
    """A finite abelian group materialized as {0..n-1} with an addition table.

    Elements are tuples over the cyclic moduli, encoded mixed-radix so
    subgroup sets are plain frozensets of small ints.
    """

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        elements = list(itertools.product(*(range(m) for m in moduli)))
        self.size = len(elements)
        index = {e: i for i, e in enumerate(elements)}
        self.add = [
            [
                index[tuple((x + y) % m for x, y, m in zip(ea, eb, moduli))]
                for eb in elements
            ]
            for ea in elements
        ]
        self.element_order = [
            math.lcm(*(m // math.gcd(m, x) for x, m in zip(e, moduli)), 1)
            for e in elements
        ]
        self.zero = index[tuple(0 for _ in moduli)]

    def extend(self, subgroup: frozenset[int], x: int) -> frozenset[int]:
        """Closure of ``subgroup`` together with one extra element."""
        multiples = []
        y = x
        while y not in subgroup:
            multiples.append(y)
            y = self.add[y][x]
        new = set(subgroup)
        for k in multiples:
            row = self.add[k]
            new.update(row[s] for s in subgroup)
        return frozenset(new)

    def all_subgroups(self) -> list[frozenset[int]]:
        start = frozenset((self.zero,))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for sub in frontier:
                for x in range(self.size):
                    if x in sub:
                        continue
                    bigger = self.extend(sub, x)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
            frontier = nxt
        return list(seen)

    def classify(self, subgroup: frozenset[int]) -> FgAbelianGroup:
        """Invariant factors of a subgroup, read off from the counts of
        solutions of p^j * x = 0 (which determine an abelian p-group)."""
        n = len(subgroup)
        if n == 1:
            return TRIVIAL
        orders: list[int] = []
        for p in _factorint(n):
            parts_ge = []
            prev_log = 0
            j = 1
            while True:
                c = sum(1 for x in subgroup if p**j % self.element_order[x] == 0)
                log = _factorint(c).get(p, 0) if c > 1 else 0
                ge = log - prev_log
                if ge == 0:
                    break
                parts_ge.append(ge)
                prev_log = log
                j += 1
            for idx, ge in enumerate(parts_ge):
                nxt = parts_ge[idx + 1] if idx + 1 < len(parts_ge) else 0
                orders.extend([p ** (idx + 1)] * (ge - nxt))
        return FgAbelianGroup.from_orders(*orders)


def brute_force_summands(
    g: FgAbelianGroup, max_order: int = DEFAULT_BRUTE_FORCE_LIMIT
) -> list[FgAbelianGroup]:
    """Direct-summand classes found by exhaustive search.

    Materializes the group, enumerates every subgroup, keeps the ones
    that admit a complement (trivial intersection with a subgroup of
    complementary order), and classifies survivors up to isomorphism.
    This is the validation oracle for :func:`count_direct_summands`;
    it refuses infinite groups and groups above ``max_order``.
    """
    n = g.order()
    if n is None:
        raise SizeLimitError("brute-force summand search needs a finite group")
    if n > max_order:
        raise SizeLimitError(f"group order {n} exceeds the brute-force limit {max_order}")

    model = _FiniteModel(g.invariant_factors)
    subgroups = model.all_subgroups()
    by_size: dict[int, list[frozenset[int]]] = defaultdict(list)
    for sub in subgroups:
        by_size[len(sub)].append(sub)

    found: set[FgAbelianGroup] = set()
    for sub in subgroups:
        cls = model.classify(sub)
        if cls in found:
            continue
        # |H| * |K| = |G| with trivial intersection forces H + K = G
        for other in by_size[n // len(sub)]:
            if len(sub & other) == 1:
                found.add(cls)
                break
    return sorted(found, key=group_sort_key)
