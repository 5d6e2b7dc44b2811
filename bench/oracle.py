"""Independent answers for the benchmark's correctness checks.

Nothing here imports homcap.  Groups are kept in primary form, a free
rank plus a multiset of prime powers, where homcap keeps invariant
factors; Kunneth runs over the nonzero degrees only, where homcap walks
every pair of degrees; the product lower bound is counted over
sub-multisets of factors, where homcap folds every subset.  Matrices
are plain lists of rows.
"""

from __future__ import annotations

import math
import random
from collections import Counter

# A group is (free_rank, torsion) with torsion a sorted tuple of
# ((prime, exponent), multiplicity) pairs; equal tuples mean isomorphic.
TRIVIAL = (0, ())
Z = (1, ())


def factor(n: int) -> dict[int, int]:
    """Prime factorization of a small positive integer by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _pack(rank: int, torsion: Counter) -> tuple:
    return (rank, tuple(sorted((k, m) for k, m in torsion.items() if m)))


def group(rank: int = 0, orders=()) -> tuple:
    """Z^rank plus the cyclic groups Z/n for n in ``orders`` (each n >= 2)."""
    torsion: Counter = Counter()
    for n in orders:
        for p, e in factor(n).items():
            torsion[(p, e)] += 1
    return _pack(rank, torsion)


def is_trivial(g: tuple) -> bool:
    return g == TRIVIAL


def direct_sum(*groups: tuple) -> tuple:
    rank = 0
    torsion: Counter = Counter()
    for r, t in groups:
        rank += r
        for k, m in t:
            torsion[k] += m
    return _pack(rank, torsion)


def _torsion_pairs(a: tuple, b: tuple, torsion: Counter) -> None:
    # Z/p^e (x) Z/q^f and Tor(Z/p^e, Z/q^f) are both Z/p^min(e,f) when p == q
    for (p, e), m in a[1]:
        for (q, f), n in b[1]:
            if p == q:
                torsion[(p, min(e, f))] += m * n


def tensor(a: tuple, b: tuple) -> tuple:
    torsion: Counter = Counter()
    for k, m in b[1]:
        torsion[k] += m * a[0]
    for k, m in a[1]:
        torsion[k] += m * b[0]
    _torsion_pairs(a, b, torsion)
    return _pack(a[0] * b[0], torsion)


def tor(a: tuple, b: tuple) -> tuple:
    torsion: Counter = Counter()
    _torsion_pairs(a, b, torsion)
    return _pack(0, torsion)


def invariant_factors(g: tuple) -> tuple[int, ...]:
    """The divisibility chain d1 | d2 | ... of the torsion part, ascending."""
    by_prime: dict[int, list[int]] = {}
    for (p, e), m in g[1]:
        by_prime.setdefault(p, []).extend([e] * m)
    columns = [sorted(es, reverse=True) for es in by_prime.values()]
    length = max((len(c) for c in columns), default=0)
    factors = []
    for i in range(length):
        factors.append(
            math.prod(p ** c[i] for p, c in zip(by_prime, columns) if i < len(c))
        )
    return tuple(sorted(factors))


def render(g: tuple) -> str:
    """The group in homcap's literal grammar: Z, Z^r, Z/n joined by ' + ', or 0."""
    rank = g[0]
    parts = ["Z"] if rank == 1 else [f"Z^{rank}"] if rank > 1 else []
    parts += [f"Z/{d}" for d in invariant_factors(g)]
    return " + ".join(parts) if parts else "0"


def summand_count(g: tuple) -> int:
    """Direct-summand classes: (rank+1) * prod(multiplicity+1)."""
    return (g[0] + 1) * math.prod(m + 1 for _, m in g[1])


def summand_classes(g: tuple) -> list[tuple]:
    """Every direct-summand class, one per sub-multiset of the pieces."""
    out = [(r, ()) for r in range(g[0] + 1)]
    for key, mult in g[1]:
        out = [
            (r, t + ((key, take),) if take else t)
            for r, t in out
            for take in range(mult + 1)
        ]
    return out


# ---------------------------------------------------------------------------
# graded homology: a space is a dict degree -> nonzero group, up to a bound
#
# Factor descriptions: ("S", d) sphere, ("CP", n), ("M", m, n) Moore space
# M(Z/m, n), ("K1", m) for K(Z/m, 1), ("K2",) for K(Z, 2).


def dimension(desc: tuple) -> int | None:
    """Homological dimension of one factor, None for K-spaces."""
    kind = desc[0]
    if kind == "S":
        return desc[1]
    if kind == "CP":
        return 2 * desc[1]
    if kind == "M":
        return desc[2]
    return None


def factor_homology(desc: tuple, bound: int) -> dict[int, tuple]:
    kind = desc[0]
    h = {0: Z}
    if kind == "S":
        if desc[1] <= bound:
            h[desc[1]] = Z
    elif kind == "CP":
        h.update((n, Z) for n in range(2, min(2 * desc[1], bound) + 1, 2))
    elif kind == "M":
        if desc[2] <= bound:
            h[desc[2]] = group(0, [desc[1]])
    elif kind == "K1":
        h.update((n, group(0, [desc[1]])) for n in range(1, bound + 1, 2))
    elif kind == "K2":
        h.update((n, Z) for n in range(2, bound + 1, 2))
    else:
        raise ValueError(f"unknown factor {desc!r}")
    return h


def kunneth(x: dict[int, tuple], y: dict[int, tuple], bound: int) -> dict[int, tuple]:
    pieces: dict[int, list[tuple]] = {}
    for i, a in x.items():
        for j, b in y.items():
            if i + j <= bound:
                pieces.setdefault(i + j, []).append(tensor(a, b))
            if i + j + 1 <= bound:
                pieces.setdefault(i + j + 1, []).append(tor(a, b))
    out = {}
    for n, ps in pieces.items():
        g = direct_sum(*ps)
        if not is_trivial(g):
            out[n] = g
    return out


def product_homology(descs, bound: int) -> dict[int, tuple]:
    h = {0: Z}
    for d in descs:
        h = kunneth(h, factor_homology(d, bound), bound)
    return h


def product_lower_bound(descs) -> int:
    """homcap's certified lower bound for a product: the number of
    sub-products with distinct homology up to max(10, the largest
    finite homological dimension among the sub-products)."""
    finite = [dimension(d) for d in descs if dimension(d) is not None]
    bound = max(10, sum(finite))
    counts = Counter(descs)
    kinds = sorted(counts)
    seen = set()

    def walk(idx: int, h: dict[int, tuple]) -> None:
        if idx == len(kinds):
            seen.add(tuple(sorted(h.items())))
            return
        step = factor_homology(kinds[idx], bound)
        for take in range(counts[kinds[idx]] + 1):
            if take:
                h = kunneth(h, step, bound)
            walk(idx + 1, h)

    walk(0, {0: Z})
    return len(seen)


def sub_multisets(values) -> int:
    """Number of sub-multisets, prod(m + 1) over the multiplicities m.

    This is the capacity of a wedge of spheres of the given dimensions,
    and the product lower bound for spheres of those dimensions: their
    Poincare polynomials prod(1 + t^d) differ for different sub-multisets.
    """
    return math.prod(m + 1 for m in Counter(values).values())


# ---------------------------------------------------------------------------
# integer matrices as lists of rows


def _apply(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(e * xi for e, xi in zip(row, x)) for row in a]


def is_product(u, m, v, diag: list[int]) -> bool:
    """Whether u @ m @ v equals the square diagonal matrix ``diag``.

    Freivalds' test: both sides are applied to a vector of 64-bit entries
    from a fixed-seed generator, O(n^2) work instead of the O(n^3) of
    multiplying out transforms whose entries reach thousands of bits.  A
    wrong product passes with probability at most 2^-64.
    """
    rng = random.Random(len(diag))
    x = [rng.getrandbits(64) for _ in diag]
    return _apply(u, _apply(m, _apply(v, x))) == [d * xi for d, xi in zip(diag, x)]


def det(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _echelon_mod(a: list[list[int]], p: int) -> tuple[int, int]:
    """(rank, determinant) over F_p; the determinant is 0 unless square
    and of full rank."""
    a = [[x % p for x in row] for row in a]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, d = 0, 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            d = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            d = -d
        inv = pow(a[rank][c], -1, p)
        d = d * a[rank][c] % p
        for r in range(rank + 1, rows):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    if rank != rows or rows != cols:
        d = 0
    return rank, d % p


def rank_mod(a: list[list[int]], p: int) -> int:
    return _echelon_mod(a, p)[0]


UNIMODULAR_CHECK_PRIME = (1 << 61) - 1


def is_unimodular_mod(a: list[list[int]]) -> bool:
    """det(a) is +-1 modulo the Mersenne prime 2^61 - 1.

    A necessary condition for unimodularity; an exact determinant of a
    transform whose entries reach thousands of bits would cost more than
    the Smith normal form that produced it.
    """
    d = _echelon_mod(a, UNIMODULAR_CHECK_PRIME)[1]
    return d in (1, UNIMODULAR_CHECK_PRIME - 1)
