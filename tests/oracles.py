"""Independent oracles the tests check the fast paths against.

Each oracle deliberately takes a different route than the code under
test: determinant divisors instead of elimination, exhaustive
generator-image search instead of canonical forms, explicit relation
matrices instead of gcd rules, dense degree lists with each tensor/Tor
piece built from the gcd rule and canonicalized by factoring instead of
sparse graded maps through homcap's Kunneth formula, a fresh
Kunneth fold for each of the 2^k sub-products instead of a walk over
sub-multisets, invariant factors recombined from prime powers found by
trial division instead of a gcd/lcm chain, and direct summands found by
searching every subgroup of an explicit finite model instead of counting
multiplicities in the primary decomposition.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from homcap import (
    POINT,
    TRIVIAL,
    Z,
    ComplexProjective,
    EilenbergMacLane,
    FgAbelianGroup,
    IntMatrix,
    Moore,
    Point,
    Product,
    Sphere,
    Wedge,
    canonicalize,
    direct_sum,
    from_presentation,
    smith_normal_form,
)
from homcap.abelian import group_sort_key
from homcap.spaces import _dimension


def matrix(rows) -> IntMatrix:
    """The matrix with the given rows, which must have equal lengths."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows have unequal lengths")
    return IntMatrix(len(rows), ncols, tuple(e for row in rows for e in row))


def diagonal(values, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with ``values`` down its diagonal."""
    values = list(values)
    assert len(values) <= min(rows, cols)
    entries = [0] * (rows * cols)
    for i, v in enumerate(values):
        entries[i * cols + i] = v
    return IntMatrix(rows, cols, tuple(entries))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a·b, each entry a row of a dotted with a column of b."""
    assert a.cols == b.rows
    columns = [b.entries[j :: b.cols] for j in range(b.cols)]
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(sum(x * y for x, y in zip(row, col)) for row in a.to_rows() for col in columns),
    )


def presentation_matrix(g: FgAbelianGroup) -> IntMatrix:
    """A relation matrix whose cokernel is ``g``: the invariant factors on
    the diagonal, and one zero row per copy of Z."""
    k = len(g.invariant_factors)
    return diagonal(g.invariant_factors, k + g.free_rank, k)


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
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


def determinant_divisor_diagonal(m: IntMatrix) -> list[int]:
    """Expected Smith diagonal from gcds of k x k minors.

    The gcd g_k of all k x k minors is invariant under unimodular row and
    column operations, and the k-th diagonal entry equals g_k / g_{k-1}.
    Exponential in the matrix size; use on small matrices only.
    """
    r = min(m.rows, m.cols)
    a = m.to_rows()
    diag: list[int] = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = matrix([[a[i][j] for j in cols] for i in rows])
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    diag.extend([0] * (r - len(diag)))
    return diag


def snf_is_valid(m: IntMatrix) -> list[int]:
    """Check ``smith_normal_form(m)`` = (u, d, v): u·m·v = d, u and v have
    determinant +-1, and d is diagonal with a nonnegative divisibility chain
    whose zeros trail.  Returns the diagonal of d."""
    u, d, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = list(d.entries[:: d.cols + 1][: min(d.rows, d.cols)])
    assert d == diagonal(diag, d.rows, d.cols), "off-diagonal entries must be zero"
    nonzero = [e for e in diag if e]
    assert all(e >= 0 for e in diag)
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    assert all(hi % lo == 0 for lo, hi in zip(nonzero, nonzero[1:]))
    return diag


def _tuple_group(orders: tuple[int, ...]):
    """Elements and addition of Z/o1 x ... x Z/ok as explicit tuples."""
    elements = list(itertools.product(*(range(o) for o in orders)))

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    return elements, add


def bruteforce_isomorphic(orders_a: tuple[int, ...], orders_b: tuple[int, ...]) -> bool:
    """Does an isomorphism exist between two finite tuple groups?

    Searches every assignment of images for the generators of the first
    group, keeping assignments that respect the generator orders, and
    accepts when one generates the whole second group (equal finite
    sizes then force bijectivity).
    """
    elements_b, add_b = _tuple_group(orders_b)
    size_a = math.prod(orders_a) if orders_a else 1
    if size_a != len(elements_b):
        return False
    if size_a == 1:
        return True

    def times(k, x):
        acc = tuple(0 for _ in orders_b)
        for _ in range(k):
            acc = add_b(acc, x)
        return acc

    zero_b = tuple(0 for _ in orders_b)
    candidates = [
        [x for x in elements_b if times(o, x) == zero_b] for o in orders_a
    ]
    for images in itertools.product(*candidates):
        span = {zero_b}
        for img in images:
            span = {add_b(s, times(k, img)) for s in span for k in range(max(orders_a))}
        if len(span) == size_a:
            return True
    return False


def bruteforce_bijection_isomorphic(
    orders_a: tuple[int, ...], orders_b: tuple[int, ...]
) -> bool:
    """Literal bijection search: try every zero-preserving bijection and
    test the homomorphism law on all pairs.  Only for tiny groups."""
    elements_a, add_a = _tuple_group(orders_a)
    elements_b, add_b = _tuple_group(orders_b)
    if len(elements_a) != len(elements_b):
        return False
    zero_a = tuple(0 for _ in orders_a)
    zero_b = tuple(0 for _ in orders_b)
    rest_a = [e for e in elements_a if e != zero_a]
    rest_b = [e for e in elements_b if e != zero_b]
    for perm in itertools.permutations(rest_b):
        f = dict(zip(rest_a, perm))
        f[zero_a] = zero_b
        if all(
            f[add_a(x, y)] == add_b(f[x], f[y])
            for x in elements_a
            for y in elements_a
        ):
            return True
    return False


def tensor_by_presentation(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product computed from relation matrices, not gcd rules.

    If A = coker(M) on generators g_1..g_m and B = coker(N) on
    h_1..h_n, then A (x) B is presented on the g_i (x) h_j by the
    relations M (x) I and I (x) N.
    """
    pm = presentation_matrix(a)
    pn = presentation_matrix(b)
    m, n = pm.rows, pn.rows
    rows: list[list[int]] = [[] for _ in range(m * n)]
    # columns of M tensored with each identity basis vector of B's generators
    for col in range(pm.cols):
        for j in range(n):
            column = [0] * (m * n)
            for i in range(m):
                column[i * n + j] = pm.entries[i * pm.cols + col]
            for idx, val in enumerate(column):
                rows[idx].append(val)
    for col in range(pn.cols):
        for i in range(m):
            column = [0] * (m * n)
            for j in range(n):
                column[i * n + j] = pn.entries[j * pn.cols + col]
            for idx, val in enumerate(column):
                rows[idx].append(val)
    ncols = len(rows[0]) if rows else 0
    relations = IntMatrix(m * n, ncols, tuple(v for row in rows for v in row))
    return from_presentation(relations)


def tor_of_cyclics_by_kernel(m: int, n: int) -> FgAbelianGroup:
    """Tor(Z/m, Z/n) as the n-torsion subgroup of Z/m, found by scanning.

    The subgroup {x in Z/m : n*x = 0} is cyclic (a subgroup of a cyclic
    group), so its isomorphism class is determined by its size.
    """
    kernel = [x for x in range(m) if (n * x) % m == 0]
    return FgAbelianGroup.from_orders(len(kernel))


def trial_factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division alone."""
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


def factoring_canonical(rank: int, orders) -> FgAbelianGroup:
    """Z^rank plus the cyclic groups of the given orders (0 is Z, 1 is
    nothing, signs are dropped), canonicalized by factoring: every order
    is split into prime powers, and the largest invariant factor collects
    the largest power of every prime, the next the second largest, and
    so on."""
    primary: dict[int, list[int]] = defaultdict(list)
    for n in orders:
        n = abs(int(n))
        if n == 0:
            rank += 1
        elif n > 1:
            for p, e in trial_factorint(n).items():
                primary[p].append(e)
    primes = sorted(primary)
    columns = [sorted(primary[p], reverse=True) for p in primes]
    factors = [
        math.prod(p**e for p, e in zip(primes, slot))
        for slot in itertools.zip_longest(*columns, fillvalue=0)
    ]
    return FgAbelianGroup(rank, tuple(sorted(f for f in factors if f > 1)))


class _FiniteModel:
    """A finite abelian group materialized as {0..n-1} with an addition table.

    Elements are tuples over the cyclic moduli, encoded mixed-radix so
    subgroup sets are plain frozensets of small ints.
    """

    def __init__(self, moduli: tuple[int, ...]):
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
        orders: list[int] = []
        for p in trial_factorint(len(subgroup)):
            parts_ge = []
            prev_log = 0
            j = 1
            while True:
                c = sum(1 for x in subgroup if p**j % self.element_order[x] == 0)
                log = trial_factorint(c).get(p, 0)
                ge = log - prev_log
                if ge == 0:
                    break
                parts_ge.append(ge)
                prev_log = log
                j += 1
            for idx, ge in enumerate(parts_ge):
                nxt = parts_ge[idx + 1] if idx + 1 < len(parts_ge) else 0
                orders.extend([p ** (idx + 1)] * (ge - nxt))
        return factoring_canonical(0, orders)


def brute_force_summands(g: FgAbelianGroup) -> list[FgAbelianGroup]:
    """Direct-summand classes of a finite group found by exhaustive search.

    Materializes the group, enumerates every subgroup, keeps the ones
    that admit a complement (trivial intersection with a subgroup of
    complementary order), and classifies survivors up to isomorphism.
    The addition table alone has order^2 entries; use on small groups only.
    """
    if g.free_rank:
        raise ValueError("brute-force summand search needs a finite group")
    n = math.prod(g.invariant_factors)
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


def all_abelian_groups_of_order(n: int) -> list[FgAbelianGroup]:
    """Every isomorphism class of abelian groups of order n, via
    partitions of the prime exponents."""

    def partitions(k: int, most: int | None = None):
        if k == 0:
            yield ()
            return
        most = k if most is None else min(most, k)
        for head in range(most, 0, -1):
            for tail in partitions(k - head, head):
                yield (head,) + tail

    factored = trial_factorint(n)

    per_prime = [
        [[p**e for e in part] for part in partitions(exp)] for p, exp in factored.items()
    ]
    groups = []
    for pick in itertools.product(*per_prime):
        orders = [o for block in pick for o in block]
        groups.append(FgAbelianGroup.from_orders(*orders))
    return groups


def all_abelian_groups_up_to(max_order: int) -> list[FgAbelianGroup]:
    out = []
    for n in range(1, max_order + 1):
        out.extend(all_abelian_groups_of_order(n))
    return out


def dense_kunneth(
    left: list[FgAbelianGroup], right: list[FgAbelianGroup]
) -> list[FgAbelianGroup]:
    """H_n(X x Y) = sum_{i+j=n} H_i (x) H_j + sum_{i+j=n-1} Tor(H_i, H_j)
    over every pair of degrees.  Each piece comes from Z (x) X = X and
    Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e) and is canonicalized on its
    own by factoring."""
    pieces: list[list[FgAbelianGroup]] = [[] for _ in left]
    for i, a in enumerate(left):
        for j, b in enumerate(right[: len(left) - i]):
            gcds = [math.gcd(d, e) for d in a.invariant_factors for e in b.invariant_factors]
            torsion = [*b.invariant_factors] * a.free_rank + [*a.invariant_factors] * b.free_rank
            pieces[i + j].append(factoring_canonical(a.free_rank * b.free_rank, torsion + gcds))
            if i + j + 1 < len(left):
                pieces[i + j + 1].append(factoring_canonical(0, gcds))
    return [direct_sum(*p) for p in pieces]


def dense_homology(space, top: int) -> list[FgAbelianGroup]:
    """Groups H_0 .. H_top of a canonical space as a dense list, from the
    homology tables and a left-to-right Kunneth fold over the factors."""
    groups = [TRIVIAL] * (top + 1)
    groups[0] = Z
    if isinstance(space, (Sphere, Moore)):
        degree = space.dim if isinstance(space, Sphere) else space.degree
        if degree <= top:
            groups[degree] = Z if isinstance(space, Sphere) else space.group
    elif isinstance(space, ComplexProjective):
        for n in range(2, min(2 * space.dim, top) + 1, 2):
            groups[n] = Z
    elif isinstance(space, EilenbergMacLane):
        # only the supported table: K(Z/m, 1) and K(Z, 2)
        if space.degree == 1:
            assert space.group.free_rank == 0 and len(space.group.invariant_factors) == 1
            for n in range(1, top + 1, 2):
                groups[n] = space.group
        else:
            assert space.degree == 2 and space.group == Z
            for n in range(2, top + 1, 2):
                groups[n] = Z
    elif isinstance(space, Wedge):
        children = [dense_homology(c, top) for c in space.children]
        for n in range(1, top + 1):
            groups[n] = direct_sum(*(c[n] for c in children))
    elif isinstance(space, Product):
        lists = [dense_homology(c, top) for c in space.children]
        groups = lists[0]
        for nxt in lists[1:]:
            groups = dense_kunneth(groups, nxt)
    else:
        assert isinstance(space, Point)
    return groups


def subset_product_bound(space) -> int:
    """The product lower bound by brute force: every one of the 2^k
    sub-products of the canonical factors, each folded from scratch, and
    compared up to max(10, the largest finite homological dimension among
    them)."""
    factors = canonicalize(space).children
    subs = []
    for mask in itertools.product((False, True), repeat=len(factors)):
        picked = tuple(f for f, take in zip(factors, mask) if take)
        subs.append(POINT if not picked else picked[0] if len(picked) == 1 else Product(picked))
    dims = [_dimension(canonicalize(s)) for s in subs]
    bound = max([10] + [d for d in dims if d is not None])
    return len({tuple(dense_homology(s, bound)) for s in subs})
