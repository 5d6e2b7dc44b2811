"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact integer equality; the only tolerances are the
stated wall-clock budgets, asserted with perf_counter.
"""

import functools
import itertools
import json
import random
import time
from collections import Counter

from homcap import (
    POINT,
    Z,
    ComplexProjective,
    EilenbergMacLane,
    ExtendedCount,
    IntMatrix,
    Moore,
    Point,
    Product,
    Sphere,
    Wedge,
    canonicalize,
    capacity,
    capacity_two_complex,
    count_direct_summands,
    cyclic,
    enumerate_dominated,
    homology,
    homology_profile,
    wedge,
)
from homcap.abelian import TRIVIAL
from homcap.cli import main
from oracles import all_abelian_groups_up_to, brute_force_summands, snf_is_valid


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "Borsuk counterexample: S^2 v S^4 vs CP^2 through the CLI")
def test_borsuk_counterexample(capsys):
    start = time.perf_counter()
    code = main(["compare", "S^2 v S^4", "CP^2", "--bound", "10", "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["homology_agrees"] is True
    assert doc["exact_comparison"] is True
    assert doc["capacity_x"] == {"kind": "finite", "value": 4}
    assert doc["capacity_y"] == {"kind": "finite", "value": 2}
    assert doc["is_counterexample"] is True
    assert elapsed < 1.0


@criterion(2, "sphere-wedge capacities match the product formula")
def test_sphere_wedge_capacities():
    for k in range(1, 11):
        assert capacity(wedge(*([Sphere(1)] * k))) == ExtendedCount.finite(k + 1)
    for n in range(1, 7):
        assert capacity(Sphere(n)) == ExtendedCount.finite(2)
    for n in range(2, 6):
        assert capacity(Wedge((Sphere(1), Sphere(n)))) == ExtendedCount.finite(4)
    big = wedge(*([Sphere(2)] * 2 + [Sphere(3)] + [Sphere(5)] * 3))
    assert capacity(big) == ExtendedCount.finite(24)


def _sphere_multiplicities(space) -> Counter:
    if isinstance(space, Point):
        return Counter()
    if isinstance(space, Sphere):
        return Counter({space.dim: 1})
    assert isinstance(space, Wedge)
    counts = Counter()
    for child in space.children:
        assert isinstance(child, Sphere)
        counts[child.dim] += 1
    return counts


@criterion(3, "dominated-type enumeration is the full sub-wedge lattice")
def test_enumeration_completeness():
    start = time.perf_counter()
    dims_universe = [1, 2, 3, 4, 5]
    for size in (1, 2, 3):
        for dims in itertools.combinations(dims_universe, size):
            for mults in itertools.product((1, 2, 3), repeat=size):
                space = wedge(
                    *(Sphere(d) for d, m in zip(dims, mults) for _ in range(m))
                )
                expected = 1
                for m in mults:
                    expected *= m + 1
                dominated = enumerate_dominated(space)
                assert len(dominated) == expected
                assert len(set(dominated)) == expected
                assert POINT in dominated
                assert canonicalize(space) in dominated
                bound = dict(zip(dims, mults))
                for entry in dominated:
                    for dim, count in _sphere_multiplicities(entry).items():
                        assert count <= bound[dim]
    assert time.perf_counter() - start < 5.0


@criterion(4, "Moore capacity equals the brute-force summand count (order <= 64)")
def test_moore_capacity_vs_brute_force():
    start = time.perf_counter()
    groups = [g for g in all_abelian_groups_up_to(64)]
    assert len(groups) > 100  # every isomorphism class, not a sample
    for g in groups:
        oracle_classes = brute_force_summands(g)
        count = count_direct_summands(g)
        assert len(oracle_classes) == count
        from homcap import enumerate_direct_summands

        assert oracle_classes == enumerate_direct_summands(g)
        if g.is_trivial():
            assert capacity(Moore(cyclic(2), 2)).is_finite  # degenerate guard
        else:
            assert capacity(Moore(g, 2)) == ExtendedCount.finite(count)
    assert time.perf_counter() - start < 60.0


@criterion(5, "homology tables for CP^n and K(Z/m, 1)")
def test_homology_tables():
    for n in range(2, 5):
        for p in range(0, 2 * n + 3):
            expected = Z if (p % 2 == 0 and p <= 2 * n) else TRIVIAL
            assert homology(ComplexProjective(n), p) == expected
    for m in (2, 3, 5):
        space = EilenbergMacLane(cyclic(m), 1)
        for n in range(10):
            if n == 0:
                expected = Z
            elif n % 2 == 1:
                expected = cyclic(m)
            else:
                expected = TRIVIAL
            assert homology(space, n) == expected


@criterion(6, "product lower bound: S^3 x K(Z,2) dominates 4 distinguishable retracts")
def test_product_lower_bound():
    y = Product((Sphere(3), EilenbergMacLane(Z, 2)))
    assert capacity(y) == ExtendedCount.lower_bound(4)
    subproducts = [POINT, Sphere(3), EilenbergMacLane(Z, 2), y]
    profiles = [homology_profile(s, 5).groups for s in subproducts]
    for a, b in itertools.combinations(profiles, 2):
        assert a != b  # some degree <= 5 tells each pair apart


@criterion(7, "Smith normal form on 1,000 random matrices")
def test_snf_random_suite():
    start = time.perf_counter()
    rng = random.Random(74207281)
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = IntMatrix(
            rows,
            cols,
            tuple(rng.randint(-50, 50) for _ in range(rows * cols)),
        )
        snf_is_valid(m)
    assert time.perf_counter() - start < 30.0


@criterion(8, "two-complex capacity formula agrees with the wedge model")
def test_two_complex_formula():
    for r in range(7):
        for s in range(7):
            model = wedge(*([Sphere(1)] * r + [Sphere(2)] * s))
            assert capacity_two_complex(r, s) == capacity(model)
            assert capacity_two_complex(r, s) == ExtendedCount.finite((r + 1) * (s + 1))
