"""The gcd/lcm canonicalizer and the primality test behind factoring.

Canonical groups are checked against ``oracles.factoring_canonical``
(trial division and prime-power recombination) and, on small inputs,
against the determinant divisors of the diagonal relation matrix.  The
timing pins hold inputs that factoring, a flat chain, a pairwise wedge
merge or a dense profile made slow.
"""

import json
import math
import time

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from homcap import (
    ExtendedCount,
    FgAbelianGroup,
    Moore,
    Product,
    Sphere,
    Wedge,
    borsuk_report,
    canonicalize,
    capacity,
    cyclic,
    direct_sum,
    homology,
    tensor,
    tor,
)
from homcap.abelian import _MILLER_RABIN_EXACT, _factorint, _proven_prime
from homcap.cli import main
from oracles import determinant_divisor_diagonal, diagonal, factoring_canonical, trial_factorint

# orders that share prime powers, the trivial and free orders, and signs
SHARED = [0, 1, -1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36, 60, 72, 120, 360, -12, -60]

orders = st.one_of(st.sampled_from(SHARED), st.integers(-10**6, 10**6))

order_lists = st.one_of(
    st.lists(orders, max_size=12),
    # up to ~300 copies of one order, among a few others
    st.tuples(orders, st.integers(0, 300), st.lists(orders, max_size=6)).map(
        lambda t: [t[0]] * t[1] + t[2]
    ),
)


def _diagonal_group(orders) -> FgAbelianGroup:
    diag = determinant_divisor_diagonal(diagonal(orders, len(orders), len(orders)))
    return FgAbelianGroup(diag.count(0), tuple(d for d in diag if d > 1))


@seed(20261018)
@settings(deadline=None, max_examples=300)
@given(order_lists, st.integers(0, 3))
def test_from_orders_and_direct_sum_match_factoring(orders, rank):
    expected = factoring_canonical(rank, orders)
    assert FgAbelianGroup.from_orders(*orders, *[0] * rank) == expected
    pieces = [FgAbelianGroup(rank), FgAbelianGroup.from_orders(*orders[1::2])]
    assert direct_sum(*pieces, *map(cyclic, orders[::2])) == expected


@seed(20261018)
@settings(deadline=None, max_examples=200)
@given(st.lists(orders, max_size=8), st.lists(orders, max_size=8))
def test_tensor_and_tor_match_factoring(left, right):
    # Z/m (x) Z/n = Z/gcd(m, n) with 0 standing for Z, and Tor(Z/m, Z/n) =
    # Z/gcd(m, n), trivial when either side is free
    a, b = FgAbelianGroup.from_orders(*left), FgAbelianGroup.from_orders(*right)
    pairs = [(m, n) for m in left for n in right]
    assert tensor(a, b) == factoring_canonical(0, [math.gcd(m, n) for m, n in pairs])
    tor_orders = [math.gcd(m, n) if m and n else 1 for m, n in pairs]
    assert tor(a, b) == factoring_canonical(0, tor_orders)


@seed(20261018)
@settings(deadline=None, max_examples=100)
@given(st.lists(st.one_of(st.sampled_from(SHARED), st.integers(-200, 200)), max_size=5))
def test_small_orders_match_determinant_divisors(orders):
    assert FgAbelianGroup.from_orders(*orders) == _diagonal_group(orders)


# ---------------------------------------------------------------------------
# primality


def test_proven_prime_agrees_with_trial_division_below_100000():
    for n in range(100_000):
        assert _proven_prime(n) == (n > 1 and trial_factorint(n) == {n: 1}), n


def _chernick_carmichaels(count: int, least_prime: int) -> list[tuple[int, int, int]]:
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime
    out = []
    k = 1
    while len(out) < count:
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if ps[0] > least_prime and all(trial_factorint(p) == {p: 1} for p in ps):
            out.append(ps)
        k += 1
    return out


def test_carmichael_numbers_and_strong_pseudoprimes_are_composite():
    carmichaels = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265]
    carmichaels += [math.prod(ps) for ps in _chernick_carmichaels(5, 1000)]
    # strong pseudoprimes to the bases 2..7 and 2..23
    pseudoprimes = [3_215_031_751, 3_825_123_056_546_413_051]
    for n in carmichaels + pseudoprimes:
        assert not _proven_prime(n), n
        assert _factorint(n) == trial_factorint(n), n


def test_no_answer_rests_on_the_test_past_its_bound():
    # the bound is itself a strong pseudoprime to all 13 bases, and 2^89 - 1
    # is a prime above it
    assert not _proven_prime(_MILLER_RABIN_EXACT)
    assert not _proven_prime(2**89 - 1)
    assert _proven_prime(2**61 - 1)


def test_factoring_past_the_trial_limit():
    # cofactors that trial division can still finish, against that oracle
    for n in [1009**2, 1009 * 1013 * 7, 2 * 1_000_003, 1_000_003 * 2_147_483_647,
              3 * 5 * 1013**3 * 1_000_003]:
        assert _factorint(n) == trial_factorint(n), n
    # prime cofactors trial division would take minutes to reach
    p = 1_986_965_506_278_811
    assert _factorint(1_000_000_000_000_000_000_080) == {2: 4, 3: 3, 5: 1, 233: 1, p: 1}
    assert _factorint(1009 * p) == {1009: 1, p: 1}
    assert _factorint(2**61 - 1) == {2**61 - 1: 1}


# ---------------------------------------------------------------------------
# inputs that factoring, or a flat chain, made slow


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def test_a_large_semiprime_order_is_not_factored():
    n = (2**31 - 1) * (2**29 - 3)
    g, seconds = _timed(FgAbelianGroup.from_orders, n)
    assert g == FgAbelianGroup(0, (n,)) and seconds < 0.1


def test_homology_of_a_moore_space_on_a_large_prime_order(capsys):
    code, seconds = _timed(main, ["homology", "M(Z/2305843009213693951, 2)", "--json"])
    assert code == 0 and seconds < 1.0
    assert "Z/2305843009213693951" in capsys.readouterr().out


def test_repeated_torsion_pieces_are_counted_in_runs():
    space = Product((Moore(cyclic(2), 2), Wedge((Sphere(3),) * 8000)))
    g, seconds = _timed(homology, space, 5)
    assert g == FgAbelianGroup(0, (2,) * 8000) and seconds < 1.0
    g, seconds = _timed(FgAbelianGroup.from_orders, *[4, 6] * 8000)
    assert g == FgAbelianGroup(0, (2,) * 8000 + (12,) * 8000) and seconds < 1.0


def test_a_wide_moore_wedge_merges_in_one_pass():
    # merging same-degree Moore spaces pairwise is quadratic in the width
    space = Wedge((Moore(cyclic(2), 2),) * 8000)
    canon, seconds = _timed(canonicalize, space)
    assert canon == Moore(FgAbelianGroup(0, (2,) * 8000), 2) and seconds < 1.0
    count, seconds = _timed(capacity, space)
    assert count == ExtendedCount.finite(8001) and seconds < 1.0


def test_comparing_spheres_to_a_huge_bound_stays_sparse():
    report, seconds = _timed(borsuk_report, Sphere(3), Sphere(4), 10**9)
    assert report.compared_up_to == 10**9 and seconds < 1.0
    assert report.exact_comparison and not report.homology_agrees


def test_summands_of_orders_with_a_large_prime_cofactor(capsys):
    # 1000000000000000000080 = 2^4 3^3 5 233 1986965506278811
    cases = [("Z^1 + Z + Z/1000000000000000000080", 3 * 2**5), ("Z/2305843009213693951", 2)]
    for group, classes in cases:
        code, seconds = _timed(main, ["summands", group, "--json"])
        assert code == 0 and seconds < 1.0
        assert len(json.loads(capsys.readouterr().out)["classes"]) == classes
