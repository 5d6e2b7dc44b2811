"""Property tests for the algebraic and topological invariants."""

import math
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcap import (
    POINT,
    TRIVIAL,
    Z,
    ComplexProjective,
    EilenbergMacLane,
    ExtendedCount,
    FgAbelianGroup,
    IntMatrix,
    Moore,
    Product,
    Sphere,
    Wedge,
    brute_force_summands,
    canonicalize,
    capacity,
    count_direct_summands,
    cyclic,
    direct_sum,
    enumerate_dominated,
    enumerate_direct_summands,
    free,
    from_presentation,
    homology,
    homology_profile,
    is_isomorphic,
    parse_space,
    render_space,
    smith_normal_form,
    tensor,
    tor,
    wedge,
)
from oracles import all_abelian_groups_up_to, dense_homology, subset_product_bound

# ---------------------------------------------------------------------------
# strategies

matrices = st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
    lambda shape: st.lists(
        st.integers(-50, 50),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda entries: IntMatrix(shape[0], shape[1], tuple(entries)))
)

torsion_classes = all_abelian_groups_up_to(24)

groups = st.builds(
    lambda g, rank: direct_sum(free(rank), g),
    st.sampled_from(torsion_classes),
    st.integers(0, 2),
)

torsion_groups = st.sampled_from([g for g in torsion_classes if not g.is_trivial()])

supported_atoms = st.one_of(
    st.just(POINT),
    st.builds(Sphere, st.integers(1, 6)),
    st.builds(Moore, st.sampled_from(torsion_classes), st.integers(2, 5)),
    st.builds(ComplexProjective, st.integers(2, 4)),
    st.sampled_from(
        [EilenbergMacLane(cyclic(m), 1) for m in (2, 3, 4, 6)]
        + [EilenbergMacLane(Z, 2), EilenbergMacLane(Z, 1), EilenbergMacLane(TRIVIAL, 3)]
    ),
)

supported_spaces = st.recursive(
    supported_atoms,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda cs: Wedge(tuple(cs))),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Product(tuple(cs))),
    ),
    max_leaves=6,
)

enumerable_spaces = st.lists(
    st.one_of(
        st.builds(Sphere, st.integers(1, 5)),
        st.builds(Moore, torsion_groups, st.integers(2, 4)),
    ),
    max_size=4,
).map(lambda cs: wedge(*cs))


# ---------------------------------------------------------------------------
# Smith normal form


@given(matrices)
def test_snf_exactness(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = d.diagonal_entries()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[: len(nonzero)] == nonzero
    for lo, hi in zip(nonzero, nonzero[1:]):
        assert hi % lo == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.at(i, j) == 0
    # from_presentation reduces without transforms; it must read the same diagonal
    expected = FgAbelianGroup(m.rows - len(nonzero), tuple(x for x in nonzero if x > 1))
    assert from_presentation(m) == expected


def test_presentation_round_trip_exhaustive():
    # every group with order <= 64 and free rank <= 2 survives the trip
    # through its own relation matrix
    for torsion in all_abelian_groups_up_to(64):
        for rank in range(3):
            g = direct_sum(free(rank), torsion)
            assert from_presentation(g.presentation_matrix()) == g


# ---------------------------------------------------------------------------
# group algebra


@given(groups, groups)
def test_isomorphism_is_symmetric(a, b):
    assert is_isomorphic(a, b) == is_isomorphic(b, a)
    assert is_isomorphic(a, a)


@given(st.lists(groups, max_size=4), st.randoms())
def test_direct_sum_is_shuffle_invariant(gs, rng):
    shuffled = list(gs)
    rng.shuffle(shuffled)
    assert is_isomorphic(direct_sum(*gs), direct_sum(*shuffled))


@given(st.sampled_from(torsion_classes), st.sampled_from(torsion_classes))
def test_coprime_multiplicativity(a, b):
    assume(math.gcd(a.order(), b.order()) == 1)
    assert count_direct_summands(direct_sum(a, b)) == count_direct_summands(
        a
    ) * count_direct_summands(b)


@given(groups, groups)
def test_tensor_and_tor_commute(a, b):
    assert is_isomorphic(tensor(a, b), tensor(b, a))
    assert is_isomorphic(tor(a, b), tor(b, a))


@given(groups)
def test_tor_vanishes_on_torsion_free(g):
    assert tor(free(2), g) == TRIVIAL
    assert tor(g, Z) == TRIVIAL


@given(st.sampled_from([g for g in torsion_classes if (g.order() or 0) <= 16]))
@settings(deadline=None)
def test_summand_count_matches_brute_force(g):
    classes = brute_force_summands(g)
    assert classes == enumerate_direct_summands(g)
    assert len(classes) == count_direct_summands(g)


@given(groups)
def test_summand_enumeration_is_consistent(g):
    classes = enumerate_direct_summands(g)
    assert len(classes) == count_direct_summands(g)
    assert len(set(classes)) == len(classes)
    assert TRIVIAL in classes and g in classes


# ---------------------------------------------------------------------------
# spaces


@given(supported_spaces)
def test_canonicalize_is_idempotent(space):
    once = canonicalize(space)
    assert canonicalize(once) == once


@given(supported_spaces, st.integers(0, 12))
@settings(deadline=None)
def test_homology_is_canonicalization_invariant(space, n):
    assert homology(space, n) == homology(canonicalize(space), n)


@given(st.lists(supported_atoms, min_size=1, max_size=5), st.integers(1, 10))
@settings(deadline=None)
def test_wedge_additivity(children, n):
    total = homology(Wedge(tuple(children)), n)
    assert total == direct_sum(*(homology(c, n) for c in children))


@given(supported_spaces, supported_spaces, st.integers(0, 8))
@settings(deadline=None, max_examples=40)
def test_kunneth_symmetry(x, y, n):
    assert homology(Product((x, y)), n) == homology(Product((y, x)), n)


@given(st.integers(1, 10), st.integers(0, 12))
def test_sphere_homology(k, n):
    expected = Z if n in (0, k) else TRIVIAL
    assert homology(Sphere(k), n) == expected


# ---------------------------------------------------------------------------
# capacity


@given(enumerable_spaces)
@settings(deadline=None)
def test_enumeration_cardinality(space):
    cap = capacity(space)
    assume(cap.is_finite and cap.value <= 200)
    dominated = enumerate_dominated(space)
    assert len(dominated) == cap.value
    assert POINT in dominated
    assert canonicalize(space) in dominated
    assert len(set(dominated)) == len(dominated)


@given(enumerable_spaces)
@settings(deadline=None, max_examples=30)
def test_summand_coherence(space):
    cap = capacity(space)
    assume(cap.is_finite and cap.value <= 64)
    canon = canonicalize(space)
    from homcap import homological_dimension

    dim = homological_dimension(canon) or 0
    for dominated in enumerate_dominated(canon):
        for n in range(dim + 1):
            classes = enumerate_direct_summands(homology(canon, n))
            assert homology(dominated, n) in classes


@given(
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), min_size=1, max_size=3),
    st.dictionaries(st.integers(5, 8), st.integers(1, 3), min_size=1, max_size=3),
)
def test_wedge_multiplicativity_on_disjoint_dimensions(block1, block2):
    def build(block):
        return wedge(*(Sphere(d) for d, k in block.items() for _ in range(k)))

    w1, w2 = build(block1), build(block2)
    combined = canonicalize(Wedge((w1, w2)))
    assert capacity(combined).value == capacity(w1).value * capacity(w2).value


monotone_factors = st.sampled_from(
    [Sphere(2), Sphere(3), EilenbergMacLane(Z, 2), ComplexProjective(2)]
)


@given(st.lists(monotone_factors, min_size=2, max_size=4), monotone_factors)
def test_product_lower_bound_is_monotone(factors, extra):
    # sub-products of the smaller product are sub-products of the larger,
    # and equal factors give equal sub-products
    smaller = capacity(Product(tuple(factors)))
    larger = capacity(Product(tuple(factors) + (extra,)))
    assert smaller.kind == larger.kind == "lower-bound"
    assert 1 <= smaller.value <= larger.value

    def sub_multisets(fs):
        return math.prod(m + 1 for m in Counter(fs).values())

    assert smaller.value <= sub_multisets(factors)
    assert larger.value <= sub_multisets(factors + [extra])


product_factors = st.sampled_from(
    [
        Sphere(1),
        Sphere(2),
        Sphere(3),
        ComplexProjective(2),
        Moore(cyclic(2), 2),
        Moore(cyclic(6), 3),
        wedge(Sphere(2), Sphere(3)),
        EilenbergMacLane(cyclic(2), 1),
        EilenbergMacLane(cyclic(6), 1),
        EilenbergMacLane(Z, 2),
    ]
)

# runs of repeated factors, 2-5 factors in all
product_factor_lists = (
    st.lists(st.tuples(product_factors, st.integers(1, 3)), min_size=1, max_size=4)
    .map(lambda runs: [f for f, m in runs for _ in range(m)][:5])
    .filter(lambda factors: len(factors) >= 2)
)


@given(product_factor_lists, st.integers(0, 20))
@settings(deadline=None, max_examples=50)
def test_product_answers_match_dense_oracles(factors, bound):
    space = Product(tuple(factors))
    assert capacity(space) == ExtendedCount.lower_bound(subset_product_bound(space))
    profile = homology_profile(space, bound)
    assert list(profile.groups) == dense_homology(canonicalize(space), bound)


def nested_wedge_of_products(k: int, base: str = "S^3") -> str:
    # the free ranks of its homology grow geometrically with k
    text = base
    for i in range(k):
        text = f"S^3 v (S^2 x ({text}))" if i % 2 else f"S^2 x ({text})"
    return text


@pytest.mark.parametrize("base", ["S^3", "M(Z/6, 3)"])
def test_nested_wedges_of_products_match_dense_oracle(base):
    for k in range(13):
        space = canonicalize(parse_space(nested_wedge_of_products(k, base)))
        assert list(homology_profile(space, 12).groups) == dense_homology(space, 12)


def test_free_ranks_are_counted_not_listed():
    space = parse_space(nested_wedge_of_products(50))  # 75 levels of parentheses
    start = time.perf_counter()
    profile = homology_profile(space, 12)
    assert time.perf_counter() - start < 1.0
    assert max(g.free_rank for g in profile.groups) == 15_890_700


@given(supported_spaces)
@settings(deadline=None, max_examples=50)
def test_capacity_survives_canonicalization(space):
    assert capacity(space) == capacity(canonicalize(space))


# ---------------------------------------------------------------------------
# grammar round trip


@given(supported_spaces)
def test_render_parse_round_trip(space):
    canon = canonicalize(space)
    assert parse_space(render_space(canon)) == canon
