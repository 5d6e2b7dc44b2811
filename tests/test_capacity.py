import time

import pytest

from homcap import (
    POINT,
    Z,
    ComplexProjective,
    EilenbergMacLane,
    ExtendedCount,
    FgAbelianGroup,
    Moore,
    Product,
    Sphere,
    UnsupportedCapacityError,
    UnsupportedSpaceError,
    Wedge,
    borsuk_report,
    canonicalize,
    capacity,
    capacity_two_complex,
    classify,
    cyclic,
    direct_sum,
    enumerate_dominated,
    homology,
    homology_equivalent,
    wedge,
)
from oracles import subset_product_bound

S1, S2, S3, S4, S5 = (Sphere(n) for n in range(1, 6))
CP2 = ComplexProjective(2)
KZ2 = EilenbergMacLane(Z, 2)


class TestExtendedCount:
    def test_rendering(self):
        assert str(ExtendedCount.finite(4)) == "Finite(4)"
        assert str(ExtendedCount.lower_bound(4)) == "LowerBound(4)"
        assert str(ExtendedCount.unknown()) == "Unknown"

    def test_values_at_least_one(self):
        with pytest.raises(ValueError):
            ExtendedCount.finite(0)
        with pytest.raises(ValueError):
            ExtendedCount.lower_bound(-1)
        with pytest.raises(ValueError):
            ExtendedCount("unknown", 3)
        with pytest.raises(ValueError):
            ExtendedCount("nonsense", 1)


class TestCapacityDispatch:
    def test_point(self):
        assert capacity(POINT) == ExtendedCount.finite(1)

    def test_bouquets_of_circles(self):
        for k in range(1, 8):
            assert capacity(wedge(*([S1] * k))) == ExtendedCount.finite(k + 1)

    def test_single_spheres(self):
        for n in range(1, 8):
            assert capacity(Sphere(n)) == ExtendedCount.finite(2)

    def test_circle_with_sphere(self):
        for n in range(2, 6):
            assert capacity(Wedge((S1, Sphere(n)))) == ExtendedCount.finite(4)

    def test_sphere_wedge_product_formula(self):
        assert capacity(Wedge((S2, S4))) == ExtendedCount.finite(4)
        assert capacity(Wedge((S2, S2, S3))) == ExtendedCount.finite(6)
        assert capacity(Wedge((S1, S1, S2, S3, S3, S3))) == ExtendedCount.finite(24)

    def test_moore_space(self):
        g = FgAbelianGroup(0, (2, 4))
        assert capacity(Moore(g, 3)) == ExtendedCount.finite(4)
        g = direct_sum(FgAbelianGroup(2), cyclic(6))
        assert capacity(Moore(g, 2)) == ExtendedCount.finite(12)

    def test_moore_wedge_distinct_degrees(self):
        got = capacity(Wedge((Moore(cyclic(4), 2), Moore(cyclic(2), 3))))
        assert got == ExtendedCount.finite(4)

    def test_moore_wedge_same_degree_merges(self):
        # M(Z/2, 2) v M(Z/3, 2) is M(Z/6, 2), which has 4 summand classes
        got = capacity(Wedge((Moore(cyclic(2), 2), Moore(cyclic(3), 2))))
        assert got == ExtendedCount.finite(4)

    def test_circle_with_torsion_moore_unknown(self):
        assert capacity(Wedge((S1, Moore(cyclic(2), 2)))) == ExtendedCount.unknown()

    def test_eilenberg_maclane(self):
        assert capacity(KZ2) == ExtendedCount.finite(2)
        assert capacity(EilenbergMacLane(cyclic(6), 1)) == ExtendedCount.finite(4)
        assert capacity(EilenbergMacLane(cyclic(8), 3)) == ExtendedCount.finite(2)
        assert capacity(EilenbergMacLane(FgAbelianGroup(2), 1)) == ExtendedCount.finite(3)

    def test_complex_projective(self):
        assert capacity(CP2) == ExtendedCount.finite(2)
        assert capacity(ComplexProjective(3)) == ExtendedCount.unknown()
        assert capacity(ComplexProjective(7)) == ExtendedCount.unknown()

    def test_product_lower_bound(self):
        assert capacity(Product((S3, KZ2))) == ExtendedCount.lower_bound(4)
        assert capacity(Product((S2, S3))) == ExtendedCount.lower_bound(4)

    def test_product_merges_indistinguishable_subproducts(self):
        assert capacity(Product((S2, S2))) == ExtendedCount.lower_bound(3)

    def test_product_compares_up_to_the_summed_dimension(self):
        # S^4 x S^8 and S^4 v S^8 agree below degree 12 and differ there,
        # above the largest factor dimension but within the sum (20)
        space = Product((S4, Sphere(8), wedge(S4, Sphere(8))))
        assert capacity(space) == ExtendedCount.lower_bound(8)
        assert capacity(space) == ExtendedCount.lower_bound(subset_product_bound(space))
        # a K factor has no dimension, but the finite ones still sum to 20
        space = Product((S4, Sphere(8), KZ2, wedge(S4, Sphere(8))))
        assert capacity(space) == ExtendedCount.lower_bound(16)
        assert capacity(space) == ExtendedCount.lower_bound(subset_product_bound(space))

    def test_product_with_unsupported_factor_unknown(self):
        k62 = EilenbergMacLane(cyclic(6), 2)
        for space in [
            Product((S2, k62)),
            Product((S2, Wedge((S3, k62)))),
            Product((EilenbergMacLane(FgAbelianGroup(0, (2, 2)), 1), S2)),
        ]:
            assert capacity(space) == ExtendedCount.unknown()

    def test_unsupported_factor_is_found_before_the_product_walk(self):
        # the fourteen spheres alone would walk 2^14 sub-products (seconds);
        # more spheres would make a regression cost memory, not a failure
        start = time.perf_counter()
        space = Product(tuple(Sphere(n) for n in range(2, 16)) + (EilenbergMacLane(cyclic(6), 2),))
        assert capacity(space) == ExtendedCount.unknown()
        assert time.perf_counter() - start < 1.0

    def test_wedge_with_cp2_unknown(self):
        assert capacity(Wedge((S2, CP2))) == ExtendedCount.unknown()

    def test_canonicalization_invariance(self):
        spaces = [
            Wedge((S2, Wedge((S1, S2)), POINT)),
            Moore(direct_sum(Z, cyclic(2)), 2),
            Product((POINT, S3, KZ2)),
            EilenbergMacLane(Z, 1),
        ]
        for s in spaces:
            assert capacity(s) == capacity(canonicalize(s))
            assert classify(s).space == canonicalize(s)

    def test_moore_wedge_extension_flag(self):
        # only a wedge that mixes degrees and carries torsion extends the
        # sphere-wedge rule to Moore coefficients
        assert classify(Wedge((S3, Moore(cyclic(2), 2)))).extension
        settled = [
            Wedge((S2, S4)),
            Moore(FgAbelianGroup(0, (2, 4)), 3),
            EilenbergMacLane(cyclic(6), 1),
            CP2,
            Product((S3, KZ2)),
        ]
        for s in settled:
            assert not classify(s).extension


class TestEnumerateDominated:
    def test_point(self):
        assert enumerate_dominated(POINT) == [POINT]

    def test_circle_and_sphere(self):
        got = enumerate_dominated(Wedge((S1, S2)))
        assert got == [POINT, S1, S2, Wedge((S1, S2))]

    def test_cp2(self):
        assert enumerate_dominated(CP2) == [POINT, CP2]

    def test_moore_with_mixed_torsion(self):
        g = FgAbelianGroup(0, (2, 4))
        got = enumerate_dominated(Moore(g, 2))
        assert got == [
            POINT,
            Moore(cyclic(2), 2),
            Moore(cyclic(4), 2),
            Moore(g, 2),
        ]

    def test_sphere_wedge_is_subwedge_lattice(self):
        space = Wedge((S2, S2, S3))
        got = enumerate_dominated(space)
        assert len(got) == 6
        assert POINT in got
        assert canonicalize(space) in got
        assert len(set(got)) == 6
        assert Wedge((S2, S3)) in got
        assert Wedge((S2, S2)) in got

    def test_length_matches_capacity(self):
        spaces = [
            Wedge((S1, S1, S4)),
            Moore(direct_sum(FgAbelianGroup(1), cyclic(12)), 3),
            EilenbergMacLane(cyclic(12), 1),
            Sphere(6),
        ]
        for s in spaces:
            assert len(enumerate_dominated(s)) == capacity(s).value

    def test_em_enumeration(self):
        got = enumerate_dominated(EilenbergMacLane(cyclic(6), 1))
        assert got == [
            POINT,
            EilenbergMacLane(cyclic(2), 1),
            EilenbergMacLane(cyclic(3), 1),
            EilenbergMacLane(cyclic(6), 1),
        ]

    def test_em_of_z_enumerates_circle(self):
        assert enumerate_dominated(EilenbergMacLane(Z, 1)) == [POINT, S1]

    def test_mixed_free_summand_space(self):
        # M(Z + Z/2, 2) dominates *, M(Z/2,2), S^2, and itself (canonically
        # the wedge S^2 v M(Z/2, 2)); summand classes sort free rank last
        space = Moore(direct_sum(Z, cyclic(2)), 2)
        got = enumerate_dominated(space)
        assert got == [
            POINT,
            Moore(cyclic(2), 2),
            S2,
            Wedge((S2, Moore(cyclic(2), 2))),
        ]

    def test_unsupported_cases_raise(self):
        with pytest.raises(UnsupportedCapacityError):
            enumerate_dominated(Product((S3, KZ2)))
        with pytest.raises(UnsupportedCapacityError):
            enumerate_dominated(ComplexProjective(3))
        with pytest.raises(UnsupportedCapacityError):
            enumerate_dominated(Wedge((S1, Moore(cyclic(2), 2))))

    def test_summand_coherence(self):
        # every dominated type has degreewise homology that is a summand
        # of the dominating space's homology
        from homcap import enumerate_direct_summands

        space = Wedge((S2, S2, Moore(cyclic(4), 3)))
        dim = 3
        for dom in enumerate_dominated(space):
            for n in range(dim + 1):
                classes = enumerate_direct_summands(homology(space, n))
                assert homology(dom, n) in classes


class TestTwoComplexFormula:
    def test_values(self):
        assert capacity_two_complex(1, 1) == ExtendedCount.finite(4)
        assert capacity_two_complex(0, 0) == ExtendedCount.finite(1)
        assert capacity_two_complex(2, 3) == ExtendedCount.finite(12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity_two_complex(-1, 0)

    def test_matches_wedge_model(self):
        for r in range(4):
            for s in range(4):
                model = wedge(*([S1] * r + [S2] * s))
                assert capacity_two_complex(r, s) == capacity(model)


class TestComparison:
    def test_headline_pair_agrees(self):
        agrees, exact = homology_equivalent(Wedge((S2, S4)), CP2, 5)
        assert agrees and exact

    def test_spheres_disagree(self):
        agrees, exact = homology_equivalent(S2, S3, 3)
        assert not agrees and exact

    def test_reflexive(self):
        agrees, _ = homology_equivalent(Wedge((S1, CP2)), Wedge((S1, CP2)), 7)
        assert agrees

    def test_default_bound_covers_dimensions(self):
        # CP^6 has homology up to degree 12; the default bound must see it
        agrees, exact = homology_equivalent(ComplexProjective(6), ComplexProjective(6))
        assert agrees and exact

    def test_infinite_dimensional_not_exact(self):
        agrees, exact = homology_equivalent(KZ2, KZ2, 8)
        assert agrees and not exact

    def test_unsupported_space_propagates(self):
        with pytest.raises(UnsupportedSpaceError):
            homology_equivalent(EilenbergMacLane(cyclic(6), 2), S2, 4)


class TestBorsukReport:
    def test_headline_counterexample(self):
        r = borsuk_report(Wedge((S2, S4)), CP2, 5)
        assert r.homology_agrees and r.exact_comparison
        assert r.capacity_x == ExtendedCount.finite(4)
        assert r.capacity_y == ExtendedCount.finite(2)
        assert r.is_counterexample

    def test_equal_capacities_is_no_counterexample(self):
        r = borsuk_report(S2, S2, 4)
        assert r.homology_agrees and not r.is_counterexample

    def test_differing_homology_is_no_counterexample(self):
        r = borsuk_report(Wedge((S2, S2)), Wedge((S2, S3)), 4)
        assert not r.homology_agrees and not r.is_counterexample

    def test_non_exact_comparison_blocks_verdict(self):
        # profiles agree up to the bound but one side is infinite-dimensional
        r = borsuk_report(Product((S3, KZ2)), Product((S3, KZ2)), 6)
        assert r.homology_agrees and not r.exact_comparison
        assert not r.is_counterexample

    def test_invariant_on_report_fields(self):
        r = borsuk_report(Wedge((S2, S4)), CP2, 8)
        assert r.is_counterexample == (
            r.homology_agrees
            and r.exact_comparison
            and r.capacity_x.is_finite
            and r.capacity_y.is_finite
            and r.capacity_x.value != r.capacity_y.value
        )
        assert r.compared_up_to == 8
        assert r.space_x == Wedge((S2, S4))
        assert r.space_y == CP2
