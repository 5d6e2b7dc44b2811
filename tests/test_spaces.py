import tracemalloc
from fractions import Fraction

import pytest

from homcap import (
    POINT,
    TRIVIAL,
    Z,
    ComplexProjective,
    EilenbergMacLane,
    FgAbelianGroup,
    Moore,
    Product,
    Sphere,
    UnsupportedSpaceError,
    Wedge,
    canonicalize,
    cyclic,
    direct_sum,
    homological_dimension,
    homology,
    homology_profile,
    product,
    wedge,
)

S1, S2, S3, S4 = Sphere(1), Sphere(2), Sphere(3), Sphere(4)
CP2 = ComplexProjective(2)
KZ2 = EilenbergMacLane(Z, 2)


class TestConstructors:
    def test_sphere_dimension_positive(self):
        with pytest.raises(ValueError):
            Sphere(0)

    def test_moore_degree_at_least_two(self):
        with pytest.raises(ValueError):
            Moore(cyclic(2), 1)

    def test_cp_one_rejected(self):
        with pytest.raises(ValueError):
            ComplexProjective(1)

    def test_wedge_nonempty(self):
        with pytest.raises(ValueError):
            Wedge(())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Sphere(2.5),
            lambda: Sphere(Fraction(3)),
            lambda: Moore(cyclic(2), 2.5),
            lambda: EilenbergMacLane(Z, 2.0),
            lambda: ComplexProjective(2.0),
        ],
    )
    def test_non_integers_are_rejected(self, make):
        # a float degree would pass the range checks and answer wrongly
        with pytest.raises(TypeError):
            make()

    def test_product_needs_two(self):
        with pytest.raises(ValueError):
            Product((S2,))


class TestCanonicalize:
    def test_wedge_with_point(self):
        assert canonicalize(Wedge((S2, POINT))) == S2

    def test_moore_of_z_is_sphere(self):
        assert canonicalize(Moore(Z, 3)) == S3

    def test_moore_of_trivial_is_point(self):
        assert canonicalize(Moore(TRIVIAL, 5)) == POINT

    def test_moore_free_part_splits_off(self):
        got = canonicalize(Moore(direct_sum(Z, cyclic(2)), 2))
        assert got == Wedge((S2, Moore(cyclic(2), 2)))
        assert canonicalize(Moore(FgAbelianGroup(2), 3)) == Wedge((S3, S3))

    def test_wedge_flattens_and_sorts(self):
        got = canonicalize(Wedge((S2, Wedge((S1, S2)))))
        assert got == Wedge((S1, S2, S2))

    def test_em_rewrites(self):
        assert canonicalize(EilenbergMacLane(TRIVIAL, 4)) == POINT
        assert canonicalize(EilenbergMacLane(Z, 1)) == S1
        assert canonicalize(KZ2) == KZ2

    def test_product_point_factor_drops(self):
        assert canonicalize(Product((S2, POINT))) == S2
        assert canonicalize(Product((POINT, POINT))) == POINT

    def test_product_flattens(self):
        got = canonicalize(Product((Product((S3, S2)), S2)))
        assert got == Product((S2, S2, S3))

    def test_idempotent(self):
        spaces = [
            POINT,
            Wedge((S2, Wedge((S1, Moore(direct_sum(Z, cyclic(4)), 2))), POINT)),
            Product((Wedge((S1, S1)), S3)),
            Moore(FgAbelianGroup(2), 4),
            EilenbergMacLane(Z, 1),
        ]
        for s in spaces:
            once = canonicalize(s)
            assert canonicalize(once) == once

    def test_single_child_wedge_collapses(self):
        assert canonicalize(Wedge((S2,))) == S2

    def test_helpers(self):
        assert wedge() == POINT
        assert wedge(S2) == S2
        assert product() == POINT
        assert product(S3) == S3
        assert isinstance(wedge(S1, S2), Wedge)
        assert isinstance(product(S1, S2), Product)


class TestHomology:
    def test_point(self):
        assert homology(POINT, 0) == Z
        assert homology(POINT, 1) == TRIVIAL

    def test_sphere_table(self):
        for k in range(1, 6):
            for n in range(0, 8):
                expected = Z if n in (0, k) else TRIVIAL
                assert homology(Sphere(k), n) == expected

    def test_cp2(self):
        assert homology(CP2, 2) == Z
        assert [homology(CP2, n) for n in range(6)] == [Z, TRIVIAL, Z, TRIVIAL, Z, TRIVIAL]

    def test_k_z5_1(self):
        k = EilenbergMacLane(cyclic(5), 1)
        assert homology(k, 3) == cyclic(5)
        assert homology(k, 0) == Z
        assert homology(k, 2) == TRIVIAL

    def test_wedge_degreewise(self):
        assert homology(Wedge((S2, S4)), 4) == Z
        assert homology(Wedge((S2, S2)), 2) == FgAbelianGroup(2)
        assert homology(Wedge((S2, S4)), 0) == Z

    def test_moore(self):
        m = Moore(FgAbelianGroup(0, (2, 4)), 3)
        assert homology(m, 3) == FgAbelianGroup(0, (2, 4))
        assert homology(m, 2) == TRIVIAL

    def test_product_kunneth_torsion_free(self):
        y = Product((S3, KZ2))
        assert homology(y, 5) == Z
        assert [homology(y, n) for n in range(7)] == [
            Z, TRIVIAL, Z, Z, Z, Z, Z,
        ]

    def test_product_kunneth_tor_term(self):
        # K(Z/2,1) x K(Z/2,1): H_2 is the single tensor term H_1 (x) H_1,
        # while H_3 collects H_0 (x) H_3, H_3 (x) H_0, and Tor(H_1, H_1)
        k = EilenbergMacLane(cyclic(2), 1)
        assert homology(Product((k, k)), 2) == cyclic(2)
        assert homology(Product((k, k)), 3) == FgAbelianGroup(0, (2, 2, 2))

    def test_torus_style_product(self):
        t = Product((S1, S1))
        assert homology(t, 0) == Z
        assert homology(t, 1) == FgAbelianGroup(2)
        assert homology(t, 2) == Z

    def test_unsupported_em(self):
        with pytest.raises(UnsupportedSpaceError):
            homology(EilenbergMacLane(cyclic(6), 2), 3)
        with pytest.raises(UnsupportedSpaceError):
            homology(EilenbergMacLane(FgAbelianGroup(2), 1), 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            homology(S2, -1)

    def test_k_z_1_supported_via_circle(self):
        assert homology(EilenbergMacLane(Z, 1), 1) == Z

    def test_high_degree_allocates_only_nonzero_degrees(self):
        tracemalloc.start()
        try:
            assert homology(Sphere(2_000_000), 2_000_000) == Z
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestProfiles:
    def test_sphere_profile(self):
        p = homology_profile(S2, 3)
        assert p.groups == (Z, TRIVIAL, Z, TRIVIAL)
        assert p.exact_above_bound
        assert homology(S2, 17) == TRIVIAL

    def test_cp2_profile(self):
        p = homology_profile(CP2, 4)
        assert p.groups == (Z, TRIVIAL, Z, TRIVIAL, Z)
        assert p.exact_above_bound

    def test_k_z2_1_profile_not_exact(self):
        p = homology_profile(EilenbergMacLane(cyclic(2), 1), 4)
        assert p.groups == (Z, cyclic(2), TRIVIAL, cyclic(2), TRIVIAL)
        assert not p.exact_above_bound
        assert homology(EilenbergMacLane(cyclic(2), 1), 5) == cyclic(2)

    def test_bound_below_dimension_is_not_exact(self):
        assert not homology_profile(S4, 2).exact_above_bound


class TestDimensionsAndSupport:
    def test_dimensions(self):
        assert homological_dimension(POINT) == 0
        assert homological_dimension(S3) == 3
        assert homological_dimension(CP2) == 4
        assert homological_dimension(Moore(cyclic(2), 5)) == 5
        assert homological_dimension(Wedge((S1, S4))) == 4
        assert homological_dimension(Product((S2, S3))) == 5
        assert homological_dimension(KZ2) is None
        assert homological_dimension(Product((S3, KZ2))) is None

    def test_support(self):
        assert homology(Product((S3, KZ2)), 0) == Z
        assert homology(EilenbergMacLane(cyclic(6), 1), 0) == Z
        with pytest.raises(UnsupportedSpaceError):
            homology(EilenbergMacLane(cyclic(6), 2), 0)
        with pytest.raises(UnsupportedSpaceError):
            homology(Wedge((S2, EilenbergMacLane(FgAbelianGroup(2), 1))), 0)
        # the trivial K-space canonicalizes to a point, which is supported
        assert homology(EilenbergMacLane(TRIVIAL, 3), 0) == Z
