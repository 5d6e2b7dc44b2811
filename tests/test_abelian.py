import random
from fractions import Fraction

import pytest

from homcap import (
    TRIVIAL,
    Z,
    FgAbelianGroup,
    IntMatrix,
    count_direct_summands,
    cyclic,
    direct_sum,
    enumerate_direct_summands,
    from_presentation,
    primary_decomposition,
    smith_normal_form,
    tensor,
    tor,
)
from oracles import (
    brute_force_summands,
    bruteforce_bijection_isomorphic,
    bruteforce_isomorphic,
    det,
    determinant_divisor_diagonal,
    diagonal,
    matrix,
    presentation_matrix,
    snf_is_valid,
    tensor_by_presentation,
    tor_of_cyclics_by_kernel,
)


class TestSmithNormalForm:
    def test_identity(self):
        m = diagonal([1, 1, 1], 3, 3)
        u, d, v = smith_normal_form(m)
        assert d == m and u == m and v == m

    def test_two_by_two(self):
        m = matrix([[2, 4], [6, 8]])
        diag = snf_is_valid(m)
        # gcd of entries is 2 and |det| = 8, forcing diag(2, 4)
        assert diag == [2, 4]
        assert determinant_divisor_diagonal(m) == [2, 4]

    def test_zero_one_by_one(self):
        m = matrix([[0]])
        assert smith_normal_form(m) == (matrix([[1]]), m, matrix([[1]]))

    @pytest.mark.parametrize(
        "rows",
        [
            [[6]],
            [[2, 0], [0, 3]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[0, 0], [0, 0]],
            [[5, 10, 15]],
            [[-3], [9], [0]],
            [[12, 8], [20, 14], [6, 2]],
            # balanced quotients: entries at exactly +-d/2 round to a tie
            [[4, 2], [-2, 6]],
            [[2, 1, -1], [1, 2, 1]],
            [[6, 3, -3], [-3, 9, 3], [3, -3, 12]],
            # all-negative columns
            [[-4, 3], [-6, 5], [-10, 1]],
            [[-3, -6], [-9, -4]],
            # single rows and columns
            [[4, -6, 10, -2]],
            [[6], [-9], [15], [3]],
            # entries past 64 bits
            [[2**70 + 1, -(2**70 + 1)], [2**70 + 1, 2]],
            [[-(2**70 + 1), 4, 6], [2, 2**70 + 1, -(2**70 + 1)]],
        ],
    )
    def test_agrees_with_determinant_divisors(self, rows):
        m = matrix(rows)
        diag = determinant_divisor_diagonal(m)
        assert snf_is_valid(m) == diag
        nonzero = [e for e in diag if e]
        expected = FgAbelianGroup(m.rows - len(nonzero), tuple(e for e in nonzero if e > 1))
        assert from_presentation(m) == expected

    @pytest.mark.parametrize("shape", [(20, 20), (12, 30), (30, 12)])
    def test_disguised_presentations_at_benchmark_scale(self, shape):
        # a known diagonal hidden by random row and column additions must
        # come back from both entry points
        nr, nc = shape
        rng = random.Random(sum(shape))
        for chain in [(2, 6, 30), (3, 3, 12), (4,), (), (5, 10, 10, 20, 60)]:
            for zeros in range(3):
                diag = [1] * (min(shape) - len(chain) - zeros) + list(chain) + [0] * zeros
                a = diagonal(diag, nr, nc).to_rows()
                for _ in range(2 * nr):
                    (i, j), c = rng.sample(range(nr), 2), rng.choice((-1, 1))
                    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
                for _ in range(2 * nc):
                    (i, j), c = rng.sample(range(nc), 2), rng.choice((-1, 1))
                    for row in a:
                        row[i] += c * row[j]
                m = matrix(a)
                assert from_presentation(m) == FgAbelianGroup(nr - min(shape) + zeros, chain)
                assert snf_is_valid(m) == diag

    def test_empty_shapes(self):
        for rows, cols in [(2, 0), (0, 3), (0, 0)]:
            m = IntMatrix(rows, cols, ())
            u, d, v = smith_normal_form(m)
            assert (d.rows, d.cols) == (rows, cols)
            assert (u.rows, u.cols) == (rows, rows)
            assert (v.rows, v.cols) == (cols, cols)
            assert snf_is_valid(m) == []


class TestIntMatrix:
    def test_entry_count_is_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            matrix([[1, 2], [3]])

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(-1, 2, ())

    def test_det(self):
        assert det(matrix([[2, 4], [6, 8]])) == -8
        assert det(diagonal([1] * 4, 4, 4)) == 1
        assert det(matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
        assert det(IntMatrix(0, 0, ())) == 1


# int() would truncate each of these; the constructors take exact integers only
@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix(1, 1, (2.5,)),
        lambda: IntMatrix(1, 2, (2, "7")),
        lambda: IntMatrix(1.0, 1, (2,)),
        lambda: IntMatrix(1, Fraction(1), (2,)),
        lambda: FgAbelianGroup(0, (2.9,)),
        lambda: FgAbelianGroup(1.5),
        lambda: FgAbelianGroup.from_orders(2.7, 6),
        lambda: FgAbelianGroup.from_orders(Fraction(6)),
    ],
)
def test_non_integers_are_rejected(make):
    with pytest.raises(TypeError):
        make()


class TestCanonicalForm:
    def test_factor_one_rejected(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1, 2))

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (2, 3))

    def test_from_orders_normalizes(self):
        assert FgAbelianGroup.from_orders(2, 3) == cyclic(6)
        assert FgAbelianGroup.from_orders(4, 6) == FgAbelianGroup(0, (2, 12))
        assert FgAbelianGroup.from_orders(0, 30, 4) == FgAbelianGroup(1, (2, 60))
        assert FgAbelianGroup.from_orders(12, 60) == FgAbelianGroup(0, (12, 60))
        assert FgAbelianGroup.from_orders(1, 1) == TRIVIAL

    def test_literal_rendering(self):
        assert str(TRIVIAL) == "0"
        assert str(Z) == "Z"
        assert str(FgAbelianGroup(3)) == "Z^3"
        assert str(FgAbelianGroup(2, (4, 12))) == "Z^2 + Z/4 + Z/12"


class TestPresentations:
    def test_single_relation(self):
        assert from_presentation(matrix([[6]])) == cyclic(6)

    def test_diagonal_two_three(self):
        g = from_presentation(matrix([[2, 0], [0, 3]]))
        assert g == cyclic(6)
        assert bruteforce_bijection_isomorphic((2, 3), (6,))

    def test_no_relations(self):
        assert from_presentation(IntMatrix(2, 0, ())) == FgAbelianGroup(2)

    def test_surplus_zero_relations(self):
        g = from_presentation(matrix([[4, 0], [0, 0]]))
        assert g == FgAbelianGroup(1, (4,))

    def test_round_trip_through_presentation_matrix(self):
        for g in [TRIVIAL, Z, cyclic(6), FgAbelianGroup(2, (2, 4)), FgAbelianGroup(3)]:
            assert from_presentation(presentation_matrix(g)) == g


class TestIsomorphismAndSums:
    def test_reflexive(self):
        assert Z == Z

    def test_crt_pair(self):
        assert FgAbelianGroup.from_orders(2, 3) == cyclic(6)
        assert bruteforce_bijection_isomorphic((2, 3), (6,))

    def test_free_vs_torsion(self):
        assert Z != cyclic(2)

    def test_direct_sum_identity(self):
        assert direct_sum(Z, TRIVIAL) == Z

    def test_direct_sum_coprime(self):
        assert direct_sum(cyclic(2), cyclic(3)) == cyclic(6)

    def test_direct_sum_recombines(self):
        g = direct_sum(cyclic(4), cyclic(6))
        assert g == FgAbelianGroup(0, (2, 12))
        assert bruteforce_isomorphic((4, 6), (2, 12))
        assert not bruteforce_isomorphic((4, 6), (24,))

    def test_direct_sum_variadic(self):
        assert direct_sum() == TRIVIAL
        assert direct_sum(Z, cyclic(2), cyclic(2)) == FgAbelianGroup(1, (2, 2))


class TestPrimaryDecomposition:
    def test_six(self):
        assert primary_decomposition(cyclic(6)) == {(2, 1): 1, (3, 1): 1}

    def test_two_group(self):
        assert primary_decomposition(FgAbelianGroup(0, (2, 4))) == {(2, 1): 1, (2, 2): 1}

    def test_free(self):
        assert primary_decomposition(FgAbelianGroup(2)) == {}

    def test_round_trip(self):
        for g in [TRIVIAL, Z, cyclic(12), FgAbelianGroup(1, (2, 2, 4)), FgAbelianGroup(2)]:
            pieces = [p**e for (p, e), m in primary_decomposition(g).items() for _ in range(m)]
            assert FgAbelianGroup.from_orders(*pieces, *[0] * g.free_rank) == g


class TestSummandCounting:
    def test_infinite_cyclic(self):
        assert count_direct_summands(Z) == 2

    def test_trivial(self):
        assert count_direct_summands(TRIVIAL) == 1

    def test_eight_elements(self):
        g = FgAbelianGroup(0, (2, 4))
        assert count_direct_summands(g) == 4
        assert enumerate_direct_summands(g) == [
            TRIVIAL,
            cyclic(2),
            cyclic(4),
            g,
        ]

    def test_mixed_rank(self):
        assert count_direct_summands(direct_sum(FgAbelianGroup(2), cyclic(6))) == 12

    def test_enumerate_infinite_cyclic(self):
        assert enumerate_direct_summands(Z) == [TRIVIAL, Z]

    def test_enumerate_trivial(self):
        assert enumerate_direct_summands(TRIVIAL) == [TRIVIAL]

    def test_enumeration_matches_count(self):
        for g in [cyclic(12), FgAbelianGroup(1, (2, 2, 4)), FgAbelianGroup(3), cyclic(30)]:
            classes = enumerate_direct_summands(g)
            assert len(classes) == count_direct_summands(g)
            assert len(set(classes)) == len(classes)


class TestBruteForceOracle:
    def test_cyclic_four(self):
        # Z/2 sits inside Z/4 but has no complement there
        assert brute_force_summands(cyclic(4)) == [TRIVIAL, cyclic(4)]

    def test_klein(self):
        g = FgAbelianGroup(0, (2, 2))
        assert brute_force_summands(g) == [TRIVIAL, cyclic(2), g]

    def test_trivial(self):
        assert brute_force_summands(TRIVIAL) == [TRIVIAL]

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            brute_force_summands(Z)

    def test_agrees_with_formula_on_awkward_groups(self):
        for g in [
            cyclic(8),
            FgAbelianGroup(0, (2, 4)),
            FgAbelianGroup(0, (2, 2, 2)),
            cyclic(36),
            FgAbelianGroup(0, (6, 6)),
            FgAbelianGroup(0, (2, 2, 4)),
        ]:
            classes = brute_force_summands(g)
            assert classes == enumerate_direct_summands(g)
            assert len(classes) == count_direct_summands(g)


class TestTensorAndTor:
    def test_tensor_unit(self):
        assert tensor(Z, cyclic(6)) == cyclic(6)

    def test_tensor_gcd(self):
        assert tensor(cyclic(4), cyclic(6)) == cyclic(2)
        assert tensor_by_presentation(cyclic(4), cyclic(6)) == cyclic(2)

    def test_tensor_free_ranks_multiply(self):
        assert tensor(FgAbelianGroup(2), FgAbelianGroup(3)) == FgAbelianGroup(6)

    def test_tensor_against_presentation_oracle(self):
        groups = [TRIVIAL, Z, cyclic(4), cyclic(6), FgAbelianGroup(1, (2,)), FgAbelianGroup(2)]
        for a in groups:
            for b in groups:
                assert tensor(a, b) == tensor_by_presentation(a, b)

    def test_tor_free_first_argument(self):
        for g in [TRIVIAL, Z, cyclic(6), FgAbelianGroup(2, (2, 4))]:
            assert tor(Z, g) == TRIVIAL
            assert tor(FgAbelianGroup(3), g) == TRIVIAL

    def test_tor_gcd_with_kernel_oracle(self):
        for m, n in [(4, 6), (9, 27), (5, 7), (12, 18)]:
            assert tor(cyclic(m), cyclic(n)) == tor_of_cyclics_by_kernel(m, n)

    def test_tor_distributes(self):
        a = FgAbelianGroup(0, (2, 4))
        b = cyclic(6)
        expected = direct_sum(tor(cyclic(2), b), tor(cyclic(4), b))
        assert tor(a, b) == expected
