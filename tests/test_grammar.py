import pytest

from homcap import (
    POINT,
    Z,
    ComplexProjective,
    DomainError,
    EilenbergMacLane,
    FgAbelianGroup,
    Moore,
    ParseError,
    Product,
    Sphere,
    Wedge,
    canonicalize,
    cyclic,
    free,
    parse_group,
    parse_space,
    render_group,
    render_space,
)


class TestGroupParsing:
    def test_basic_terms(self):
        assert parse_group("Z") == Z
        assert parse_group("0") == FgAbelianGroup()
        assert parse_group("Z/4") == cyclic(4)
        assert parse_group("Z^3") == free(3)

    def test_sums_normalize(self):
        assert parse_group("Z^2 + Z/4 + Z/6") == FgAbelianGroup(2, (2, 12))
        assert parse_group("Z/2+Z/3") == cyclic(6)
        assert parse_group("0 + Z") == Z

    def test_whitespace_insignificant(self):
        assert parse_group("  Z ^ 2+Z/ 4 ") == parse_group("Z^2 + Z/4")

    def test_cyclic_order_bounds(self):
        with pytest.raises(DomainError):
            parse_group("Z/1")
        with pytest.raises(DomainError):
            parse_group("Z/0")

    def test_parse_errors_carry_columns(self):
        with pytest.raises(ParseError) as err:
            parse_group("Z + + Z")
        assert err.value.column == 5
        with pytest.raises(ParseError):
            parse_group("Q")
        with pytest.raises(ParseError):
            parse_group("Z/")
        with pytest.raises(ParseError):
            parse_group("Z Z")


class TestSpaceParsing:
    def test_atoms(self):
        assert parse_space("*") == POINT
        assert parse_space("S^2") == Sphere(2)
        assert parse_space("CP^3") == ComplexProjective(3)
        assert parse_space("M(Z/4 + Z/2, 3)") == Moore(FgAbelianGroup(0, (2, 4)), 3)
        assert parse_space("K(Z, 2)") == EilenbergMacLane(Z, 2)
        assert parse_space("M(Z/4 + Z, 3)") == Moore(FgAbelianGroup(1, (4,)), 3)

    def test_wedge(self):
        assert parse_space("S^2 v S^4") == Wedge((Sphere(2), Sphere(4)))
        assert parse_space("S^1 v S^1 v S^2") == Wedge((Sphere(1), Sphere(1), Sphere(2)))

    def test_product_binds_tighter(self):
        got = parse_space("S^1 v S^2 x S^3")
        assert got == Wedge((Sphere(1), Product((Sphere(2), Sphere(3)))))

    def test_parentheses(self):
        got = parse_space("(S^1 v S^2) x S^3")
        assert got == Product((Wedge((Sphere(1), Sphere(2))), Sphere(3)))

    def test_not_canonicalized(self):
        assert parse_space("M(Z, 3)") == Moore(Z, 3)
        assert parse_space("S^2 v *") == Wedge((Sphere(2), POINT))

    def test_domain_errors(self):
        # each error names the column of the offending number
        for text, column in [
            ("M(Z, 1)", 6),
            ("CP^1", 4),
            ("S^0", 3),
            ("K(Z, 0)", 6),
            ("S^2 v M(Z, 1)", 12),
            ("CP^2 x S^" + "9" * 5000, 10),  # more digits than int() converts
            ("(" * 101 + "S^2" + ")" * 101, 101),  # the first parenthesis past the cap
            ("M(Z^10001, 2)", 5),  # a rank past MAX_RANK
            ("S^2 v M(Z + Z^99999999999999999999, 3)", 15),  # past the index size
        ]:
            with pytest.raises(DomainError, match=f"^column {column}: "):
                parse_space(text)
        assert parse_space("(" * 100 + "S^2" + ")" * 100) == Sphere(2)
        assert parse_group("Z^10000") == free(10_000)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_space("S2")
        with pytest.raises(ParseError):
            parse_space("S^2 v")
        with pytest.raises(ParseError):
            parse_space("M(Z 3)")
        with pytest.raises(ParseError):
            parse_space("S^2 S^3")
        with pytest.raises(ParseError) as err:
            parse_space("S^2 @ S^3")
        assert err.value.column == 5


class TestRendering:
    def test_group_rendering(self):
        assert render_group(FgAbelianGroup(2, (2, 12))) == "Z^2 + Z/2 + Z/12"
        assert render_group(FgAbelianGroup()) == "0"

    def test_group_round_trip(self):
        for g in [Z, free(4), cyclic(9), FgAbelianGroup(1, (2, 6, 12)), FgAbelianGroup()]:
            assert parse_group(render_group(g)) == g

    def test_space_round_trip(self):
        spaces = [
            POINT,
            Sphere(1),
            ComplexProjective(4),
            Moore(cyclic(4), 2),
            EilenbergMacLane(cyclic(3), 1),
            Wedge((Sphere(1), Sphere(2), Moore(cyclic(2), 2))),
            Product((Sphere(2), Sphere(3))),
            Wedge((Sphere(1), Product((Sphere(2), EilenbergMacLane(Z, 2))))),
        ]
        for s in spaces:
            assert parse_space(render_space(s)) == s

    def test_canonical_round_trip(self):
        texts = ["S^1 v S^2 v S^2", "M(Z^2 + Z/4, 3)", "S^3 x K(Z,2) v *"]
        for text in texts:
            canon = canonicalize(parse_space(text))
            assert parse_space(render_space(canon)) == canon

    def test_wedge_inside_product_is_parenthesized(self):
        space = Product((Wedge((Sphere(1), Sphere(2))), Sphere(3)))
        assert render_space(space) == "(S^1 v S^2) x S^3"
