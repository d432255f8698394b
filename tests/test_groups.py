"""Group parsing, realization, and determinism."""

import pytest
from hypothesis import given, strategies as st

from btspec.errors import OrderExceededError, SpecParseError, SpecRangeError
from btspec.groups import Permutation, group_from_text, parse_group_spec, realize


def random_permutation(draw, n):
    images = draw(st.permutations(range(n)))
    return Permutation(tuple(images))


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(lambda p: Permutation(tuple(p)))
)


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.is_identity() and p.degree == 4

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @given(perms)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*(st.permutations(range(n)).map(lambda x: Permutation(tuple(x))) for _ in range(3)))
    ))
    def test_associative(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    def test_from_cycles(self):
        p = Permutation.from_cycles([[0, 1, 2]], 4)
        assert p.images == (1, 2, 0, 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles([[0, 1], [1, 2]], 3)


class TestParse:
    def test_named_families(self):
        assert parse_group_spec("A4").kind == "alternating"
        assert parse_group_spec("D9").parameters == (9,)
        assert parse_group_spec("PSL2_7").kind == "psl2"
        assert parse_group_spec("GL3_2").kind == "gl3"

    def test_perm_spec(self):
        spec = parse_group_spec("perm:(0 1 2);(0 1)")
        assert spec.kind == "perm"
        assert len(spec.generators) == 2
        assert realize(spec).order == 6

    def test_parse_error_has_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_group_spec("perm:(0 1")
        assert exc.value.position >= 5
        with pytest.raises(SpecParseError):
            parse_group_spec("X7")
        with pytest.raises(SpecParseError):
            parse_group_spec("perm:(0 0 1)")

    def test_range_errors(self):
        with pytest.raises(SpecRangeError):
            parse_group_spec("Q6")
        with pytest.raises(SpecRangeError):
            parse_group_spec("Q10")
        with pytest.raises(SpecRangeError):
            parse_group_spec("C0")

    def test_canonical_text_roundtrip(self):
        for text in ["C6", "D9", "Q8", "S4", "A4", "PSL2_7", "GL3_2"]:
            assert parse_group_spec(text).canonical_text() == text


class TestRealize:
    @pytest.mark.parametrize(
        "text,order",
        [
            ("C1", 1),
            ("C6", 6),
            ("C12", 12),
            ("S3", 6),
            ("S4", 24),
            ("A4", 12),
            ("A5", 60),
            ("D4", 8),
            ("D6", 12),
            ("D9", 18),
            ("Q8", 8),
            ("Q12", 12),
            ("Q16", 16),
            ("GL3_2", 168),
            ("PSL2_7", 168),
            ("perm:(0 1);(2 3)", 4),
            ("perm:(0 1 2);(3 4 5)", 9),
        ],
    )
    def test_orders(self, text, order):
        assert group_from_text(text).order == order

    def test_q8_unique_involution(self):
        g = group_from_text("Q8")
        assert sum(1 for x in range(8) if g.element_order(x) == 2) == 1

    def test_q12_unique_involution(self):
        g = group_from_text("Q12")
        assert sum(1 for x in range(12) if g.element_order(x) == 2) == 1

    def test_d9_order_profile(self):
        g = group_from_text("D9")
        orders = sorted(g.element_order(x) for x in range(g.order))
        assert orders.count(2) == 9 and orders.count(9) == 6 and orders.count(3) == 2

    def test_identity_is_index_zero(self):
        g = group_from_text("S4")
        assert g.elements[0].is_identity()
        assert all(g.mul_table[0][x] == x for x in range(g.order))

    def test_tables_consistent(self):
        g = group_from_text("D4")
        for a in range(g.order):
            assert g.mul_table[a][g.inv[a]] == 0
            assert g.mul_table[g.inv[a]][a] == 0
            for b in range(g.order):
                expected = g.elements[a] * g.elements[b]
                assert g.elements[g.mul_table[a][b]] == expected

    def test_deterministic(self):
        g1 = group_from_text("S4")
        g2 = group_from_text("S4")
        assert [p.images for p in g1.elements] == [p.images for p in g2.elements]
        assert g1.mul_table == g2.mul_table

    def test_max_order_exceeded(self):
        with pytest.raises(OrderExceededError):
            realize(parse_group_spec("S4"), max_order=10)

    def test_trivial_group(self):
        g = group_from_text("C1")
        assert g.order == 1 and g.mul_table == [[0]]

    def test_cyclic_degree_is_prime_power_sum(self):
        assert group_from_text("C2000").degree == 16 + 125
        assert group_from_text("C6").degree == 2 + 3
