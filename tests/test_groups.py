"""Group parsing, realization, and determinism."""

import gc
import hashlib
import tracemalloc
from array import array

import pytest

from btspec.errors import OrderExceededError, SpecParseError, SpecRangeError
from btspec.groups import (
    MAX_DEGREE, MAX_ORDER, GroupSpec, group_from_text, parse_group_spec, prime_factors, realize,
)

from conftest import C2_S6, C840, CORPUS
from oracles import realize_by_pairs


class TestPermutation:
    """``perm:`` input is the one place permutations are validated."""

    def test_rejects_non_bijection(self):
        for text in ("perm:(0 0 1)", "perm:(0 1)(1 2)", "perm:(0 1);(2 3)(3 0)"):
            with pytest.raises(SpecParseError):
                parse_group_spec(text)

    def test_from_cycles(self):
        assert parse_group_spec("perm:(0 1 2)(3)").generators == ((1, 2, 0, 3),)
        assert parse_group_spec("perm:(2 0);(1 3)").generators == ((2, 1, 0, 3), (0, 3, 2, 1))
        # Space between the cycles of one generator is skipped.
        assert parse_group_spec("perm:(0 1) (2 3)") == parse_group_spec("perm:(0 1)(2 3)")
        with pytest.raises(SpecParseError, match="point 1 repeated across cycles"):
            parse_group_spec("perm:(0 1)(1 2)")


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


# Every named family at small sizes, keyed by spec letter or fixed text.
FAMILY_TEXTS = {
    "C": [f"C{n}" for n in range(1, 41)],
    "D": [f"D{n}" for n in range(1, 41)],
    "Q": [f"Q{n}" for n in range(8, 41, 4)],
    "S": [f"S{n}" for n in range(1, 7)],
    "A": [f"A{n}" for n in range(1, 8)],
    "PSL2_7": ["PSL2_7"],
    "GL3_2": ["GL3_2"],
}
# sha256 over each family's (text, kind, parameters, canonical text, degree,
# generators), mul_table rows and inverses, recorded before the families
# shared one table in groups.py.
FAMILY_SHA256 = {
    "C": "74e1d3efe7c18d5fbdaef2744790c5f953cfae0da43f4435cd1ae74b44b57c23",
    "D": "cc9365a4f92d01757bf793c2e02d168e89d9594e8ad1b2c8aa55bdfb71514f8b",
    "Q": "aba761b2288333f1b00cdd7fbf79c6a9797c2dc856b18d8cedc21fb87952cce3",
    "S": "01bcf0db3c3aa1d52536411d5dc0ba4a965ef1c3211d6014960787c1b5864a03",
    "A": "9742251808ddcd3d8a5ac22da595ae1c23f8eb802959e8e7c2c398ac9e517de7",
    "PSL2_7": "e85b90ca6ec1bd8934bd92dac374ec9d1f87a367078f9836534dcedebc01244e",
    "GL3_2": "fb1bfb9e5c6feb36afefe5a0dae16e8a0968c578f30a67095c929d84372767ef",
}
RANGE_MESSAGES = {
    "C0": "cyclic order must be >= 1",
    "D0": "dihedral parameter must be >= 1 (order 2n)",
    "Q6": "quaternion order must be a multiple of 4 and >= 8, got 6",
    "Q10": "quaternion order must be a multiple of 4 and >= 8, got 10",
    "S0": "symmetric degree must be >= 1",
    "A0": "alternating degree must be >= 1",
}


class TestFamilyPins:
    """The named families' groups, spec kinds, canonical texts and range
    messages, pinned byte for byte."""

    @pytest.mark.parametrize("family", sorted(FAMILY_TEXTS))
    def test_family_digest(self, family):
        digest = hashlib.sha256()
        for text in FAMILY_TEXTS[family]:
            spec = parse_group_spec(text)
            g = realize(spec, MAX_ORDER)
            head = (text, spec.kind, spec.parameters, spec.canonical_text(), g.degree, g.generators)
            digest.update(repr(head).encode())
            for row in g.mul_table:
                digest.update(repr(list(row)).encode())
            digest.update(repr(g.inv).encode())
        assert digest.hexdigest() == FAMILY_SHA256[family]

    @pytest.mark.parametrize("text", sorted(RANGE_MESSAGES))
    def test_range_message(self, text):
        with pytest.raises(SpecRangeError) as exc:
            parse_group_spec(text)
        assert str(exc.value) == RANGE_MESSAGES[text]


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
            ("perm:(0 1) (2 3)", 2),
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

    @pytest.mark.parametrize("text", ["S4", "D60", "Q16", C840])
    def test_element_orders_match_power_counts(self, text):
        # element_order fills in the orders of all powers of x as it walks them;
        # ask in a scrambled order so most answers come from such fills.
        g = group_from_text(text)
        want = []
        for x in range(g.order):
            power, k = x, 1
            while power:
                power, k = g.mul_table[power][x], k + 1
            want.append(k)
        asked = sorted(range(g.order), key=lambda x: (x * 7919) % g.order)
        assert {x: g.element_order(x) for x in asked} == dict(enumerate(want))

    def test_identity_is_index_zero(self):
        g = group_from_text("S4")
        assert tuple(range(g.degree)) not in g.generators and g.inv[0] == 0
        assert all(g.mul_table[0][x] == x == g.mul_table[x][0] for x in range(g.order))

    def test_tables_consistent(self):
        # The corpus groups all have an automorphism inverting every generator, so
        # their tables cannot tell x * g from g * x; the Frobenius group of order 21,
        # z -> z + 1 and z -> 2z mod 7, has none.
        for text in CORPUS + [C840, "perm:(0 1 2 3 4 5 6);(1 2 4)(3 6 5)"]:
            g = group_from_text(text)
            want = realize_by_pairs(g.spec)
            got = {key: getattr(g, key) for key in want}
            got["mul_table"] = [list(row) for row in g.mul_table]
            assert got == want, text

    def test_deterministic(self):
        # sha256 of repr(mul_table) and repr(inv), recorded with the realize that
        # kept one validated permutation object per element.
        for text, mul, inv in (
            ("D1000", "b11ab3cc260e25b864161f0492cbcc48f4672fb451ed313469126b90b4d9e276",
             "928472d779ffa0b791be3c16de9ca2017c33962ea2798a3dfff84d659722ded6"),
            (C2_S6, "fafc4f115ec428ab8b292f3325438a384037904688a647da4ee21bed9253d2fe",
             "c2d626166f317014ec4a3d63683bc915544fea5f3555cb10345a8f6e80c7534c"),
        ):
            g = group_from_text(text)
            rows = [list(row) for row in g.mul_table]
            assert hashlib.sha256(repr(rows).encode()).hexdigest() == mul, text
            assert hashlib.sha256(repr(g.inv).encode()).hexdigest() == inv, text

    def test_degree_checked_without_the_parser(self):
        # A GroupSpec built by hand skips parse_group_spec's degree check; realize
        # refuses it before any element is built.
        cycle = (*range(1, MAX_DEGREE + 1), 0)
        with pytest.raises(SpecRangeError):
            realize(GroupSpec("perm", (), (cycle,)))

    def test_max_order_exceeded(self):
        with pytest.raises(OrderExceededError):
            realize(parse_group_spec("S4"), max_order=10)

    def test_trivial_group(self):
        g = group_from_text("C1")
        assert g.order == 1 and [list(row) for row in g.mul_table] == [[0]]

    def test_cyclic_degree_is_prime_power_sum(self):
        assert group_from_text("C2000").degree == 16 + 125
        assert group_from_text("C6").degree == 2 + 3


class TestTableStorage:
    """``mul_table`` rows are two-byte arrays: a quarter of a list's memory,
    and the garbage collector walks none of their entries."""

    @pytest.mark.parametrize("text", ["C1", "C2", "S4", "A6", C840])
    def test_rows_are_two_byte_arrays(self, text):
        g = group_from_text(text)
        assert len(g.mul_table) == g.order
        for row in g.mul_table:
            assert isinstance(row, array) and row.typecode == "H" and len(row) == g.order
            # An array is tracked from CPython 3.10 on, but a collection visits
            # only its type, where a list row's visits are one per entry.
            assert gc.get_referents(row) == [array]

    def test_every_index_fits_two_bytes(self):
        assert array("H").itemsize == 2 and MAX_ORDER < 2**16

    def test_d1000_peak_memory(self):
        # List rows of 8-byte references peak at about 33 MB here; the rows
        # alone take 8 MB as arrays.
        spec = parse_group_spec("D1000")
        tracemalloc.start()
        try:
            realize(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000


class TestGenConjugations:
    """Conjugation maps are kept only for generators outside the centre."""

    def test_abelian_group_has_none(self):
        group = group_from_text(C840)
        assert group.gen_conjugations == [] and group.is_abelian

    def test_central_generator_conjugates_nothing(self):
        # (0 1) is central in C2 x S3; (2 3 4) and (2 3) are not.
        group = group_from_text("perm:(0 1);(2 3 4);(2 3)")
        mul, inv, n = group.mul_table, group.inv, group.order
        maps = [[mul[mul[s][x]][inv[s]] for x in range(n)] for s in group.gen_indices]
        assert len(maps) == 3 and not group.is_abelian
        assert group.gen_conjugations == [m for m in maps if m != list(range(n))]
        assert len(group.gen_conjugations) == 2


def test_prime_factors():
    for n in range(1, 5000):
        want = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        assert prime_factors(n) == want, n
