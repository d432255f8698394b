"""Burnside/ghost ring arithmetic: marks tables, unmark, multiplication."""

import pytest
from hypothesis import given, settings, strategies as st

from btspec.burnside import BurnsideElement, GhostElement
from btspec.errors import NotInImageError
from btspec.gsets import coset_space, fixed_points, orbit_decompose, product

from conftest import C2_5, C840, CORPUS, system_for


class TestMarksTable:
    def test_c2(self):
        ring = system_for("C2").level(system_for("C2").top_index)
        assert ring.marks_matrix == [[2, 0], [1, 1]]

    def test_s3(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        assert ring.marks_matrix == [
            [6, 0, 0, 0],
            [3, 1, 0, 0],
            [2, 0, 2, 0],
            [1, 1, 1, 1],
        ]

    def test_trivial_group(self):
        s = system_for("C1")
        assert s.level(s.top_index).marks_matrix == [[1]]

    @pytest.mark.parametrize("text", CORPUS + ["GL3_2"])
    def test_triangular_positive_diagonal(self, text):
        sysg = system_for(text)
        ring = sysg.level(sysg.top_index)
        n = ring.num_classes
        det = 1
        for i in range(n):
            assert ring.marks_matrix[i][i] > 0
            det *= ring.marks_matrix[i][i]
            for j in range(i + 1, n):
                assert ring.marks_matrix[i][j] == 0
        assert det != 0

    @pytest.mark.parametrize("text", ["S3", "A4", "D4", "Q8", "D6", "S4"])
    def test_triangular_at_every_level(self, text):
        sysg = system_for(text)
        for cls in range(sysg.lattice.num_classes):
            ring = sysg.level(sysg.lattice.class_reps[cls])
            for i in range(ring.num_classes):
                assert ring.marks_matrix[i][i] > 0
                for j in range(i + 1, ring.num_classes):
                    assert ring.marks_matrix[i][j] == 0

    def test_zero_pattern_is_subconjugacy(self, sys_a4):
        # |(H/K)^I| != 0 exactly when I is subconjugate to K inside H.
        ring = sys_a4.level(sys_a4.top_index)
        lat = sys_a4.lattice
        for k in range(ring.num_classes):
            for i in range(ring.num_classes):
                nonzero = ring.marks_matrix[k][i] != 0
                subconj = lat.subconj[lat.class_of[ring.class_reps[i]]][
                    lat.class_of[ring.class_reps[k]]
                ]
                assert nonzero == subconj


def oracle_marks_matrix(ring):
    """|(H/K)^I| counted on the coset space H/K by the brute-force G-set engine."""
    H_bits = ring.subgroup.members
    reps = [ring.class_rep_subgroup(c).members for c in range(ring.num_classes)]
    spaces = [coset_space(ring.group, H_bits, K_bits) for K_bits in reps]
    return [[fixed_points(space, I_bits) for I_bits in reps] for space in spaces]


class TestMarksOracle:
    """The lattice formula for the table of marks against fixed-point counts."""

    @pytest.mark.parametrize("text", CORPUS + ["GL3_2", "A5", "D60"])
    def test_every_level(self, text):
        sysg = system_for(text)
        for cls in range(sysg.lattice.num_classes):
            ring = sysg.level(sysg.lattice.class_reps[cls])
            assert ring.marks_matrix == oracle_marks_matrix(ring)

    @pytest.mark.parametrize("text", ["S5", "A6", C2_5, C840])
    def test_top_level(self, text):
        sysg = system_for(text)
        ring = sysg.level(sysg.top_index)
        assert ring.marks_matrix == oracle_marks_matrix(ring)


class TestMarks:
    def test_basis_examples(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        assert ring.marks(ring.basis_element(1)).values == (3, 1, 0, 0)
        assert ring.marks(ring.one()).values == (1, 1, 1, 1)

    def test_linear_combination(self, sys_a4):
        # Frozen from the oracle: marks(2[A4/e] - [A4/K4]) over (e,C2,C3,K4,A4).
        ring = sys_a4.level(sys_a4.top_index)
        x = BurnsideElement(sys_a4.top_index, (2, 0, 0, -1, 0))
        assert ring.marks(x).values == (21, -3, 0, -3, 0)

    @pytest.mark.parametrize("text", ["C6", "S3", "D4", "A4"])
    def test_ring_homomorphism_on_basis(self, text):
        sysg = system_for(text)
        ring = sysg.level(sysg.top_index)
        n = ring.num_classes
        for i in range(n):
            xi = ring.basis_element(i)
            for j in range(n):
                xj = ring.basis_element(j)
                assert ring.marks(xi + xj) == ring.marks(xi) + ring.marks(xj)
                assert ring.marks(ring.multiply(xi, xj)) == ring.marks(xi) * ring.marks(xj)
        assert ring.marks(ring.one()).values == (1,) * n


class TestUnmark:
    def test_all_ones_is_unit(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        assert ring.unmark(ring.all_ones()) == ring.one()

    def test_triangular_solve_example(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        x = ring.unmark(GhostElement(sys_s3.top_index, (3, 1, 0, 0)))
        assert x == ring.basis_element(1)

    def test_not_in_image(self):
        s = system_for("C2")
        ring = s.level(s.top_index)
        with pytest.raises(NotInImageError) as exc:
            ring.unmark(GhostElement(s.top_index, (1, 0)))
        assert exc.value.class_index == 0

    @pytest.mark.parametrize("text", CORPUS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_roundtrip_random(self, text, data):
        sysg = system_for(text)
        for cls in range(sysg.lattice.num_classes):
            ring = sysg.level(sysg.lattice.class_reps[cls])
            coeffs = data.draw(
                st.tuples(
                    *(
                        st.integers(min_value=-50, max_value=50)
                        for _ in range(ring.num_classes)
                    )
                )
            )
            x = BurnsideElement(ring.level_index, coeffs)
            assert ring.unmark(ring.marks(x)) == x

    def test_roundtrip_100_seeded_per_level(self, sys_a4, sys_gl32):
        import random

        for sysg in (sys_a4, sys_gl32):
            levels = (
                [sysg.lattice.class_reps[c] for c in range(sysg.lattice.num_classes)]
                if sysg is sys_a4
                else [sysg.top_index]
            )
            rng = random.Random(0x5EED)
            for level in levels:
                ring = sysg.level(level)
                for _ in range(100):
                    coeffs = tuple(
                        rng.randint(-99, 99) for _ in range(ring.num_classes)
                    )
                    x = BurnsideElement(level, coeffs)
                    assert ring.unmark(ring.marks(x)) == x


class TestMultiply:
    def test_s3_c2_squared(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        sq = ring.multiply(ring.basis_element(1), ring.basis_element(1))
        assert sq.coeffs == (1, 1, 0, 0)

    def test_unit(self, sys_a4):
        ring = sys_a4.level(sys_a4.top_index)
        for i in range(ring.num_classes):
            x = ring.basis_element(i)
            assert ring.multiply(x, ring.one()) == x

    def test_free_absorption(self, sys_a4):
        # [H/e] * [H/K] = |K| independent: equals |H:K| copies of [H/e].
        ring = sys_a4.level(sys_a4.top_index)
        free = ring.basis_element(0)
        for i in range(ring.num_classes):
            k_order = ring.class_rep_subgroup(i).order
            expected = ring.basis_element(0).scale(12 // k_order)
            assert ring.multiply(free, ring.basis_element(i)) == expected

    @pytest.mark.parametrize("text", CORPUS)
    def test_double_coset_route_equals_ghost_route(self, text):
        sysg = system_for(text)
        for cls in range(sysg.lattice.num_classes):
            ring = sysg.level(sysg.lattice.class_reps[cls])
            for i in range(ring.num_classes):
                for j in range(ring.num_classes):
                    via_cosets = ring.multiply(ring.basis_element(i), ring.basis_element(j))
                    via_ghost = ring.unmark(
                        ring.marks(ring.basis_element(i)) * ring.marks(ring.basis_element(j))
                    )
                    assert via_cosets == via_ghost

    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_oracle_orbit_decomposition(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for cls in range(lat.num_classes):
            level_idx = lat.class_reps[cls]
            ring = sysg.level(level_idx)
            H_bits = lat.subgroups[level_idx].members
            for i in range(ring.num_classes):
                Xi = coset_space(g, H_bits, ring.class_rep_subgroup(i).members)
                for j in range(ring.num_classes):
                    Xj = coset_space(g, H_bits, ring.class_rep_subgroup(j).members)
                    decomp = orbit_decompose(product(Xi, Xj))
                    coeffs = [0] * ring.num_classes
                    for stab, mult in decomp:
                        coeffs[ring.class_of_bits(stab.members)] += mult
                    assert ring.multiply(
                        ring.basis_element(i), ring.basis_element(j)
                    ).coeffs == tuple(coeffs)


class TestElementValidation:
    def test_level_mismatch(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        other = GhostElement(0, (1,))
        with pytest.raises(ValueError):
            ring.unmark(other)
        with pytest.raises(ValueError):
            BurnsideElement(0, (1,)) + BurnsideElement(1, (1,))

    def test_wrong_length(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        with pytest.raises(ValueError):
            ring.element([1, 2])
