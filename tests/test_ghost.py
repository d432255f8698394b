"""Ghost structure maps, mark-map naturality, and the axiom verifier."""

import pytest

import btspec.ghost as ghost_mod
from btspec.burnside import BurnsideElement, GhostElement
from btspec.errors import ContainmentError
from btspec.ghost import GhostSystem, verify_axioms
from btspec.gsets import coinduce, coset_space, induce
from btspec.lattice import bits_iter, conjugate_bits, is_subset, left_cosets, right_cosets

from conftest import system_for
from oracles import cosets, double_coset_reps, double_coset_sets, fixed_cosets, nm_factors, tr_terms


@pytest.fixture()
def four_random(monkeypatch):
    """Four seeded random test vectors per level, as the pinned data were recorded."""
    monkeypatch.setattr(ghost_mod, "RANDOM_ELEMENTS", 4)


def sub_idx_of_order(lattice, order, nth=0):
    found = [i for i, s in enumerate(lattice.subgroups) if s.order == order]
    return found[nth]


class TestRes:
    def test_projection_c4(self):
        s = system_for("C4")
        c2 = sub_idx_of_order(s.lattice, 2)
        b = GhostElement(s.top_index, (4, 2, 1))
        assert s.ghost_res(s.top_index, c2, b).values == (4, 2)

    def test_identity(self, sys_s3):
        b = GhostElement(sys_s3.top_index, (7, -2, 3, 1))
        assert sys_s3.ghost_res(sys_s3.top_index, sys_s3.top_index, b) == b

    def test_oracle_restriction(self, sys_s3):
        # res^{S3}_{C3}(marks(S3/C2)) = marks of S3/C2 as a C3-set = (3, 0).
        c3 = sub_idx_of_order(sys_s3.lattice, 3)
        chi = GhostElement(sys_s3.top_index, (3, 1, 0, 0))
        assert sys_s3.ghost_res(sys_s3.top_index, c3, chi).values == (3, 0)

    def test_containment_error(self, sys_s3):
        c2 = sub_idx_of_order(sys_s3.lattice, 2)
        c3 = sub_idx_of_order(sys_s3.lattice, 3)
        with pytest.raises(ContainmentError):
            sys_s3.ghost_res(c3, c2, GhostElement(c3, (1, 1)))

    def test_is_ring_homomorphism(self, sys_a4):
        k4 = sub_idx_of_order(sys_a4.lattice, 4)
        a = GhostElement(sys_a4.top_index, (1, 2, 3, 4, 5))
        b = GhostElement(sys_a4.top_index, (-2, 0, 7, 1, 3))
        res = lambda v: sys_a4.ghost_res(sys_a4.top_index, k4, v)
        assert res(a * b) == res(a) * res(b)
        assert res(a + b) == res(a) + res(b)


class TestTr:
    def test_c4_from_c2(self):
        s = system_for("C4")
        c2 = sub_idx_of_order(s.lattice, 2)
        a = GhostElement(c2, (3, 5))
        assert s.ghost_tr(s.top_index, c2, a).values == (6, 10, 0)

    def test_s3_from_c3_is_marks_of_cosets(self, sys_s3):
        c3 = sub_idx_of_order(sys_s3.lattice, 3)
        assert sys_s3.ghost_tr(sys_s3.top_index, c3, GhostElement(c3, (1, 1))).values == (
            2, 0, 2, 0,
        )

    def test_additive(self, sys_a4):
        c3 = sub_idx_of_order(sys_a4.lattice, 3)
        a = GhostElement(c3, (2, -1))
        b = GhostElement(c3, (5, 3))
        tr = lambda v: sys_a4.ghost_tr(sys_a4.top_index, c3, v)
        assert tr(a + b) == tr(a) + tr(b)
        assert not any(tr(GhostElement(c3, (0, 0))).values)


class TestNm:
    def test_norm_from_trivial(self):
        s = system_for("C2")
        out = s.ghost_nm(s.top_index, 0, GhostElement(0, (7,)))
        assert out.values == (49, 7)

    def test_prime_power_tower(self, sys_a4):
        # nm_e^G(p) has coordinate p^{|G:I|} at I.
        s = sys_a4
        out = s.ghost_nm(s.top_index, 0, GhostElement(0, (2,)))
        ring = s.level(s.top_index)
        expected = tuple(
            2 ** (12 // ring.class_rep_subgroup(c).order) for c in range(ring.num_classes)
        )
        assert out.values == expected

    def test_c4_from_c2_matches_coinduction(self):
        s = system_for("C4")
        c2 = sub_idx_of_order(s.lattice, 2)
        assert s.ghost_nm(s.top_index, c2, GhostElement(c2, (2, 0))).values == (4, 0, 0)

    def test_s3_from_c3_matches_coinduction(self, sys_s3):
        c3 = sub_idx_of_order(sys_s3.lattice, 3)
        out = sys_s3.ghost_nm(sys_s3.top_index, c3, GhostElement(c3, (3, 0)))
        assert out.values == (9, 3, 0, 0)

    def test_multiplicative_unit(self, sys_a4):
        k4 = sub_idx_of_order(sys_a4.lattice, 4)
        ring = sys_a4.level(k4)
        ones = ring.all_ones()
        out = sys_a4.ghost_nm(sys_a4.top_index, k4, ones)
        assert out == sys_a4.level(sys_a4.top_index).all_ones()


class TestConj:
    def test_identity(self, sys_s3):
        c2 = sub_idx_of_order(sys_s3.lattice, 2)
        a = GhostElement(c2, (4, 9))
        assert sys_s3.ghost_conj(0, a) == a

    def test_levels_move(self, sys_s3):
        lat = sys_s3.lattice
        c2 = sub_idx_of_order(lat, 2)
        a = GhostElement(c2, (4, 9))
        for g in range(sys_s3.group.order):
            out = sys_s3.ghost_conj(g, a)
            target = conjugate_bits(sys_s3.group, g, lat.subgroups[c2].members)
            assert lat.subgroups[out.level].members == target
            assert out.values == (4, 9)

    def test_composition_sweep_a4(self, sys_a4):
        lat = sys_a4.lattice
        c3 = sub_idx_of_order(lat, 3)
        a = GhostElement(c3, (2, -7))
        mul = sys_a4.group.mul_table
        for g in range(12):
            for h in range(12):
                two = sys_a4.ghost_conj(g, sys_a4.ghost_conj(h, a))
                one = sys_a4.ghost_conj(mul[g][h], a)
                assert two == one


class TestRoutes:
    """res and conj routes are the tuples of source coordinates they read."""

    def test_plain_int_tuples(self, sys_s3):
        lat = sys_s3.lattice
        for K_idx in lat.class_reps:
            reps = sys_s3.level(K_idx).class_reps
            for H_idx in reps:
                route = sys_s3.res_route(K_idx, H_idx)
                assert type(route) is tuple and len(route) == sys_s3.level(H_idx).num_classes
                assert all(type(i) is int for i in route)
            for g in range(sys_s3.group.order):
                target_idx, route = sys_s3.conj_route(g, K_idx)
                assert type(target_idx) is int and type(route) is tuple
                assert all(type(i) is int for i in route)

    def test_one_class_level(self, sys_s3):
        # The trivial subgroup has one class, so its routes read one coordinate.
        triv = sub_idx_of_order(sys_s3.lattice, 1)
        top = sys_s3.top_index
        assert sys_s3.res_route(top, triv) == (0,)
        out = sys_s3.ghost_res(top, triv, GhostElement(top, (7, -2, 3, 1)))
        assert out == GhostElement(triv, (7,))
        for g in range(sys_s3.group.order):
            assert sys_s3.conj_route(g, triv) == (triv, (0,))
            assert sys_s3.ghost_conj(g, GhostElement(triv, (5,))) == GhostElement(triv, (5,))


class TestLevelCheck:
    """res, tr and nm check the element's level before they compile a route,
    so a wrong-level element is a ValueError even where H is not in K."""

    @pytest.mark.parametrize("name", ["ghost_res", "ghost_tr", "ghost_nm"])
    @pytest.mark.parametrize("K_order,H_order", [(6, 3), (3, 2)])  # C2 is not in C3
    def test_wrong_level_is_refused_first(self, name, K_order, H_order):
        from btspec.groups import group_from_text

        s = GhostSystem(group_from_text("S3"))
        K_idx, H_idx = (sub_idx_of_order(s.lattice, n) for n in (K_order, H_order))
        # res reads an element at K, tr and nm one at H; pass the other level.
        wrong, side = (H_idx, "K") if name == "ghost_res" else (K_idx, "H")
        a = GhostElement(wrong, (1,) * s.level(wrong).num_classes)
        with pytest.raises(ValueError, match=f"does not match {side}"):
            getattr(s, name)(K_idx, H_idx, a)
        assert not (s._res_routes or s._tr_routes or s._nm_routes)


class TestGhostMap:
    def test_free_orbit(self, sys_a4):
        ring = sys_a4.level(sys_a4.top_index)
        chi = sys_a4.ghost_map(ring.basis_element(0))
        assert chi.values == (12, 0, 0, 0, 0)

    def test_unit(self, sys_a4):
        ring = sys_a4.level(sys_a4.top_index)
        assert sys_a4.ghost_map(ring.one()).values == (1, 1, 1, 1, 1)

    def test_s3_c2_orbit(self, sys_s3):
        ring = sys_s3.level(sys_s3.top_index)
        assert sys_s3.ghost_map(ring.basis_element(1)).values == (3, 1, 0, 0)

    @pytest.mark.parametrize("text", ["S3", "A4", "D4"])
    def test_naturality_vs_oracle(self, text):
        # chi(tr x) = ghost-tr(chi x) and chi(nm x) = ghost-nm(chi x) on basis
        # orbits, with transfers/norms computed by the honest G-set oracle.
        s = system_for(text)
        g, lat = s.group, s.lattice
        for k_cls in range(lat.num_classes):
            K_idx = lat.class_reps[k_cls]
            K_bits = lat.subgroups[K_idx].members
            ringK = s.level(K_idx)
            for h_cls in range(ringK.num_classes):
                H_idx = ringK.class_reps[h_cls]
                H_bits = lat.subgroups[H_idx].members
                ringH = s.level(H_idx)
                for j_cls in range(ringH.num_classes):
                    X = coset_space(g, H_bits, ringH.class_rep_subgroup(j_cls).members)
                    chi = GhostElement(H_idx, tuple(ringH.marks_matrix[j_cls]))
                    assert s.ghost_tr(K_idx, H_idx, chi) == s.oracle_marks(
                        induce(K_bits, X), K_idx
                    )
                    co = coinduce(K_bits, X)
                    assert s.ghost_nm(K_idx, H_idx, chi) == s.oracle_marks(co, K_idx)


class TestBurnsideNm:
    def test_square_formula_at_c2(self):
        s = system_for("C2")
        for m in range(-6, 7):
            out = s.burnside_nm(s.top_index, 0, BurnsideElement(0, (m,)))
            assert out.coeffs == ((m * m - m) // 2, m)

    def test_unit_to_unit(self, sys_a4):
        k4 = sub_idx_of_order(sys_a4.lattice, 4)
        one = sys_a4.level(k4).one()
        assert sys_a4.burnside_nm(sys_a4.top_index, k4, one) == sys_a4.level(
            sys_a4.top_index
        ).one()

    def test_c4_free_orbit(self):
        s = system_for("C4")
        c2 = sub_idx_of_order(s.lattice, 2)
        out = s.burnside_nm(s.top_index, c2, BurnsideElement(c2, (1, 0)))
        assert out.coeffs == (1, 0, 0)

    @pytest.mark.parametrize("text", ["S3", "A4", "Q8"])
    def test_never_not_in_image(self, text):
        # Integrality of the ghost-routed norm on virtual elements.
        import random

        s = system_for(text)
        rng = random.Random(0x5EED)
        lat = s.lattice
        for k_cls in range(lat.num_classes):
            K_idx = lat.class_reps[k_cls]
            ringK = s.level(K_idx)
            for h_cls in range(ringK.num_classes):
                H_idx = ringK.class_reps[h_cls]
                ring = s.level(H_idx)
                for _ in range(20):
                    x = BurnsideElement(
                        H_idx,
                        tuple(rng.randint(-9, 9) for _ in range(ring.num_classes)),
                    )
                    out = s.burnside_nm(K_idx, H_idx, x)
                    assert isinstance(out, BurnsideElement)

    def test_agrees_with_oracle_coinduction_on_orbits(self, sys_s3):
        s = sys_s3
        g, lat = s.group, s.lattice
        c3 = sub_idx_of_order(lat, 3)
        ring = s.level(c3)
        ringG = s.level(s.top_index)
        for j in range(ring.num_classes):
            X = coset_space(g, lat.subgroups[c3].members, ring.class_rep_subgroup(j).members)
            co = coinduce((1 << g.order) - 1, X)
            expected = ringG.unmark(s.oracle_marks(co, s.top_index))
            assert s.burnside_nm(s.top_index, c3, ring.basis_element(j)) == expected


class FlippedTrSystem(GhostSystem):
    """Deliberate fault injection: uses ^k I where the transfer needs I^k."""

    def tr_term_classes(self, K_idx, H_idx, I_bits):
        group, H_bits = self.group, self._bits(H_idx)
        terms = (
            conjugate_bits(group, k, I_bits)  # wrong conjugation side
            for k in left_cosets(group, self._bits(K_idx), H_bits)[0]
        )
        return tuple(self.level(H_idx).class_of_bits(ik) for ik in terms if is_subset(ik, H_bits))


class FlippedNmSystem(GhostSystem):
    """Deliberate fault injection: uses ^g I where the norm needs I^g."""

    def nm_factor_classes(self, K_idx, H_idx, I_bits):
        group, H_bits = self.group, self._bits(H_idx)
        return tuple(
            self.level(H_idx).class_of_bits(conjugate_bits(group, g, I_bits) & H_bits)
            for g in double_coset_reps(group, I_bits, self._bits(K_idx), H_bits)
        )


# Recorded from the sweep before its loop invariants were hoisted: the first
# MAX_RECORDED_FAILURES failures (axiom, instance, detail) in check order, and
# the number suppressed after them, for each mutant with RANDOM_ELEMENTS = 4.
PINNED_FAILURES = {
    ("FlippedTrSystem", "A4"): (
        13,
        [
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 4}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 6}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 7}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 8}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#9(order 12)", "H": "subgroup#4(order 3)", "g": 10}, "a=(1, 1)"),
        ],
    ),
    ("FlippedTrSystem", "S4"): (
        722,
        [
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 5}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 8}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 9}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(1, 1)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(-9, 5)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(0, 9)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(2, 7)"),
            ("conjugacy_tr", {"K": "subgroup#21(order 6)", "H": "subgroup#4(order 2)", "g": 22}, "a=(-9, 6)"),
            ("conjugacy_tr", {"K": "subgroup#28(order 12)", "H": "subgroup#10(order 3)", "g": 1}, "a=(1, 1)"),
        ],
    ),
    ("FlippedNmSystem", "S3"): (
        0,
        [
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 3}, "a=(2, 0)"),
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 3}, "a=(-3, -1)"),
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 3}, "a=(-5, -3)"),
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 5}, "a=(2, 0)"),
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 5}, "a=(-3, -1)"),
            ("conjugacy_nm", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)", "g": 5}, "a=(-5, -3)"),
            ("weyl_constancy", {"K": "subgroup#5(order 6)", "H": "subgroup#1(order 2)"}, "a=(2, 0)"),
        ],
    ),
}

# With no recording limit: the number of failures and the sha256 of the JSON
# list of [axiom, instance, detail] in check order.
PINNED_ALL_FAILURES = {
    ("FlippedTrSystem", "A4"): (38, "18479df676c291583d5ee6de2d31fa688aaf7bd7a6c822e47e384764e663cc94"),
    ("FlippedTrSystem", "S4"): (747, "86660632c1c4454c8dc4e6221bd5246c2889b1f297ca5d6bce27371781069408"),
    ("FlippedNmSystem", "S3"): (7, "bb548b7c4e0bcf4b6ac93f8ff4c11e250ef2abb33ce29be827121382da17464f"),
}


class InverseConjSystem(GhostSystem):
    """Deliberate fault injection: c_g reads the route of c_{g^-1} wherever
    both land on the same level, so only the coordinates are misread."""

    def conj_route(self, g, H_idx):
        route = super().conj_route(g, H_idx)
        swapped = super().conj_route(self.group.inv[g], H_idx)
        return swapped if swapped[0] == route[0] else route


# As PINNED_ALL_FAILURES, for InverseConjSystem.  Its chi_conj failures recur
# for every K above the misread level, and must be recorded for each.
PINNED_CONJ_FAILURES = {
    "A4": (440, "bb2fe2eb1fc402c42364275bd666cf9f480185d42ab3e34f18f0cc3e5ac24d74"),
    "S4": (3031, "717e669d07276a49a6b74c1b40af407b9d42b3901a5e981751b121e673d47cce"),
}


class TestMutation:
    """The two conjugation conventions must not be interchangeable.

    With least-element coset representatives the transfer-side swap happens to
    produce identical routing tables on S3 (measured, not assumed), so that
    particular fault is only observable on larger groups; the norm-side swap
    is caught already on S3.
    """

    def test_flipped_transfer_is_invisible_on_s3(self, sys_s3):
        from btspec.groups import group_from_text

        bad = FlippedTrSystem(group_from_text("S3"))
        lat = bad.lattice
        for K_idx in range(len(lat.subgroups)):
            ringK = bad.level(K_idx)
            for h_cls in range(ringK.num_classes):
                H_idx = ringK.class_reps[h_cls]
                assert bad.tr_route(K_idx, H_idx) == sys_s3.tr_route(K_idx, H_idx)

    @pytest.mark.parametrize("text", ["A4", "S4"])
    def test_flipped_transfer_caught(self, text, four_random):
        from btspec.groups import group_from_text

        bad = FlippedTrSystem(group_from_text(text))
        report = verify_axioms(bad)
        assert not report.ok
        assert any(f.axiom == "conjugacy_tr" for f in report.failures)

    def test_flipped_norm_caught_on_s3(self, four_random):
        from btspec.groups import group_from_text

        bad = FlippedNmSystem(group_from_text("S3"))
        report = verify_axioms(bad)
        assert not report.ok
        assert any(f.axiom == "conjugacy_nm" for f in report.failures)

    def test_unflipped_passes_same_checks(self, sys_s3, monkeypatch):
        monkeypatch.setattr(ghost_mod, "RANDOM_ELEMENTS", 8)
        report = verify_axioms(
            sys_s3,
            axioms=("additive_double_coset", "conjugacy_tr", "conjugacy_nm"),
        )
        assert report.ok


class OffByOneMarksSystem(GhostSystem):
    """Deliberate fault injection: at every level H the table of marks counts
    |(H/e)^e| as |H| + 1.  The routing tables never read the marks, so only
    the chi_* checks, which count marks on concrete G-sets, can see it."""

    def level(self, sub_idx):
        fresh = sub_idx not in self._levels
        ring = super().level(sub_idx)
        if fresh:
            ring.marks_matrix[0][0] += 1
        return ring


class TestMarksMutant:
    def test_off_by_one_mark_fails_every_chi_check(self, monkeypatch, four_random):
        from btspec.groups import group_from_text

        monkeypatch.setattr(ghost_mod, "MAX_RECORDED_FAILURES", 10**9)
        report = verify_axioms(OffByOneMarksSystem(group_from_text("S4")))
        assert {f.axiom for f in report.failures} == {"chi_res", "chi_tr", "chi_nm", "chi_conj"}
        assert report.counts == verify_axioms(system_for("S4")).counts


class TestPinnedFailures:
    """The sweep records the same failures, in the same order, as it always has."""

    SYSTEMS = {"FlippedTrSystem": FlippedTrSystem, "FlippedNmSystem": FlippedNmSystem}

    @staticmethod
    def _report(name, text):
        from btspec.groups import group_from_text

        system = TestPinnedFailures.SYSTEMS[name](group_from_text(text))
        return verify_axioms(system)

    @pytest.mark.parametrize("name,text", list(PINNED_FAILURES))
    def test_recorded_failures(self, name, text, four_random):
        suppressed, failures = PINNED_FAILURES[name, text]
        report = self._report(name, text)
        assert [(f.axiom, f.instance, f.detail) for f in report.failures] == failures
        assert report.suppressed_failures == suppressed

    @pytest.mark.parametrize("name,text", list(PINNED_ALL_FAILURES))
    def test_all_failures(self, name, text, monkeypatch, four_random):
        import hashlib
        import json

        monkeypatch.setattr(ghost_mod, "MAX_RECORDED_FAILURES", 10**9)
        report = self._report(name, text)
        rows = [[f.axiom, f.instance, f.detail] for f in report.failures]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert (len(rows), digest) == PINNED_ALL_FAILURES[name, text]


    @pytest.mark.parametrize("text", sorted(PINNED_CONJ_FAILURES))
    def test_inverse_conj_failures(self, text, monkeypatch, four_random):
        import hashlib
        import json

        from btspec.groups import group_from_text

        monkeypatch.setattr(ghost_mod, "MAX_RECORDED_FAILURES", 10**9)
        report = verify_axioms(InverseConjSystem(group_from_text(text)))
        rows = [[f.axiom, f.instance, f.detail] for f in report.failures]
        assert any(row[0] == "chi_conj" for row in rows)
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert (len(rows), digest) == PINNED_CONJ_FAILURES[text]


# InverseConjSystem's failing instances per axiom on A4 with the default
# RANDOM_ELEMENTS: 2384 in all, of which the first 25 are recorded.
INVERSE_CONJ_A4_FAILED = {
    "conjugacy_res": 800, "conjugacy_tr": 784, "conjugacy_nm": 752, "chi_conj": 48,
}


class TestFailVerdicts:
    """An axiom fails iff any of its instances failed, whether or not that
    failure is among the recorded ones."""

    def test_json_marks_every_failing_axiom(self):
        from btspec.groups import group_from_text

        report = verify_axioms(InverseConjSystem(group_from_text("A4")))
        data = report.to_json_dict()
        failing = [a["axiom"] for a in data["axioms"] if a["status"] == "fail"]
        assert failing == list(INVERSE_CONJ_A4_FAILED)
        assert report.failed == INVERSE_CONJ_A4_FAILED
        assert data["ok"] is False and not report.ok
        assert len(data["violations"]) == ghost_mod.MAX_RECORDED_FAILURES
        assert report.suppressed_failures == 2359

    def test_cli_text_marks_every_failing_axiom(self, monkeypatch, capsys):
        import btspec.cli as cli_mod

        monkeypatch.setattr(cli_mod, "GhostSystem", InverseConjSystem)
        assert cli_mod.run(["verify", "A4", "--no-cache"]) == 1
        lines = capsys.readouterr().out.splitlines()
        axiom_lines, violations, last = lines[:-26], lines[-26:-1], lines[-1]
        assert [line.split()[0] for line in axiom_lines if line.endswith(" FAIL")] == list(
            INVERSE_CONJ_A4_FAILED
        )
        assert all(line.endswith((" pass", " FAIL")) for line in axiom_lines)
        assert all(line.startswith("VIOLATION ") for line in violations)
        assert last == "... and 2359 more violations"

    def test_failure_repr_names_axiom_and_witness(self):
        # ``assert report.ok, report.failures[:3]`` prints this repr.
        from btspec.groups import group_from_text

        first = verify_axioms(InverseConjSystem(group_from_text("A4"))).failures[0]
        assert first.axiom == "conjugacy_res" and first.detail.startswith("b=(")
        assert repr([first]) == (
            f"[AxiomFailure(axiom='conjugacy_res', instance={first.instance!r}, "
            f"detail={first.detail!r})]"
        )

    def test_json_counts_unlisted_violations(self):
        from btspec.groups import group_from_text

        data = verify_axioms(InverseConjSystem(group_from_text("A4"))).to_json_dict()
        assert len(data["violations"]) == ghost_mod.MAX_RECORDED_FAILURES
        assert data["suppressed_violations"] == 2359

    def test_json_omits_the_count_when_every_violation_is_listed(self, monkeypatch):
        from btspec.groups import group_from_text

        monkeypatch.setattr(ghost_mod, "MAX_RECORDED_FAILURES", 10**9)
        data = verify_axioms(InverseConjSystem(group_from_text("A4"))).to_json_dict()
        assert len(data["violations"]) == sum(INVERSE_CONJ_A4_FAILED.values())
        assert "suppressed_violations" not in data
        assert "suppressed_violations" not in verify_axioms(system_for("A4")).to_json_dict()


class TestVerify:
    @pytest.mark.parametrize("text", ["C1", "S3", "Q8", "A4"])
    def test_all_axioms_pass(self, text):
        report = verify_axioms(system_for(text))
        assert report.ok, report.failures[:3]
        assert report.total_instances > 0

    def test_report_serializes(self, sys_s3, four_random):
        report = verify_axioms(sys_s3)
        data = report.to_json_dict()
        assert data["ok"] is True
        assert data["group"] == "S3"
        assert all(a["status"] == "pass" for a in data["axioms"])

    def test_axiom_subset_filter(self, sys_s3):
        report = verify_axioms(sys_s3, axioms=("frobenius",))
        assert set(report.counts) == {"frobenius"}
        assert report.ok

    @pytest.mark.parametrize("axioms", [("res_functoriality",), ("frobenius",)])
    def test_no_double_cosets_unless_asked(self, monkeypatch, axioms):
        calls = []
        reps = GhostSystem.double_coset_reps
        monkeypatch.setattr(
            GhostSystem, "double_coset_reps", lambda self, *a: calls.append(a) or reps(self, *a)
        )
        report = verify_axioms(GhostSystem(system_for("S4").group), axioms=axioms)
        assert report.ok and set(report.counts) == set(axioms) and calls == []
        verify_axioms(system_for("S3"), axioms=("additive_double_coset",))
        assert calls


class ExtraTermSystem(GhostSystem):
    """Deliberate fault injection: at every nontrivial subgroup I, tr^K_H gains
    a term at the trivial subgroup, which no conjugate of I is."""

    def tr_term_classes(self, K_idx, H_idx, I_bits):
        terms = super().tr_term_classes(K_idx, H_idx, I_bits)
        return terms if I_bits == 1 else terms + (0,)


class DroppedLegSystem(GhostSystem):
    """Deliberate fault injection: nm^L_1 loses the last factor of its top
    coordinate for L the C2 class rep, a leg of the multiplicative
    double-coset formula wherever L meets a conjugate of H trivially."""

    def nm_route(self, K_idx, H_idx):
        route = super().nm_route(K_idx, H_idx)
        if (K_idx, H_idx) == (sub_idx_of_order(self.lattice, 2), 0):
            route = route[:-1] + (route[-1][:-1],)
        return route


def _misread_last(route):
    """``route`` reading source coordinate 0 at its last target."""
    return route[:-1] + (0,)


class MisreadResSystem(GhostSystem):
    """Deliberate fault injection: res^G_C2, for C2 the class rep, reads the
    trivial subgroup's coordinate at C2's own."""

    def res_route(self, K_idx, H_idx):
        route = super().res_route(K_idx, H_idx)
        if (K_idx, H_idx) == (self.top_index, sub_idx_of_order(self.lattice, 2)):
            route = _misread_last(route)
        return route


class MisreadConjSystem(GhostSystem):
    """Deliberate fault injection: c_g on the C2 class rep, for the least g
    normalizing C2 outside it, reads the trivial subgroup's coordinate at
    C2's own."""

    def conj_route(self, g, H_idx):
        target_idx, route = super().conj_route(g, H_idx)
        C2 = sub_idx_of_order(self.lattice, 2)
        bits = self.lattice.subgroups[C2].members
        g0 = next(
            x for x in range(self.group.order)
            if not bits >> x & 1 and conjugate_bits(self.group, x, bits) == bits
        )
        if (g, H_idx) == (g0, C2):
            route = _misread_last(route)
        return target_idx, route


def _loops_only(monkeypatch):
    """Make every identity decision fail, so each block runs its loop."""
    monkeypatch.setattr(ghost_mod.VerificationReport, "proved", lambda self, axiom, holds, n: False)


def _summary(report):
    return (
        list(report.counts.items()),
        [(f.axiom, f.instance, f.detail) for f in report.failures],
        report.suppressed_failures,
    )


class TestIdentityProofs:
    """Deciding a block on the routing tables gives the report the
    per-element loops give: counts in the same key order, the same failures
    in the same order, the same number suppressed."""

    MUTANTS = {
        "FlippedTrSystem": FlippedTrSystem,
        "FlippedNmSystem": FlippedNmSystem,
        "ExtraTermSystem": ExtraTermSystem,
        "DroppedLegSystem": DroppedLegSystem,
        "MisreadResSystem": MisreadResSystem,
        "MisreadConjSystem": MisreadConjSystem,
        "InverseConjSystem": InverseConjSystem,
    }

    @staticmethod
    def _both(make, axioms, monkeypatch):
        proved = _summary(verify_axioms(make(), axioms=axioms))
        with monkeypatch.context() as m:
            _loops_only(m)
            looped = _summary(verify_axioms(make(), axioms=axioms))
        return proved, looped

    @pytest.mark.parametrize("text", ["S3", "A4", "Q8", "D6", "S4"])
    def test_corpus_agrees_with_loops(self, text, monkeypatch, four_random):
        from btspec.groups import group_from_text

        proved, looped = self._both(lambda: GhostSystem(group_from_text(text)), None, monkeypatch)
        assert proved == looped
        assert not proved[1]

    @pytest.mark.parametrize("text", ["S3", "A4", "Q8"])
    def test_default_config_agrees_with_loops(self, text, monkeypatch):
        proved, looped = self._both(lambda: system_for(text), None, monkeypatch)
        assert proved == looped

    @pytest.mark.parametrize("cap", [25, 10**9])
    @pytest.mark.parametrize(
        "name,text",
        [
            ("FlippedTrSystem", "A4"),
            ("FlippedTrSystem", "S4"),
            ("FlippedNmSystem", "S3"),
            ("FlippedNmSystem", "A4"),
            ("ExtraTermSystem", "S3"),
            ("ExtraTermSystem", "Q8"),
            ("DroppedLegSystem", "S3"),
            ("DroppedLegSystem", "A4"),
            ("MisreadResSystem", "A4"),
            ("MisreadConjSystem", "A4"),
            # chi_conj fails at every K above the misread level, so its bulk
            # count falls back to the per-g loop again and again.
            ("InverseConjSystem", "A4"),
            ("InverseConjSystem", "S4"),
        ],
    )
    def test_mutants_agree_with_loops(self, name, text, cap, monkeypatch, four_random):
        from btspec.groups import group_from_text

        monkeypatch.setattr(ghost_mod, "MAX_RECORDED_FAILURES", cap)
        proved, looped = self._both(
            lambda: self.MUTANTS[name](group_from_text(text)), None, monkeypatch
        )
        assert proved == looped
        assert proved[1]

    # Subsets leave some of a block's axioms disabled, which then hold
    # without compiling a route.
    @pytest.mark.parametrize(
        "axioms",
        [("conjugacy_tr",), ("conjugacy_res", "conjugacy_nm"), ("chi_conj", "conj_functoriality")],
    )
    @pytest.mark.parametrize("name", ["GhostSystem", "InverseConjSystem", "MisreadConjSystem"])
    @pytest.mark.parametrize("text", ["A4", "S4"])
    def test_axiom_subsets_agree_with_loops(self, text, name, axioms, monkeypatch, four_random):
        from btspec.groups import group_from_text

        make = dict(self.MUTANTS, GhostSystem=GhostSystem)[name]
        proved, looped = self._both(lambda: make(group_from_text(text)), axioms, monkeypatch)
        assert proved == looped
        assert {axiom for axiom, _ in proved[0]} == set(axioms)
        if name == "GhostSystem":
            assert not proved[1]

    @pytest.mark.parametrize("text", ["S3", "A4"])
    def test_dropped_leg_reaches_the_fallback(self, text, monkeypatch, four_random):
        fallback_checks = []
        check = ghost_mod.VerificationReport.check

        def spy(self, axiom, ok, instance, detail=""):
            if axiom == "multiplicative_double_coset":
                fallback_checks.append(ok)
            check(self, axiom, ok, instance, detail)

        monkeypatch.setattr(ghost_mod.VerificationReport, "check", spy)
        from btspec.groups import group_from_text

        report = verify_axioms(
            DroppedLegSystem(group_from_text(text)),
            axioms=("multiplicative_double_coset",),
        )
        assert fallback_checks and not all(fallback_checks)
        assert {f.axiom for f in report.failures} == {"multiplicative_double_coset"}
        assert report.counts == verify_axioms(
            system_for(text),
            axioms=("multiplicative_double_coset",),
        ).counts


class TestCosets:
    """``lattice.left_cosets``/``right_cosets`` number the cosets kH and Hk of
    H inside K; ``GhostSystem`` memoizes K's action on the left ones and reads
    its double cosets off it.  Each must match the oracles: cosets built as sets, and
    double cosets covered element by element."""

    @pytest.mark.parametrize("text", ["S3", "A4", "Q8", "D6", "S4"])
    def test_match_lattice(self, text):
        s = system_for(text)
        g, lat = s.group, s.lattice
        for K_idx in lat.class_reps:
            K_bits = lat.subgroups[K_idx].members
            reps = s.level(K_idx).class_reps
            for H_idx in reps:
                H_bits = lat.subgroups[H_idx].members
                for side, numbered in (("left", left_cosets), ("right", right_cosets)):
                    sets = cosets(g, K_bits, H_bits, side)
                    assert numbered(g, K_bits, H_bits) == (
                        [min(c) for c in sets],
                        {x: i for i, c in enumerate(sets) for x in c},
                    )
                assert s._coset_action(K_idx, H_idx)[:2] == left_cosets(g, K_bits, H_bits)
                for L_idx in reps:
                    L_bits = lat.subgroups[L_idx].members
                    assert s.double_coset_reps(L_bits, K_idx, H_idx) == double_coset_reps(
                        g, L_bits, K_bits, H_bits
                    )

    @pytest.mark.parametrize("text", ["S3", "A4", "Q8", "D6", "S4"])
    def test_terms_at_every_subgroup(self, text):
        """At each class-rep pair H <= K and every subgroup I of K: the cosets
        I fixes, the double cosets I\\K/H and the tr and nm terms match
        cosets and double cosets built as sets and tested element by element."""
        s = system_for(text)
        g, lat = s.group, s.lattice
        for K_idx in lat.class_reps:
            K_bits = lat.subgroups[K_idx].members
            for H_idx in s.level(K_idx).class_reps:
                H_bits = lat.subgroups[H_idx].members
                _, _, _, fixed = s._coset_action(K_idx, H_idx)
                for I_idx in s.level(K_idx).sub_ids:
                    I_bits = lat.subgroups[I_idx].members
                    kept = (1 << len(s._coset_action(K_idx, H_idx)[0])) - 1
                    for x in bits_iter(I_bits):
                        kept &= fixed(x)
                    assert kept == fixed_cosets(g, K_bits, H_bits, I_bits)
                    assert s.double_coset_reps(I_bits, K_idx, H_idx) == [
                        min(d) for d in double_coset_sets(g, I_bits, K_bits, H_bits)
                    ]
                    assert s.tr_term_classes(K_idx, H_idx, I_bits) == tr_terms(s, K_idx, H_idx, I_bits)
                    assert s.nm_factor_classes(K_idx, H_idx, I_bits) == nm_factors(
                        s, K_idx, H_idx, I_bits
                    )

    def test_containment_is_checked(self, sys_s3):
        g = sys_s3.group
        c2 = sys_s3.lattice.subgroups[sub_idx_of_order(sys_s3.lattice, 2)].members
        c3 = sys_s3.lattice.subgroups[sub_idx_of_order(sys_s3.lattice, 3)].members
        for numbered in (left_cosets, right_cosets):
            with pytest.raises(ContainmentError):
                numbered(g, c3, c2)


def _axiom_sweep_script():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "axiom_sweep.py"
    spec = importlib.util.spec_from_file_location("axiom_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAxiomSweepScript:
    def test_small_groups_pass(self, capsys):
        module = _axiom_sweep_script()
        assert module.main(["S3", "A4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["S3", "A4", "total:"]
        assert all(line.endswith("ok") for line in lines[:2])

    def test_counts_every_violation(self, monkeypatch, capsys):
        module = _axiom_sweep_script()
        monkeypatch.setattr(module, "GhostSystem", InverseConjSystem)
        assert module.main(["A4"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith("  2384 VIOLATIONS")  # 25 recorded + 2359 suppressed
