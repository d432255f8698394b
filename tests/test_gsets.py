"""The brute-force G-set oracle: constructions, marks, orbit decomposition."""

import pytest

from btspec.errors import CapExceededError, ContainmentError
from btspec.gsets import (
    COINDUCE_CAP,
    coinduce,
    conjugate_gset,
    coset_space,
    fixed_points,
    induce,
    restrict_gset,
)
from btspec.lattice import bits_iter, fixed_bits, is_subset

from conftest import system_for
from oracles import (
    check_action,
    cosets,
    disjoint_union,
    fixed_point_identity_check,
    fixed_points_by_rows,
    orbit_decompose,
    product,
)


def sub_of_order(lattice, order, nth=0):
    found = [s for s in lattice.subgroups if s.order == order]
    return found[nth]


def full_bits(group):
    return (1 << group.order) - 1


class TestCosetSpaces:
    def test_s3_mod_c2_fixed_points(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, full_bits(g), c2.members)
        assert X.size == 3
        assert fixed_points(X, c2.members) == 1
        assert fixed_points(X, 1) == 3

    def test_free_action_no_fixed_points(self, sys_a4):
        g = sys_a4.group
        X = coset_space(g, full_bits(g), 1)
        for sub in sys_a4.lattice.subgroups:
            expected = 12 if sub.order == 1 else 0
            assert fixed_points(X, sub.members) == expected

    def test_actions_respect_group_law(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        for sub in lat.subgroups:
            check_action(coset_space(g, full_bits(g), sub.members))

    def test_containment_error(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        c3 = sub_of_order(lat, 3)
        with pytest.raises(ContainmentError):
            coset_space(g, c3.members, c2.members)


class TestOrbitDecompose:
    def test_transitive(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, full_bits(g), c2.members)
        decomp = orbit_decompose(X)
        assert len(decomp) == 1
        (stab, mult), = decomp
        assert mult == 1 and stab.order == 2

    def test_product_of_a4_mod_c3(self, sys_a4):
        # Frozen from a direct run of this oracle: 16 points split into one
        # free orbit and one orbit with stabilizer class C3.
        g, lat = sys_a4.group, sys_a4.lattice
        c3 = sub_of_order(lat, 3)
        X = coset_space(g, full_bits(g), c3.members)
        P = product(X, X)
        assert P.size == 16
        decomp = orbit_decompose(P)
        assert [(s.order, m) for s, m in decomp] == [(1, 1), (3, 1)]

    def test_empty_set(self, sys_s3):
        from btspec.gsets import GSet

        g = sys_s3.group
        empty = GSet(g, full_bits(g), 0, lambda h: [])
        assert orbit_decompose(empty) == []
        assert fixed_points(empty, full_bits(g)) == 0

    def test_burnside_counting(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        for sub in lat.subgroups:
            X = coset_space(g, full_bits(g), sub.members)
            total = 0
            for stab, mult in orbit_decompose(X):
                total += mult * (g.order // stab.order)
            assert total == X.size


class TestInduceCoinduce:
    def test_induce_c4_from_c2(self):
        sysg = system_for("C4")
        g, lat = sysg.group, sysg.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, c2.members, 1)  # C2/e
        ind = induce(full_bits(g), X)
        assert ind.size == 4
        assert fixed_points(ind, 1) == 4
        for sub in lat.subgroups:
            if sub.order > 1:
                assert fixed_points(ind, sub.members) == 0

    def test_induce_unit(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        one = coset_space(g, c2.members, c2.members)
        ind = induce(full_bits(g), one)
        cos = coset_space(g, full_bits(g), c2.members)
        assert ind.size == 3
        for sub in lat.subgroups:
            assert fixed_points(ind, sub.members) == fixed_points(cos, sub.members)

    def test_induce_additive(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c3 = sub_of_order(lat, 3)
        X = coset_space(g, c3.members, 1)
        Y = coset_space(g, c3.members, c3.members)
        both = induce(full_bits(g), disjoint_union(X, Y))
        split = disjoint_union(induce(full_bits(g), X), induce(full_bits(g), Y))
        assert both.size == split.size
        for sub in lat.subgroups:
            assert fixed_points(both, sub.members) == fixed_points(split, sub.members)

    def test_coinduce_c4_from_c2(self):
        # Frozen oracle values: Map_{C2}(C4, C2/e) has 4 points, marks (4,0,0).
        sysg = system_for("C4")
        g, lat = sysg.group, sysg.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, c2.members, 1)
        co = coinduce(full_bits(g), X)
        assert co.size == 4
        marks = [fixed_points(co, s.members) for s in lat.subgroups]
        assert marks == [4, 0, 0]

    def test_coinduce_s3_from_c3(self, sys_s3):
        # Frozen oracle values: Map_{C3}(S3, C3/e) has 9 points, marks (9,3,0,0)
        # over class representatives (e, C2, C3, S3).
        g, lat = sys_s3.group, sys_s3.lattice
        c3 = sub_of_order(lat, 3)
        X = coset_space(g, c3.members, 1)
        co = coinduce(full_bits(g), X)
        assert co.size == 9
        marks = [
            fixed_points(co, lat.subgroups[r].members) for r in lat.class_reps
        ]
        assert marks == [9, 3, 0, 0]

    def test_coinduce_unit(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        one = coset_space(g, c2.members, c2.members)
        co = coinduce(full_bits(g), one)
        assert co.size == 1
        assert fixed_points(co, full_bits(g)) == 1

    def test_coinduce_cap(self, sys_a4):
        # 3^12 = 531,441 points exceed COINDUCE_CAP; it raises before any row is built.
        g = sys_a4.group
        X = coset_space(g, 1, 1)
        three = disjoint_union(disjoint_union(X, X), X)
        assert three.size ** g.order > COINDUCE_CAP
        with pytest.raises(CapExceededError):
            coinduce(full_bits(g), three)

    def test_coinduce_action_law(self):
        sysg = system_for("C4")
        g, lat = sysg.group, sysg.lattice
        c2 = sub_of_order(lat, 2)
        check_action(coinduce(full_bits(g), coset_space(g, c2.members, 1)))


class TestRestrictConjugate:
    def test_restrict_s3_mod_c2_to_c3(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2, c3 = sub_of_order(lat, 2), sub_of_order(lat, 3)
        X = coset_space(g, full_bits(g), c2.members)
        R = restrict_gset(X, c3.members)
        assert R.size == 3
        assert fixed_points(R, c3.members) == 0
        assert fixed_points(R, 1) == 3

    def test_conjugate_by_identity(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, full_bits(g), c2.members)
        C = conjugate_gset(0, X)
        assert C.acting_bits == X.acting_bits
        for h in bits_iter(X.acting_bits):
            assert C.action_row(h) == X.action_row(h)

    def test_conjugate_marks_relabel(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        c2 = sub_of_order(lat, 2)
        X = coset_space(g, c2.members, 1)
        for t in range(g.order):
            C = conjugate_gset(t, X)
            check_action(C)
            assert C.size == X.size

    def test_product_with_free_absorbs(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        free = coset_space(g, full_bits(g), 1)
        X = coset_space(g, full_bits(g), sub_of_order(lat, 3).members)
        P = product(free, X)
        decomp = orbit_decompose(P)
        assert [(s.order, m) for s, m in decomp] == [(1, X.size)]


class TestFixedPointBitsets:
    """|X^I| as the popcount of an AND of per-element bitsets, against a count
    of every row of I, on each kind of set; restricted and conjugated sets
    read the bitsets of the set they came from."""

    @pytest.mark.parametrize("text", ["S3", "A4", "D6"])
    def test_every_construction(self, text):
        s = system_for(text)
        g, lat = s.group, s.lattice
        full = full_bits(g)
        for H in lat.subgroups:
            for J in lat.subgroups:
                if not is_subset(J.members, H.members):
                    continue
                X = coset_space(g, H.members, J.members)
                sets = [X, induce(full, X)]
                if (H.order // J.order) ** (g.order // H.order) <= 1296:
                    sets.append(coinduce(full, X))
                sets += [restrict_gset(sets[1], H.members), conjugate_gset(g.order - 1, X)]
                for Y in sets:
                    for I in lat.subgroups:
                        if is_subset(I.members, Y.acting_bits):
                            assert fixed_points(Y, I.members) == fixed_points_by_rows(Y, I.members)

    def test_shared_with_the_source_set(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        X = coset_space(g, full_bits(g), 1)  # 12 points: bitsets are not cached small ints
        k4 = sub_of_order(lat, 4).members
        R, C = restrict_gset(X, k4), conjugate_gset(5, X)
        for h in bits_iter(k4):
            assert R.fixed_bits(h) is X.fixed_bits(h)
        for k in range(g.order):
            h = g.mul_table[g.mul_table[g.inv[5]][k]][5]
            assert C.fixed_bits(k) is X.fixed_bits(h)
        with pytest.raises(ContainmentError):
            R.fixed_bits(next(x for x in range(g.order) if not k4 >> x & 1))


class TestSolvedFixedPoints:
    """Induced and coinduced sets solve for the points each element fixes
    without building a row; every solved bitset must be the one read off the
    element's action row, which stays the definition."""

    @pytest.mark.parametrize("text", ["S3", "A4", "D4", "Q8"])
    def test_against_action_rows(self, text):
        s = system_for(text)
        g, subgroups = s.group, s.lattice.subgroups
        for K in subgroups:
            for H in subgroups:
                if not is_subset(H.members, K.members):
                    continue
                for J in subgroups:
                    if is_subset(J.members, H.members):
                        X = coset_space(g, H.members, J.members)
                        for Y in (induce(K.members, X), coinduce(K.members, X)):
                            for k in bits_iter(K.members):
                                assert Y.fixed_bits(k) == fixed_bits(Y.action_row(k))

    def test_coinduced_near_the_cap(self):
        # Map_{D3}(D18, D3/e): 6^6 = 46,656 points.  The six digits move along
        # cycles of up to six cosets, with h in the nonabelian D3.
        s = system_for("D18")
        g = s.group
        mul = g.mul_table
        D3 = next(
            S.members for S in s.lattice.subgroups
            if S.order == 6 and any(mul[a][b] != mul[b][a]
                                    for a in bits_iter(S.members) for b in bits_iter(S.members))
        )
        X, full = coset_space(g, D3, 1), full_bits(g)
        assert coinduce(full, X).size == 6**6 <= COINDUCE_CAP
        for k in range(g.order):
            co = coinduce(full, X)  # a fresh set per k keeps one large row at a time
            assert co.fixed_bits(k) == fixed_bits(co.action_row(k))


class TestConjugationInvariance:
    @pytest.mark.parametrize("text", ["S3", "A4", "D4"])
    def test_marks_constant_on_conjugate_subgroups(self, text):
        # |X^I| = |X^{^gI}| for G-sets X with full G-action.
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        from btspec.lattice import conjugate_bits

        for sub in lat.subgroups:
            X = coset_space(g, full_bits(g), sub.members)
            for other in lat.subgroups:
                base = fixed_points(X, other.members)
                for t in range(g.order):
                    assert fixed_points(X, conjugate_bits(g, t, other.members)) == base


class TestFixedPointIdentity:
    def test_s3_example(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c3 = sub_of_order(lat, 3)
        assert fixed_point_identity_check(g, 1, c3.members, c3.members)

    def test_k_equals_g_trivial(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = sub_of_order(lat, 2)
        assert fixed_point_identity_check(g, c2.members, full_bits(g), c2.members)

    @pytest.mark.parametrize("text", ["S3", "A4"])
    def test_exhaustive_sweep(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        from btspec.lattice import is_subset

        for H in lat.subgroups:
            for K in lat.subgroups:
                if not is_subset(H.members, K.members):
                    continue
                for J in lat.subgroups:
                    assert fixed_point_identity_check(
                        g, H.members, K.members, J.members
                    )


# -- previous routes, kept as oracles ------------------------------------------


def coinduce_row_by_digits(K_bits, X, k):
    """Row of k on Map_H(K, X), decoding every point digit by digit."""
    group = X.group
    H_bits = X.acting_bits
    mul, inv = group.mul_table, group.inv
    sets = cosets(group, K_bits, H_bits, "right")
    reps = [min(c) for c in sets]
    m = len(reps)
    size = X.size**m
    coset_of = {x: j for j, c in enumerate(sets) for x in c}
    base = X.size
    powers = [base**i for i in range(m)]
    # (k.f)(t_i) = f(t_i k) = h_i . f(t_{j_i}) where t_i k = h_i t_{j_i}.
    route = []
    for t in reps:
        u = mul[t][k]
        j = coset_of[u]
        h = mul[u][inv[reps[j]]]
        route.append((j, X.action_row(h)))
    out = [0] * size
    for point in range(size):
        digits = []
        rem = point
        for _ in range(m):
            digits.append(rem % base)
            rem //= base
        val = 0
        for i, (j, xrow) in enumerate(route):
            val += xrow[digits[j]] * powers[i]
        out[point] = val
    return out


def coinduced_sets(text, max_size=1296):
    """(X, Map_H(G, X)) for X = H/J over class representatives H of G, J of H."""
    s = system_for(text)
    g, lat = s.group, s.lattice
    ringG = s.level(s.top_index)
    for h_idx in ringG.class_reps:
        H = lat.subgroups[h_idx]
        ringH = s.level(h_idx)
        for j_cls in range(ringH.num_classes):
            J = ringH.class_rep_subgroup(j_cls)
            if (H.order // J.order) ** (g.order // H.order) <= max_size:
                X = coset_space(g, H.members, J.members)
                yield X, coinduce(full_bits(g), X)


class TestAgainstPreviousRoutes:
    """Each coinduced set of S3, A4, S4 and D6 with at most 1296 points; S4's
    Map_{S3}(S4, S3/e) has 1296."""

    @pytest.mark.parametrize("text", ["S3", "A4", "S4", "D6"])
    def test_coinduced_rows_match_digit_route(self, text):
        for X, co in coinduced_sets(text):
            for k in bits_iter(co.acting_bits):
                assert list(co.action_row(k)) == coinduce_row_by_digits(co.acting_bits, X, k)

    @pytest.mark.parametrize("text", ["S3", "A4", "S4", "D6"])
    def test_fixed_points_match_all_elements(self, text):
        subgroups = system_for(text).lattice.subgroups
        for _, co in coinduced_sets(text):
            for sub in subgroups:
                assert fixed_points(co, sub.members) == fixed_points_by_rows(co, sub.members)

    def test_largest_s4_case_is_over_1000_points(self):
        assert max(co.size for _, co in coinduced_sets("S4")) == 1296
