"""Subgroup lattice enumeration, conjugacy classes, residuals, double cosets."""

import pytest

from btspec.lattice import (
    bits_iter,
    closure,
    conjugate_bits,
    fixed_bits,
    generating_set,
    is_subset,
    left_cosets,
    p_residual_bits,
)
from btspec.spectrum import prime_factors

from conftest import C840, CORPUS, labels_for, system_for
from oracles import double_coset_reps, normalizer_bits


def p_residual_normal_oracle(lattice, H, p):
    """Independent route to O^p(H): intersect all normal subgroups of H of p-power index.

    Quadratic in the number of subgroups of H.
    """
    group = lattice.group
    h_idx = lattice.subgroup_index(H.members)
    acc = H.members
    for idx in lattice.subgroups_within(h_idx):
        nb = lattice.subgroups[idx].members
        quotient = H.order // lattice.subgroups[idx].order
        q = quotient
        while q % p == 0:
            q //= p
        if q != 1:
            continue
        if all(conjugate_bits(group, h, nb) == nb for h in bits_iter(H.members)):
            acc &= nb
    return lattice.subgroups[lattice.subgroup_index(acc)]


def p_residual_all_generators_oracle(group, H_bits, p):
    """Bitset of O^p(H) as the closure of every p'-element of H at once."""
    return closure(group, [x for x in bits_iter(H_bits) if group.element_order(x) % p != 0])


class TestEnumeration:
    def test_s3_counts(self, sys_s3):
        assert len(sys_s3.lattice.subgroups) == 6
        assert sys_s3.lattice.num_classes == 4

    def test_a4_counts(self, sys_a4):
        lat = sys_a4.lattice
        assert len(lat.subgroups) == 10
        assert lat.num_classes == 5
        assert [lat.subgroups[r].order for r in lat.class_reps] == [1, 2, 3, 4, 12]

    def test_gl32_fifteen_classes(self, sys_gl32):
        lat = sys_gl32.lattice
        assert lat.num_classes == 15
        assert len(lat.subgroups) == 179
        orders = sorted(lat.subgroups[r].order for r in lat.class_reps)
        assert orders == [1, 2, 3, 4, 4, 4, 6, 7, 8, 12, 12, 21, 24, 24, 168]

    def test_gl32_labels_match_known_structures(self, sys_gl32):
        labels = labels_for("GL3_2")
        assert sorted(labels) == sorted(
            ["e", "C2", "C3", "C4", "K4a", "K4b", "S3", "C7", "D4",
             "A4a", "A4b", "C7:C3", "S4a", "S4b", "GL3_2"]
        )

    @pytest.mark.parametrize("text", CORPUS)
    def test_closure_and_lagrange(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for sub in lat.subgroups:
            assert g.order % sub.order == 0
            members = list(bits_iter(sub.members))
            assert 0 in members
            mset = set(members)
            for a in members:
                assert g.inv[a] in mset
                for b in members:
                    assert g.mul_table[a][b] in mset

    @pytest.mark.parametrize("text", ["S3", "A4", "D4", "Q8"])
    def test_conjugates_stay_in_class(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for i, sub in enumerate(lat.subgroups):
            for x in range(g.order):
                cb = conjugate_bits(g, x, sub.members)
                j = lat.subgroup_index(cb)
                assert lat.class_of[j] == lat.class_of[i]

    @pytest.mark.parametrize("text", ["S5", "D6", C840])
    def test_extends_by_prime_power_elements_only(self, monkeypatch, text):
        # Elements of prime-power order generate every subgroup, so each join
        # <S, c> of enumeration takes c of order 2, 3, 4, 5, 7, ... and never 6.
        import btspec.lattice as lattice_mod
        from btspec.groups import group_from_text

        g = group_from_text(text)
        orders = []
        real = lattice_mod.closure

        def spy(group, generators, base=1):
            orders.extend(map(g.element_order, generators))
            return real(group, generators, base)

        monkeypatch.setattr(lattice_mod, "closure", spy)
        lattice_mod.subgroup_lattice(g)
        assert orders and all(len(prime_factors(d)) == 1 for d in orders)

    def test_lattice_complete(self, sys_a4):
        # Every subgroup of every listed subgroup is listed: spot-check by
        # intersecting pairs (intersections are subgroups).
        lat = sys_a4.lattice
        for s in lat.subgroups:
            for t in lat.subgroups:
                meet = s.members & t.members
                assert meet in lat.index_of


class TestSubconjugacy:
    def test_examples(self, sys_a4):
        lat = sys_a4.lattice
        c2, c3, k4 = (lat.class_of[next(i for i, s in enumerate(lat.subgroups) if s.order == n)]
                      for n in (2, 3, 4))
        assert lat.below[k4] >> c2 & 1
        assert not lat.below[c3] >> c2 & 1
        assert lat.below[c2] >> c2 & 1

    @pytest.mark.parametrize("text", ["S3", "A4", "D4", "Q8", "D6"])
    def test_matches_bruteforce(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for c1, r1 in enumerate(lat.class_reps):
            b1 = lat.subgroups[r1].members
            for c2, r2 in enumerate(lat.class_reps):
                b2 = lat.subgroups[r2].members
                brute = any(
                    is_subset(conjugate_bits(g, x, b1), b2) for x in range(g.order)
                )
                assert bool(lat.below[c2] >> c1 & 1) == brute

    def test_partial_order_on_classes(self, sys_a4):
        lat = sys_a4.lattice
        n = lat.num_classes
        for a in range(n):
            assert lat.below[a] >> a & 1
            for b in range(n):
                for c in range(n):
                    if lat.below[b] >> a & 1 and lat.below[c] >> b & 1:
                        assert lat.below[c] >> a & 1
                if a != b and lat.below[b] >> a & 1 and lat.below[a] >> b & 1:
                    pytest.fail("antisymmetry violated on classes")


class TestTransversals:
    def test_double_cosets_c2_s3(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c2 = next(s for s in lat.subgroups if s.order == 2)
        top = lat.subgroups[lat.top_index]
        reps = double_coset_reps(g, c2.members, top.members, c2.members)
        assert len(reps) == 2
        sizes = []
        for r in reps:
            elems = {
                g.mul_table[g.mul_table[a][r]][b]
                for a in bits_iter(c2.members)
                for b in bits_iter(c2.members)
            }
            sizes.append(len(elems))
        assert sorted(sizes) == [2, 4]

    def test_trivial_left_side_gives_cosets(self, sys_a4):
        g, lat = sys_a4.lattice.group, sys_a4.lattice
        e = lat.subgroups[0]
        c3 = next(s for s in lat.subgroups if s.order == 3)
        top = lat.subgroups[lat.top_index]
        assert len(double_coset_reps(g, e.members, top.members, c3.members)) == 12 // 3

    def test_full_left_side_single_coset(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        top = lat.subgroups[lat.top_index]
        c3 = next(s for s in lat.subgroups if s.order == 3)
        assert len(double_coset_reps(g, top.members, top.members, c3.members)) == 1

    @pytest.mark.parametrize("text", ["S3", "A4", "D4"])
    def test_coset_sizes_partition_group(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        top = lat.subgroups[lat.top_index]
        for sub in lat.subgroups:
            for sub2 in lat.subgroups:
                reps = double_coset_reps(g, sub.members, top.members, sub2.members)
                covered = 0
                total = 0
                for r in reps:
                    elems = set()
                    for a in bits_iter(sub.members):
                        row = g.mul_table[g.mul_table[a][r]]
                        for b in bits_iter(sub2.members):
                            elems.add(row[b])
                    total += len(elems)
                    covered |= sum(1 << e for e in elems)
                assert total == g.order
                assert covered == (1 << g.order) - 1

    def test_left_cosets_least_reps(self, sys_s3):
        g, lat = sys_s3.group, sys_s3.lattice
        c3 = next(s for s in lat.subgroups if s.order == 3)
        reps, coset_of = left_cosets(g, (1 << 6) - 1, c3.members)
        assert len(reps) == 2
        assert reps[0] == 0
        assert sorted(coset_of) == list(range(6))
        assert all(coset_of[g.mul_table[r][h]] == i for i, r in enumerate(reps)
                   for h in bits_iter(c3.members))


class TestConjugation:
    """``SubgroupLattice.conjugation`` against conjugating each subgroup's bits."""

    @pytest.mark.parametrize("text", ["S4", "A5", "D9"])
    def test_matches_conjugate_bits(self, text):
        s = system_for(text)
        g, lat = s.group, s.lattice
        for x in range(g.order):
            perm = lat.conjugation(x)
            assert sorted(perm) == list(range(len(lat.subgroups)))
            for i, sub in enumerate(lat.subgroups):
                assert lat.subgroups[perm[i]].members == conjugate_bits(g, x, sub.members)


class TestFixedBits:
    @pytest.mark.parametrize("n", [0, 1, 7, 64, 100_000])
    def test_matches_points(self, n):
        import random

        rng = random.Random(n)
        row = list(range(n))
        for _ in range(n // 3):
            i, j = rng.randrange(n), rng.randrange(n)
            row[i], row[j] = row[j], row[i]
        bits = fixed_bits(row)
        assert list(bits_iter(bits)) == [x for x in range(n) if row[x] == x]
        assert fixed_bits(range(n)) == (1 << n) - 1


class TestPResidual:
    def test_known_residual_values(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        top = lat.subgroups[lat.top_index].members
        k4 = next(s for s in lat.subgroups if s.order == 4).members
        assert p_residual_bits(g, top, 3) == k4
        assert p_residual_bits(g, top, 2) == top
        assert p_residual_bits(g, top, 5) == top

    def test_dihedral_rotation_subgroup(self):
        sysg = system_for("D9")
        g, lat = sysg.group, sysg.lattice
        top = lat.subgroups[lat.top_index].members
        assert p_residual_bits(g, top, 2).bit_count() == 9
        assert p_residual_bits(g, top, 3) == top

    def test_p_groups_collapse(self, sys_q8):
        g, lat = sys_q8.group, sys_q8.lattice
        for sub in lat.subgroups:
            assert p_residual_bits(g, sub.members, 2) == 1
            if sub.order > 1:
                assert p_residual_bits(g, sub.members, 3) == sub.members

    @pytest.mark.parametrize("text", CORPUS + ["GL3_2", "D9"])
    def test_agrees_with_normal_intersection_oracle(self, text):
        sysg = system_for(text)
        lat = sysg.lattice
        primes = [2, 3, 5, 7]
        for cls in range(lat.num_classes):
            sub = lat.subgroups[lat.class_reps[cls]]
            for p in primes:
                slow = p_residual_normal_oracle(lat, sub, p)
                assert p_residual_bits(lat.group, sub.members, p) == slow.members

    @pytest.mark.parametrize("text", CORPUS + ["GL3_2", "A6", "S6", C840])
    def test_residual_class_agrees_with_all_generators_oracle(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for p in prime_factors(g.order):
            for cls in range(lat.num_classes):
                bits = p_residual_all_generators_oracle(
                    g, lat.subgroups[lat.class_reps[cls]].members, p
                )
                assert lat.residual_class(cls, p) == lat.class_of[lat.subgroup_index(bits)]

    @pytest.mark.parametrize("text", ["S3", "A4", "S4", "D6"])
    def test_residual_is_normal_with_p_power_quotient(self, text):
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for sub in lat.subgroups:
            for p in (2, 3):
                res = p_residual_bits(g, sub.members, p)
                assert is_subset(res, sub.members)
                for h in bits_iter(sub.members):
                    assert conjugate_bits(g, h, res) == res
                quotient = sub.order // res.bit_count()
                while quotient % p == 0:
                    quotient //= p
                assert quotient == 1


def normalizer_order(lat, idx):
    return normalizer_bits(lat.group, lat.subgroups[idx].members).bit_count()


class TestNormalizers:
    def test_s3(self, sys_s3):
        lat = sys_s3.lattice
        c2_idx = next(i for i, s in enumerate(lat.subgroups) if s.order == 2)
        c3_idx = next(i for i, s in enumerate(lat.subgroups) if s.order == 3)
        assert normalizer_order(lat, c2_idx) == 2
        assert normalizer_order(lat, c3_idx) == 6

    def test_diagonal_of_marks_is_weyl_order(self, sys_a4):
        ring = sys_a4.level(sys_a4.top_index)
        lat = sys_a4.lattice
        for cls in range(ring.num_classes):
            rep_idx = ring.class_reps[cls]
            rep = lat.subgroups[rep_idx]
            weyl = normalizer_order(lat, rep_idx) // rep.order
            assert ring.marks_matrix[cls][cls] == weyl


class TestGeneratingSet:
    def test_generates_the_subgroup(self, sys_a4):
        g, lat = sys_a4.group, sys_a4.lattice
        for sub in lat.subgroups:
            gens = generating_set(g, sub.members)
            assert type(gens) is tuple
            assert closure(g, gens) == sub.members

    def test_computed_once_per_subgroup(self, monkeypatch):
        import btspec.lattice as lattice_mod
        from btspec.groups import group_from_text

        g = group_from_text("S4")
        top = (1 << g.order) - 1
        first = generating_set(g, top)
        calls = []
        real = lattice_mod.closure

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lattice_mod, "closure", counted)
        assert generating_set(g, top) == first
        assert calls == []

    # In S3, element 1 has order 2 and element 2 order 3.
    @pytest.mark.parametrize("bits", [0b110, 0b101, 0b111], ids=["no-identity", "not-closed", "order"])
    def test_non_subgroup_raises_and_keeps_nothing(self, bits):
        from btspec.errors import ContainmentError
        from btspec.groups import group_from_text

        g = group_from_text("S3")
        with pytest.raises(ContainmentError):
            generating_set(g, bits)
        assert bits not in g._gensets
