"""The production subgroup lattice and level classes against independent oracles.

``oracle_lattice`` is the straightforward enumeration: seed with every cyclic
subgroup, close under joins with every cyclic subgroup, recomputing each join
from its generators, then split into conjugacy classes by orbits.  It shares
no code with ``btspec.lattice.subgroup_lattice`` beyond the group tables.
"""

import pytest

from btspec.burnside import LevelRing
from btspec.groups import group_from_text
from btspec.lattice import subgroup_lattice

from conftest import C2_5, C840

C2_6 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9);(10 11)"


def _members(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _generated(group, gens):
    mul = group.mul_table
    bits = 1 << group.identity_index
    frontier = [group.identity_index]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul[x][g]
                if not bits >> y & 1:
                    bits |= 1 << y
                    new.append(y)
        frontier = new
    return bits


def _conjugate(group, g, bits):
    mul, gi = group.mul_table, group.inv[g]
    return sum(1 << mul[mul[g][x]][gi] for x in _members(bits))


def oracle_lattice(group):
    """(subgroups, class_of, class_reps, subconj) by cyclic seeds and pairwise joins."""
    cyclic = {}
    for x in range(group.order):
        cyclic.setdefault(_generated(group, [x]), x)
    found = {bits: (x,) for bits, x in cyclic.items()}
    queue = list(found)
    for s_bits in queue:
        for c_bits, c in cyclic.items():
            if s_bits >> c & 1:
                continue
            joined = _generated(group, found[s_bits] + (c,))
            if joined not in found:
                found[joined] = found[s_bits] + (c,)
                queue.append(joined)
    subgroups = sorted(found, key=lambda b: (bin(b).count("1"), b))
    index_of = {b: i for i, b in enumerate(subgroups)}
    class_of = [-1] * len(subgroups)
    class_reps = []
    for i, bits in enumerate(subgroups):
        if class_of[i] != -1:
            continue
        class_of[i] = len(class_reps)
        frontier = [bits]
        while frontier:
            new = []
            for b in frontier:
                for g in group.gen_indices:
                    j = index_of[_conjugate(group, g, b)]
                    if class_of[j] == -1:
                        class_of[j] = len(class_reps)
                        new.append(subgroups[j])
            frontier = new
        class_reps.append(i)
    subconj = [[False] * len(class_reps) for _ in class_reps]
    for i, bits in enumerate(subgroups):
        for c2, rep in enumerate(class_reps):
            if bits & ~subgroups[rep] == 0:
                subconj[class_of[i]][c2] = True
    return subgroups, class_of, class_reps, subconj


def oracle_level_classes(lattice, level_index):
    """(sub_ids, class_reps, local_class_of) by orbits under every element of H."""
    group = lattice.group
    H_bits = lattice.subgroups[level_index].members
    sub_ids = [i for i, s in enumerate(lattice.subgroups) if s.members & ~H_bits == 0]
    local, reps = {}, []
    for sid in sub_ids:
        if sid in local:
            continue
        for h in _members(H_bits):
            local.setdefault(lattice.index_of[_conjugate(group, h, lattice.subgroups[sid].members)],
                             len(reps))
        reps.append(sid)
    return tuple(sub_ids), reps, local


@pytest.mark.parametrize(
    "text", ["A4", "Q8", "D9", "S4", "A5", "S5", "GL3_2", "D60", C2_5, C840]
)
def test_lattice_matches_pairwise_join_oracle(text):
    group = group_from_text(text)
    lat = subgroup_lattice(group)
    subgroups, class_of, class_reps, subconj = oracle_lattice(group)
    assert [s.members for s in lat.subgroups] == subgroups
    assert [s.order for s in lat.subgroups] == [bin(b).count("1") for b in subgroups]
    assert lat.index_of == {b: i for i, b in enumerate(subgroups)}
    assert lat.class_of == class_of
    assert lat.class_reps == class_reps
    assert lat.subconj == subconj


@pytest.mark.parametrize(
    "text, subgroups, classes",
    [("A6", 501, 22), ("S6", 1455, 56), (C2_6, 2825, 2825)],
)
def test_known_lattice_sizes(text, subgroups, classes):
    lat = subgroup_lattice(group_from_text(text))
    assert len(lat.subgroups) == subgroups
    assert lat.num_classes == classes


@pytest.mark.parametrize("text", ["S4", "GL3_2"])
def test_level_classes_match_all_elements_oracle(text):
    group = group_from_text(text)
    lat = subgroup_lattice(group)
    for level_index in range(len(lat.subgroups)):
        ring = LevelRing(group, lat, level_index)
        sub_ids, reps, local = oracle_level_classes(lat, level_index)
        assert ring.sub_ids == sub_ids
        assert ring.class_reps == reps
        assert ring.local_class_of == local
