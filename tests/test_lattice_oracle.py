"""The production subgroup lattice, level classes and tables of marks against
independent oracles.

``oracle_lattice`` is the straightforward enumeration: seed with every cyclic
subgroup, close under joins with every cyclic subgroup, recomputing each join
from its generators, then split into conjugacy classes by orbits.  It shares
no code with ``btspec.lattice.subgroup_lattice`` beyond the group tables.
"""

import tempfile
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from btspec.burnside import LevelRing
from btspec.cache import cache_load, cache_path, cache_store, spec_cache_key
from btspec.groups import DEFAULT_MAX_ORDER, group_from_text
from btspec.lattice import conjugates, subgroup_lattice

from conftest import C2_5, C840, system_for
from oracles import oracle_marks_matrix, subconjugacy_rows

C2_4 = "perm:(0 1);(2 3);(4 5);(6 7)"
C2_6 = "perm:(0 1);(2 3);(4 5);(6 7);(8 9);(10 11)"
C3_5 = "perm:(0 1 2);(3 4 5);(6 7 8);(9 10 11);(12 13 14)"


def _members(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _generated(group, gens):
    mul = group.mul_table
    bits = 1  # the identity is element 0
    frontier = [0]
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
    """(sub_ids, class_reps, local_class_of) by orbits under every element of H.
    Elements that conjugate H alike give one map, which is tried once."""
    group = lattice.group
    mul, inv = group.mul_table, group.inv
    H_bits = lattice.subgroups[level_index].members
    H = _members(H_bits)
    position = {x: i for i, x in enumerate(H)}
    maps = {tuple(mul[mul[h][x]][inv[h]] for x in H) for h in H}
    sub_ids = [i for i, s in enumerate(lattice.subgroups) if s.members & ~H_bits == 0]
    local, reps = {}, []
    for sid in sub_ids:
        if sid in local:
            continue
        at = [position[x] for x in _members(lattice.subgroups[sid].members)]
        for image in maps:
            local.setdefault(lattice.index_of[sum(1 << image[i] for i in at)], len(reps))
        reps.append(sid)
    return tuple(sub_ids), reps, local


def _assert_matches_oracle(lat):
    subgroups, class_of, class_reps, subconj = oracle_lattice(lat.group)
    assert [s.members for s in lat.subgroups] == subgroups
    assert [s.order for s in lat.subgroups] == [bin(b).count("1") for b in subgroups]
    assert lat.index_of == {b: i for i, b in enumerate(subgroups)}
    assert lat.class_of == class_of
    assert lat.class_reps == class_reps
    assert lat.below == [
        sum(1 << c1 for c1, row in enumerate(subconj) if row[c2]) for c2 in range(len(class_reps))
    ]


@pytest.mark.parametrize(
    "text", ["A4", "Q8", "D9", "S4", "A5", "S5", "GL3_2", "D60", C2_5, C840]
)
def test_lattice_matches_pairwise_join_oracle(text):
    _assert_matches_oracle(subgroup_lattice(group_from_text(text)))


# Blocks of generated groups: (kind, points) -> order, for cyclic, dihedral,
# symmetric and alternating groups on at most 5 points.
BLOCK_ORDERS = {
    **{("C", n): n for n in range(2, 6)},
    **{("D", n): 2 * n for n in range(3, 6)},
    **{("S", n): factorial(n) for n in range(3, 6)},
    **{("A", n): factorial(n) // 2 for n in range(4, 6)},
}
MAX_GENERATED_ORDER = 200
# The oracle's pairwise joins take seconds past a few hundred subgroups (S4 x D4,
# 1026 of them, takes about 5 s with CPython 3.11), so larger lattices are skipped.
MAX_GENERATED_SUBGROUPS = 300


def _block_generators(kind, n, at):
    """A block's generators on the points at, ..., at + n - 1, each a list of cycles."""
    pts = list(range(at, at + n))
    if kind == "C":
        return [[pts]]
    if kind == "D":  # the rotation and the reflection i -> -i
        return [[pts], [[pts[i], pts[n - i]] for i in range(1, (n + 1) // 2)]]
    if kind == "S":
        return [[pts], [pts[:2]]]
    return [[pts[:3]], [pts if n % 2 else pts[1:]]]  # A_n


@st.composite
def perm_specs(draw):
    """A ``perm:`` spec of a direct product of disjoint blocks, of order at most
    MAX_GENERATED_ORDER, where one generator may move two blocks at once (a
    subdirect product)."""
    gens, at, order = [], 0, 1
    for _ in range(draw(st.integers(1, 4))):
        fits = [b for b, o in BLOCK_ORDERS.items() if order * o <= MAX_GENERATED_ORDER]
        if not fits:
            break
        kind, n = draw(st.sampled_from(fits))
        gens.append(_block_generators(kind, n, at))
        at, order = at + n, order * BLOCK_ORDERS[kind, n]
    if len(gens) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(gens))))[:2]
        linked = gens[i].pop(0) + gens[j].pop(0)
        gens[0].append(linked)
    cycles = lambda gen: "".join(f"({' '.join(map(str, c))})" for c in gen)
    return "perm:" + ";".join(cycles(gen) for block in gens for gen in block)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=perm_specs())
def test_generated_groups_match_oracle_and_round_trip(text):
    group = group_from_text(text)
    lat = subgroup_lattice(group)
    assume(len(lat.subgroups) <= MAX_GENERATED_SUBGROUPS)
    _assert_matches_oracle(lat)
    key = spec_cache_key(text, DEFAULT_MAX_ORDER)
    with tempfile.TemporaryDirectory() as tmp:
        path = cache_path(Path(tmp), key)
        cache_store(path, group, lat, key)
        loaded = cache_load(path, group, key)
    assert loaded is not None
    assert loaded.subgroups == lat.subgroups
    assert loaded.index_of == lat.index_of
    assert loaded.class_of == lat.class_of
    assert loaded.class_reps == lat.class_reps
    assert loaded.below == lat.below


@pytest.mark.parametrize(
    "text, subgroups, classes",
    [("A6", 501, 22), ("S6", 1455, 56), (C2_6, 2825, 2825)],
)
def test_known_lattice_sizes(text, subgroups, classes):
    lat = system_for(text).lattice
    assert len(lat.subgroups) == subgroups
    assert lat.num_classes == classes


# The groups whose join closure has the most edges.
@pytest.mark.parametrize("text", [C2_6, C3_5, "S6", "D1000"])
def test_below_matches_scan_oracle(text):
    lat = system_for(text).lattice
    assert lat.below == subconjugacy_rows(lat)


# C2^4 is abelian, so its levels walk no conjugation map.
@pytest.mark.parametrize("text", ["S4", "GL3_2", "Q8", "D9", "A5", C2_4, C840])
def test_level_classes_match_all_elements_oracle(text):
    group = group_from_text(text)
    lat = subgroup_lattice(group)
    # Every level, except that C2^3 x C105 is checked at the top level only.
    levels = [lat.top_index] if text == C840 else range(len(lat.subgroups))
    for level_index in levels:
        ring = LevelRing(group, lat, level_index)
        sub_ids, reps, local = oracle_level_classes(lat, level_index)
        assert ring.sub_ids == sub_ids
        assert ring.class_reps == reps
        assert ring.local_class_of == local


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=perm_specs())
def test_generated_groups_level_classes_and_marks(text):
    group = group_from_text(text)
    lat = subgroup_lattice(group)
    # Only for tier-1 time: unlike oracle_lattice, these oracles stay fast past the bound.
    assume(len(lat.subgroups) <= MAX_GENERATED_SUBGROUPS)
    for level_index in lat.class_reps:
        ring = LevelRing(group, lat, level_index)
        sub_ids, reps, local = oracle_level_classes(lat, level_index)
        assert ring.sub_ids == sub_ids
        assert ring.class_reps == reps
        assert ring.local_class_of == local
        assert ring.marks_matrix == oracle_marks_matrix(ring)


@pytest.mark.parametrize("text", ["S4", C2_4])
def test_conjugates_without_maps_is_the_subgroup(text):
    group = group_from_text(text)
    for sub in subgroup_lattice(group).subgroups:
        assert conjugates(group, sub.members, []) == [sub.members]
