"""Subgroup lattices: exhaustive enumeration, conjugacy classes, subconjugacy.

Subgroups are bitsets over element indices (Python ints), so membership and
containment are single bit operations.  All tie-breaking is by least element
index / least bitset, which makes every derived structure deterministic for a
fixed group realization.

Enumeration extends one representative S per conjugacy class, in the line of
Neubueser's cyclic extension (Numer. Math. 2, 1960): for each element c of
prime-power order outside S it forms the join <S, c>, grown from S a left
coset at a time, and every new join enters with its whole conjugacy class.
Once c is joined, each c' reached from c by coprime powers (<c'> = <c>) and
products c s with s in S (c' S = c S) is skipped, as <S, c'> is then <S, c>
itself.  The joins also give subconjugacy, with no pair of subgroups
compared; ``subgroup_lattice`` shows why both are complete.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from math import gcd
from operator import eq

from .errors import ContainmentError, LatticeSizeError
from .groups import FiniteGroup, prime_factors

# Enumeration stops with LatticeSizeError once a group has more subgroups than
# this, before any table sized by the lattice is allocated.  It sits above the
# largest lattice in the tests and the README (C2 x S6, 5825 subgroups); C2^7
# (29,212 subgroups) is the first elementary abelian group over it.
MAX_SUBGROUPS = 10_000


def bits_iter(bits: int):
    """Yield set bit positions in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def fixed_bits(row) -> int:
    """Bitset of the points x with row[x] == x, written as one binary numeral
    (linear time, where setting one bit per point would be quadratic)."""
    return int(bytes(map(eq, row, range(len(row))))[::-1].translate(_BIT_CHARS) or b"0", 2)


class Subgroup(namedtuple("Subgroup", "members order")):
    """Subgroup as a bitset over element indices plus its cardinality."""

    __slots__ = ()


def closure(group: FiniteGroup, generators, base: int = 1) -> int:
    """Bitset of the subgroup generated by the given element indices.

    With ``base`` (the bitset of a subgroup S; by default the trivial
    subgroup, as the identity is element 0) it is the join of S and the
    generators, grown from S one whole left coset yS at a time.
    """
    mul = group.mul_table
    base_list = list(bits_iter(base))
    bits = base
    frontier = base_list
    gens = list(generators)
    while frontier:
        new = []
        for x in frontier:
            row = mul[x]
            for g in gens:
                y = row[g]
                if not bits >> y & 1:
                    coset = mul[y]
                    for s in base_list:
                        z = coset[s]
                        bits |= 1 << z
                        new.append(z)
        frontier = new
    return bits


def _span(group: FiniteGroup, candidates: int) -> tuple[list[int], int]:
    """Grow a span from the trivial subgroup by the least candidate outside it
    until it holds every candidate: the elements taken, and the span."""
    gens: list[int] = []
    span = 1  # the trivial subgroup
    while rest := candidates & ~span:
        x = (rest & -rest).bit_length() - 1
        gens.append(x)
        span = closure(group, (x,), span)
    return gens, span


def generating_set(group: FiniteGroup, bits: int) -> tuple[int, ...]:
    """A small generating set of the subgroup ``bits``: least elements first.

    Computed once per subgroup and kept on the group.  Raises ContainmentError,
    and keeps nothing, when ``bits`` is not a subgroup: its span is not itself."""
    found = group._gensets.get(bits)
    if found is None:
        gens, span = _span(group, bits)
        if span != bits:
            raise ContainmentError(f"bitset {bits:#x} is not a subgroup")
        found = group._gensets[bits] = tuple(gens)
    return found


def conjugate_bits(group: FiniteGroup, g: int, bits: int) -> int:
    """Bitset of ^g S = g S g^-1."""
    mul = group.mul_table
    gi = group.inv[g]
    row = mul[g]
    out = 0
    for x in bits_iter(bits):
        out |= 1 << mul[row[x]][gi]
    return out


def conjugates(group: FiniteGroup, bits: int, maps=None) -> list[int]:
    """The orbit of the subgroup ``bits``, ``bits`` first, under ``maps``, each
    x -> h x h^-1 for one h (by default the group's generators: the conjugacy
    class).  The walk keeps each conjugate's elements, so the next conjugates
    are their images; with no maps it keeps none."""
    if maps is None:
        maps = group.gen_conjugations
    orbit, seen = [bits], {bits}
    elements = [list(bits_iter(bits))] if maps else []
    for xs in elements:  # grows while it is walked
        for conj in maps:
            ys = list(map(conj.__getitem__, xs))
            cb = 0
            for y in ys:
                cb |= 1 << y
            if cb not in seen:
                seen.add(cb)
                orbit.append(cb)
                elements.append(ys)
    return orbit


def _cosets(K_bits: int, H_bits: int, coset) -> tuple[list[int], dict[int, int]]:
    """Number the cosets ``coset(k)`` of H inside K by their least elements."""
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("H must be contained in K")
    reps: list[int] = []
    coset_of: dict[int, int] = {}
    for k in bits_iter(K_bits):
        if k not in coset_of:
            coset_of.update(dict.fromkeys(coset(k), len(reps)))
            reps.append(k)
    return reps, coset_of


def left_cosets(group: FiniteGroup, K_bits: int, H_bits: int) -> tuple[list[int], dict[int, int]]:
    """The left cosets kH inside K (H <= K): their least-index representatives
    in increasing order, and the number of the coset each element of K lies in."""
    mul, H_list = group.mul_table, list(bits_iter(H_bits))
    return _cosets(K_bits, H_bits, lambda k: map(mul[k].__getitem__, H_list))


def coset_action(group: FiniteGroup, K_bits: int, H_bits: int) -> tuple:
    """``left_cosets`` of K/H, then K's action on the coset numbers as two
    functions computed once per element g: ``row(g)``, the coset g sends each
    coset to, and ``fixed(g)``, the bitset of the cosets g fixes."""
    from array import array  # on first use, as in groups.realize

    reps, coset_of = left_cosets(group, K_bits, H_bits)
    mul = group.mul_table  # coset numbers are below |G| <= groups.MAX_ORDER < 2^16
    row = cache(lambda g: array("H", [coset_of[mul[g][k]] for k in reps]))
    return reps, coset_of, row, cache(lambda g: fixed_bits(row(g)))


def right_cosets(group: FiniteGroup, K_bits: int, H_bits: int) -> tuple[list[int], dict[int, int]]:
    """``left_cosets`` for the right cosets Hk inside K (H <= K)."""
    H_rows = [group.mul_table[h] for h in bits_iter(H_bits)]
    return _cosets(K_bits, H_bits, lambda k: [row[k] for row in H_rows])


class SubgroupLattice:
    """All subgroups of a group, their conjugacy classes, and subconjugacy.

    Built from the subgroups' bitsets sorted by (order, bitset), ``class_of``
    numbering their classes 0, 1, ... by least member, and ``below``; it
    derives ``subgroups``, ``index_of`` and ``class_reps``.  ``below[c2]`` is
    a bitset over classes: bit c1 is set iff some member of class c1 is
    contained in some member of class c2 (so bit c2 is always set).
    ``residual_class(cls, p)`` is the class of O^p(H) for H in class cls,
    computed once per (cls, p).  ``conjugation(g)`` permutes subgroup indices
    as S -> ^g S.
    """

    def __init__(self, group: FiniteGroup, members: list[int], class_of: list[int],
                 below: list[int]):
        self.group = group
        self.subgroups = [Subgroup(b, b.bit_count()) for b in members]
        self.index_of = {b: i for i, b in enumerate(members)}
        self.class_of = class_of
        first: dict[int, int] = {}  # class -> index of its least member
        for i, c in enumerate(class_of):
            first.setdefault(c, i)
        self.class_reps = list(first.values())
        self.below = below
        self._class_sizes: Counter | None = None
        self._residuals: dict[tuple[int, int], int] = {}
        self._conjugations: dict = {}

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    @property
    def top_index(self) -> int:
        return len(self.subgroups) - 1

    def subgroup_index(self, bits: int) -> int:
        idx = self.index_of.get(bits)
        if idx is None:
            raise KeyError(f"bitset {bits:#x} is not a subgroup of the group")
        return idx

    def class_size(self, cls: int) -> int:
        if self._class_sizes is None:
            self._class_sizes = Counter(self.class_of)
        return self._class_sizes[cls]

    def subgroups_within(self, sub_idx: int) -> tuple[int, ...]:
        """Indices of all subgroups contained in the given subgroup, ascending."""
        top = self.subgroups[sub_idx].members
        return tuple(i for i, s in enumerate(self.subgroups) if is_subset(s.members, top))

    def conjugation(self, g: int):
        """``perm[i]`` is the index of ^g S for S the subgroup at index i.  The
        first call reads each generator's off ``conjugate_bits`` and composes
        every other element's along a breadth-first word, as ^{sx} S = ^s(^x S)."""
        perms = self._conjugations
        if not perms:
            from array import array  # on first use, as in groups.realize

            group, index_of, n = self.group, self.index_of, len(self.subgroups)
            steps = [(s, [index_of[conjugate_bits(group, s, b)] for b, _ in self.subgroups])
                     for s in group.gen_indices]
            # Two bytes an entry: enumeration and cache_load both refuse a
            # lattice of more than MAX_SUBGROUPS < 2^16 subgroups.
            perms[0], walk = array("H", range(n)), [0]
            for x in walk:  # grows while it is walked
                for s, step in steps:
                    y = group.mul_table[s][x]
                    if y not in perms:
                        perms[y] = array("H", map(step.__getitem__, perms[x]))
                        walk.append(y)
        return perms[g]

    def residual_class(self, cls: int, p: int) -> int:
        """Conjugacy class of O^p(H) for H the representative of class cls."""
        key = (cls, p)
        cached = self._residuals.get(key)
        if cached is None:
            bits = p_residual_bits(self.group, self.subgroups[self.class_reps[cls]].members, p)
            cached = self.class_of[self.subgroup_index(bits)]
            self._residuals[key] = cached
        return cached


def _cyclic_generators(group: FiniteGroup, x: int, blocks: list) -> list[int]:
    """The powers x^k with gcd(k, ord x) = 1, i.e. the generators of <x>, built
    once per cyclic subgroup: ``blocks[y]`` keeps the list for each y in it."""
    out = blocks[x]
    if out is None:
        order = group.element_order(x)
        mul = group.mul_table
        out, power = [], x
        for k in range(1, order + 1):
            if gcd(k, order) == 1:
                out.append(power)
            power = mul[power][x]
        for y in out:
            blocks[y] = out
    return out


def _mark_join_orbit(group: FiniteGroup, c: int, right, done: bytearray, blocks) -> None:
    """Mark in ``done`` the orbit of c under x -> x^k (gcd(k, ord x) = 1) and
    x -> x s (s in ``right``).

    With ``right`` generating S, every marked d has <S, d> = <S, c>: a coprime
    power generates the same cyclic subgroup, and d S = c S puts d in <S, c>
    and c in <S, d>.
    """
    mul = group.mul_table
    stack = [c]
    while stack:
        y = stack.pop()
        if done[y]:
            continue
        block = _cyclic_generators(group, y, blocks)
        for x in block:
            done[x] = 1
        for x in block:
            row = mul[x]
            for s in right:
                if not done[y := row[s]]:
                    stack.append(y)


def subgroup_lattice(group: FiniteGroup) -> SubgroupLattice:
    """Every subgroup, by extending one representative per conjugacy class,
    and subconjugacy, read off the joins: each join <S, c>, also one that finds
    a known class, makes S's class a source of its own, and ``below`` of a
    class is its bit ORed with ``below`` of its sources, which come first in
    (order, bitset) order.  Both are complete.  Let M be a maximal subgroup of
    T != 1, and S = ^g M its class representative.  The elements of ^g T of
    prime-power order generate it (each element is a product of prime-power
    powers of itself), so ^g T = <S, c> for one of them outside S, and c is
    skipped only for an element with the same join: T is found, M < T recorded."""
    # found maps every subgroup seen so far to its class in discovery order;
    # reps holds the first-found member of each class and its generators, and
    # joined_from the classes each class was joined from.
    found: dict[int, int] = {}
    reps: list[tuple[int, tuple[int, ...]]] = []
    joined_from: list[list[int]] = []

    def add_class(bits: int, gens: tuple[int, ...]) -> None:
        found.update(dict.fromkeys(conjugates(group, bits), len(reps)))
        reps.append((bits, gens))
        joined_from.append([])
        if len(found) > MAX_SUBGROUPS:  # checked per class, which adds at most |G|
            raise LatticeSizeError(
                f"{group.name} has more than {MAX_SUBGROUPS} subgroups (lattice.MAX_SUBGROUPS)"
            )

    add_class(1, ())
    blocks: list[list[int] | None] = [None] * group.order  # see _cyclic_generators
    masks = group.order_masks
    prime_power = list(bits_iter(sum(masks[d] for d in masks if len(prime_factors(d)) == 1)))
    for k, (s_bits, s_gens) in enumerate(reps):  # add_class appends while this loop walks reps
        done = bytearray(group.order)
        for x in bits_iter(s_bits):
            done[x] = 1
        for c in prime_power:
            if done[c]:
                continue
            joined = closure(group, (c,), s_bits)
            if joined not in found:
                add_class(joined, s_gens + (c,))
            joined_from[found[joined]].append(k)
            _mark_join_orbit(group, c, s_gens, done, blocks)

    ordered = sorted(found, key=lambda b: (b.bit_count(), b))
    # Renumber classes by their least member in (order, bitset) order.
    renumber: dict[int, int] = {}
    class_of = [renumber.setdefault(found[b], len(renumber)) for b in ordered]
    below: list[int] = []
    for cls, old in enumerate(renumber):  # old numbers in the new order
        row = 1 << cls
        for src in joined_from[old]:  # smaller, so its row is final
            row |= below[renumber[src]]
        below.append(row)
    return SubgroupLattice(group, ordered, class_of, below)


def p_residual_bits(group: FiniteGroup, H_bits: int, p: int) -> int:
    """Bitset of O^p(H), the subgroup generated by all p'-elements of H.  The
    p'-elements of H are H masked by the ``order_masks`` of orders prime to p.
    In an abelian group they form a subgroup; otherwise the span grows by the
    least of them outside it, as in generating_set."""
    if H_bits.bit_count() % p:  # a p'-group is its own residual
        return H_bits
    coprime = H_bits & sum(mask for order, mask in group.order_masks.items() if order % p)
    return coprime if group.is_abelian else _span(group, coprime)[1]
