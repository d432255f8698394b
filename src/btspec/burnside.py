"""Exact arithmetic in Burnside rings A(H) and their ghost rings.

For a level subgroup H, elements of A(H) are integer vectors over the
H-conjugacy classes of subgroups of H in the orbit basis [H/K]; ghost
elements are integer mark vectors over the same classes (one coordinate per
class, i.e. tuples constant on conjugacy classes).  Both are immutable
(level, tuple) pairs, and an element of A(H) never equals a ghost vector.
The mark homomorphism is the table of marks: a lower-triangular integer
matrix with positive diagonal when classes are sorted by (order, bitset), a
linear extension of subconjugacy.  Its triangularity makes the inverse an
exact integer back-substitution; everything runs on arbitrary-precision ints
because norms exponentiate.

The table is read off the lattice bitsets with the table-of-marks identity
|(H/K)^I| = |N_H(K) : K| * #{H-conjugates of K containing I}; no coset space
is built.  The brute-force G-set engine in ``gsets`` stays an independent
oracle that the verifier's naturality checks and the tests compare against.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotInImageError
from .groups import FiniteGroup
from .lattice import SubgroupLattice, bits_iter, conjugates, generating_set, is_subset
# Read only by bench/tracer.py, which wraps these names here to count calls.
from .gsets import coset_space, fixed_points
from .lattice import conjugate_bits


class _LevelVector(tuple):
    """An immutable (level, coordinates) pair, equal only to one of its own type."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def _check(self, other):
        if self.level != other.level:
            raise ValueError("level mismatch")


class BurnsideElement(_LevelVector, namedtuple("BurnsideElement", "level coeffs")):
    """Element of A(H) in the orbit basis; ``level`` is the subgroup index of H."""

    __slots__ = ()

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


class GhostElement(_LevelVector, namedtuple("GhostElement", "level values")):
    """Mark-coordinate vector over the H-classes of subgroups of H."""

    __slots__ = ()

    def __add__(self, other: "GhostElement") -> "GhostElement":
        self._check(other)
        return GhostElement(self.level, tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "GhostElement") -> "GhostElement":
        self._check(other)
        return GhostElement(self.level, tuple(a * b for a, b in zip(self.values, other.values)))


class LevelRing:
    """Burnside/ghost ring data at one level subgroup H.

    Holds the H-conjugacy classes of subgroups of H (indexed locally, sorted by
    (order, bitset) of the class representative; ``lattice.conjugates`` orbits
    under conjugation by the generators of H not central in H) and the table of
    marks.
    """

    def __init__(self, group: FiniteGroup, lattice: SubgroupLattice, level_index: int):
        self.group = group
        self.lattice = lattice
        self.level_index = level_index
        self.subgroup = lattice.subgroups[level_index]
        H_bits = self.subgroup.members
        sub_ids = lattice.subgroups_within(level_index)
        # Conjugation by a generator central in H is trivial, so the orbits
        # under the others are the H-classes (all singletons when H is abelian).
        mul, inv = group.mul_table, group.inv
        gens = generating_set(group, H_bits)
        maps = [{x: mul[mul[h][x]][inv[h]] for x in bits_iter(H_bits)}
                for h in gens if any(mul[h][b] != mul[b][h] for b in gens)]
        # H-conjugacy classes of the subgroups of H; reps are (order, bits)-least.
        local_cls: dict[int, int] = {}
        reps: list[int] = []
        for sid in sub_ids:
            if sid not in local_cls:
                orbit = conjugates(group, lattice.subgroups[sid].members, maps)
                local_cls.update(dict.fromkeys(map(lattice.index_of.__getitem__, orbit), len(reps)))
                reps.append(sid)
        self.sub_ids = sub_ids
        self.class_reps = reps
        self.local_class_of = local_cls
        self.num_classes = len(reps)
        self._marks_matrix: list[list[int]] | None = None

    def class_rep_subgroup(self, cls: int):
        return self.lattice.subgroups[self.class_reps[cls]]

    def class_of_bits(self, bits: int) -> int:
        return self.local_class_of[self.lattice.index_of[bits]]

    @property
    def marks_matrix(self) -> list[list[int]]:
        """matrix[K][I] = |(H/K)^I| over local classes, read off the lattice.

        gK is I-fixed iff I <= ^g K, and each K' in the H-class [K]_H is ^g K
        for |N_H(K)| = |H| / |[K]_H| of the |H| elements g, so
        |(H/K)^I| = |H| * #{K' in [K]_H : I <= K'} / (|K| * |[K]_H|).
        """
        if self._marks_matrix is None:
            subgroups = self.lattice.subgroups
            by_class: list[list[int]] = [[] for _ in self.class_reps]
            for sid in self.sub_ids:
                by_class[self.local_class_of[sid]].append(subgroups[sid].members)
            rep_bits = [subgroups[r].members for r in self.class_reps]
            H_order = self.subgroup.order
            matrix = []
            for k_cls, conjugates in enumerate(by_class):
                weyl = H_order // (subgroups[self.class_reps[k_cls]].order * len(conjugates))
                matrix.append(
                    [weyl * sum(1 for K in conjugates if is_subset(I, K)) for I in rep_bits]
                )
            self._marks_matrix = matrix
        return self._marks_matrix

    def basis_element(self, cls: int) -> BurnsideElement:
        coeffs = [0] * self.num_classes
        coeffs[cls] = 1
        return BurnsideElement(self.level_index, tuple(coeffs))

    def one(self) -> BurnsideElement:
        # [H/H] is the multiplicative unit; H itself is the last local class.
        return self.basis_element(self.num_classes - 1)

    def element(self, coeffs) -> BurnsideElement:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.num_classes:
            raise ValueError(
                f"expected {self.num_classes} coefficients at this level, got {len(coeffs)}"
            )
        return BurnsideElement(self.level_index, coeffs)

    def marks(self, x: BurnsideElement) -> GhostElement:
        """Mark homomorphism: values_I = sum_K coeffs_K * |(H/K)^I|."""
        if x.level != self.level_index:
            raise ValueError("element belongs to a different level")
        mm = self.marks_matrix
        values = [0] * self.num_classes
        for k_cls, c in enumerate(x.coeffs):
            if c == 0:
                continue
            row = mm[k_cls]
            for i_cls in range(self.num_classes):
                values[i_cls] += c * row[i_cls]
        return GhostElement(self.level_index, tuple(values))

    def unmark(self, v: GhostElement) -> BurnsideElement:
        """Invert marks by back-substitution; raises NotInImageError off the image."""
        if v.level != self.level_index:
            raise ValueError("element belongs to a different level")
        mm = self.marks_matrix
        n = self.num_classes
        coeffs = [0] * n
        for i in range(n - 1, -1, -1):
            acc = v.values[i]
            for k in range(i + 1, n):
                acc -= coeffs[k] * mm[k][i]
            diag = mm[i][i]
            q, r = divmod(acc, diag)
            if r != 0:
                raise NotInImageError(i, acc, diag)
            coeffs[i] = q
        return BurnsideElement(self.level_index, tuple(coeffs))

    def multiply(self, x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
        """The product in A(H), read off marks: the mark map is an injective
        ring homomorphism, so x * y = unmark(marks(x) * marks(y))."""
        return self.unmark(self.marks(x) * self.marks(y))

    def all_ones(self) -> GhostElement:
        return GhostElement(self.level_index, (1,) * self.num_classes)
