"""Exact arithmetic in Burnside rings A(H) and their ghost rings.

For a level subgroup H, elements of A(H) are integer vectors over the
H-conjugacy classes of subgroups of H in the orbit basis [H/K]; ghost
elements are integer mark vectors over the same classes (one coordinate per
class, i.e. tuples constant on conjugacy classes).  The mark homomorphism is
the table of marks: a lower-triangular integer matrix with positive diagonal
when classes are sorted by (order, bitset), which is a linear extension of
subconjugacy.  Its triangularity makes the inverse an exact integer
back-substitution; everything runs on arbitrary-precision ints because norms
exponentiate.

The table is read off the lattice bitsets with the table-of-marks identity
|(H/K)^I| = |N_H(K) : K| * #{H-conjugates of K containing I}; no coset space
is built.  The brute-force G-set engine in ``gsets`` stays an independent
oracle that the verifier's naturality checks and the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInImageError
# Read only by bench/tracer.py, which wraps these names here to count calls.
from .gsets import coset_space, fixed_points
from .groups import FiniteGroup
from .lattice import (
    SubgroupLattice,
    conjugate_bits,
    double_coset_reps,
    generating_set,
    is_subset,
)


@dataclass(frozen=True)
class BurnsideElement:
    """Element of A(H) in the orbit basis; ``level`` is the subgroup index of H."""

    level: int
    coeffs: tuple[int, ...]

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.level, tuple(-a for a in self.coeffs))

    def scale(self, n: int) -> "BurnsideElement":
        return BurnsideElement(self.level, tuple(n * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def _check(self, other):
        if self.level != other.level:
            raise ValueError("level mismatch")


@dataclass(frozen=True)
class GhostElement:
    """Mark-coordinate vector over the H-classes of subgroups of H."""

    level: int
    values: tuple[int, ...]

    def __add__(self, other: "GhostElement") -> "GhostElement":
        self._check(other)
        return GhostElement(self.level, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "GhostElement") -> "GhostElement":
        self._check(other)
        return GhostElement(self.level, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "GhostElement") -> "GhostElement":
        self._check(other)
        return GhostElement(self.level, tuple(a * b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "GhostElement":
        return GhostElement(self.level, tuple(-a for a in self.values))

    def scale(self, n: int) -> "GhostElement":
        return GhostElement(self.level, tuple(n * a for a in self.values))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.values)

    def _check(self, other):
        if self.level != other.level:
            raise ValueError("level mismatch")


class LevelRing:
    """Burnside/ghost ring data at one level subgroup H.

    Holds the H-conjugacy classes of subgroups of H (indexed locally, sorted by
    (order, bitset) of the class representative), the table of marks, and the
    double-coset multiplication of basis orbits.
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
        mul = group.mul_table
        gens = generating_set(group, H_bits)
        gens = [a for a in gens if any(mul[a][b] != mul[b][a] for b in gens)]

        # H-conjugacy classes of the subgroups of H; reps are (order, bits)-least.
        local_cls: dict[int, int] = {}
        reps: list[int] = []
        for sid in sub_ids:
            if sid in local_cls:
                continue
            cls = len(reps)
            reps.append(sid)
            frontier = [lattice.subgroups[sid].members]
            local_cls[sid] = cls
            while frontier:
                new = []
                for bits in frontier:
                    for h in gens:
                        cb = conjugate_bits(group, h, bits)
                        j = lattice.index_of[cb]
                        if j not in local_cls:
                            local_cls[j] = cls
                            new.append(cb)
                frontier = new
        self.sub_ids = sub_ids
        self.class_reps = reps
        self.local_class_of = local_cls
        self.num_classes = len(reps)
        self._marks_matrix: list[list[int]] | None = None
        self._basis_products: dict[tuple[int, int], tuple[int, ...]] = {}

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

    def zero(self) -> BurnsideElement:
        return BurnsideElement(self.level_index, (0,) * self.num_classes)

    def element(self, coeffs) -> BurnsideElement:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.num_classes:
            raise ValueError(
                f"expected {self.num_classes} coefficients at this level, got {len(coeffs)}"
            )
        return BurnsideElement(self.level_index, coeffs)

    def ghost(self, values) -> GhostElement:
        values = tuple(int(v) for v in values)
        if len(values) != self.num_classes:
            raise ValueError(
                f"expected {self.num_classes} coordinates at this level, got {len(values)}"
            )
        return GhostElement(self.level_index, values)

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

    def basis_product(self, k_cls: int, l_cls: int) -> tuple[int, ...]:
        """[H/K] * [H/L] = sum over K\\H/L of [H/(K cap ^g L)]."""
        key = (min(k_cls, l_cls), max(k_cls, l_cls))
        cached = self._basis_products.get(key)
        if cached is None:
            K_bits = self.class_rep_subgroup(key[0]).members
            L_bits = self.class_rep_subgroup(key[1]).members
            out = [0] * self.num_classes
            H_bits = self.subgroup.members
            for g in double_coset_reps(self.group, K_bits, H_bits, L_bits):
                meet = K_bits & conjugate_bits(self.group, g, L_bits)
                out[self.class_of_bits(meet)] += 1
            cached = tuple(out)
            self._basis_products[key] = cached
        return cached

    def multiply(self, x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
        """Bilinear extension of the double-coset basis products."""
        if x.level != self.level_index or y.level != self.level_index:
            raise ValueError("elements belong to a different level")
        out = [0] * self.num_classes
        for k_cls, a in enumerate(x.coeffs):
            if a == 0:
                continue
            for l_cls, b in enumerate(y.coeffs):
                if b == 0:
                    continue
                prod = self.basis_product(k_cls, l_cls)
                ab = a * b
                for i, c in enumerate(prod):
                    if c:
                        out[i] += ab * c
        return BurnsideElement(self.level_index, tuple(out))

    def all_ones(self) -> GhostElement:
        return GhostElement(self.level_index, (1,) * self.num_classes)
