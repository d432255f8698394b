"""Human-readable labels for conjugacy classes of subgroups.

Every class gets a canonical label ``o<order>c<k>`` (k numbers the classes of
that order by least bitset).  Classes whose isomorphism type is recognized by
its fingerprint (abelian flag, element-order histogram) are instead tagged
with a structure name: e, C<n>, K4, D<m>, Q<n>, S3, A4, D6, S4, C7:C3, C3xC3.
The fingerprints of the named groups are closed forms (C<n> has phi(d)
elements of each order d dividing n; D<m> adds m involutions to C<m>; Q<n>
adds n/2 elements of order 4 to C<n/2>), so no candidate group is built; the
named groups of one order have pairwise distinct fingerprints.  The class of
the whole group falls back to the group's spec text when unrecognized.

When several non-conjugate classes share a structure name they get suffixes
a, b, ..., z, aa, ab, ... assigned by canonical class order, except that
suffixes propagate along p-residual maps whenever those maps match suffixed
families bijectively (so a chain like S4 > A4 > K4 keeps one letter).  The
assignment is canonical but arbitrary.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .groups import FiniteGroup
# Read only by bench/tracer.py, which wraps this name here to count calls.
from .groups import realize
from .lattice import SubgroupLattice, bits_iter, generating_set, p_residual_bits
from .spectrum import prime_factors

# Named groups fixed by one literal element-order histogram: (name, abelian, histogram).
_SMALL_GROUPS = [
    ("K4", True, {1: 1, 2: 3}),
    ("C3xC3", True, {1: 1, 3: 8}),
    ("S3", False, {1: 1, 2: 3, 3: 2}),
    ("A4", False, {1: 1, 2: 3, 3: 8}),
    ("C7:C3", False, {1: 1, 3: 14, 7: 6}),
    ("S4", False, {1: 1, 2: 9, 3: 8, 4: 6}),
]


def _fingerprint(abelian: bool, histogram) -> tuple:
    return abelian, tuple(sorted(histogram.items()))


def _cyclic_histogram(n: int) -> Counter:
    return Counter(n // gcd(k, n) for k in range(n))


def _named_fingerprints(order: int) -> dict[tuple, str]:
    """Fingerprint -> structure name of each named group of the given order."""
    named = {_fingerprint(True, _cyclic_histogram(order)): "e" if order == 1 else f"C{order}"}
    for name, abelian, histogram in _SMALL_GROUPS:
        if sum(histogram.values()) == order:
            named[_fingerprint(abelian, histogram)] = name
    if order % 2 == 0 and order >= 8:
        m = order // 2
        dihedral = _cyclic_histogram(m)
        dihedral[2] += m
        named[_fingerprint(False, dihedral)] = f"D{m}"
        if order % 4 == 0:
            dicyclic = _cyclic_histogram(m)
            dicyclic[4] += m
            named[_fingerprint(False, dicyclic)] = f"Q{order}"
    return named


def structure_tag(group: FiniteGroup, bits: int, order: int) -> str | None:
    """Structure name of the subgroup ``bits`` of the given order, or None."""
    mul = group.mul_table
    gens = generating_set(group, bits)
    abelian = all(mul[a][b] == mul[b][a] for a in gens for b in gens)
    histogram = Counter(group.element_order(x) for x in bits_iter(bits))
    return _named_fingerprints(order).get(_fingerprint(abelian, histogram))


def class_labels(group: FiniteGroup, lattice: SubgroupLattice) -> list[str]:
    """Deterministic display label per conjugacy class of subgroups."""
    n = lattice.num_classes
    per_order_counter: dict[int, int] = {}
    base: list[str] = []
    tags: list[str | None] = []
    for cls in range(n):
        rep = lattice.subgroups[lattice.class_reps[cls]]
        k = per_order_counter.get(rep.order, 0) + 1
        per_order_counter[rep.order] = k
        fallback = f"o{rep.order}c{k}"
        tag = structure_tag(group, rep.members, rep.order)
        if tag is None and cls == lattice.class_of[lattice.top_index]:
            tag = group.name
        tags.append(tag)
        base.append(tag if tag is not None else fallback)

    duplicated: dict[str, list[int]] = {}
    for cls, name in enumerate(base):
        duplicated.setdefault(name, []).append(cls)
    duplicated = {name: lst for name, lst in duplicated.items() if len(lst) > 1}
    if not duplicated:
        return base

    suffix = _assign_suffixes(group, lattice, duplicated)
    return [
        base[cls] + suffix[cls] if cls in suffix else base[cls] for cls in range(n)
    ]


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _suffix(i: int) -> str:
    """The i-th suffix in the sequence a, ..., z, aa, ab, ..., zz, aaa, ..."""
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, len(_LETTERS))
        out = _LETTERS[r] + out
    return out


def _assign_suffixes(group, lattice, duplicated: dict[str, list[int]]) -> dict[int, str]:
    """Letter suffixes for duplicated structure names, residual-consistent.

    Groups of duplicated classes are processed in decreasing subgroup order;
    the first gets letters by canonical class order, later ones inherit
    letters through O^p whenever some residual map carries an already-lettered
    group bijectively onto them.
    """
    primes = prime_factors(group.order)
    residual_cls = {}

    def res_of(cls: int, p: int) -> int:
        key = (cls, p)
        if key not in residual_cls:
            bits = p_residual_bits(group, lattice.subgroups[lattice.class_reps[cls]].members, p)
            residual_cls[key] = lattice.class_of[lattice.subgroup_index(bits)]
        return residual_cls[key]

    order_of = lambda cls: lattice.subgroups[lattice.class_reps[cls]].order
    groups = sorted(duplicated.values(), key=lambda lst: (-order_of(lst[0]), lst))
    letters: dict[int, str] = {}
    assigned_groups: list[list[int]] = []
    for members in groups:
        inherited = None
        for src in assigned_groups:
            if len(src) != len(members):
                continue
            for p in primes:
                image = [res_of(c, p) for c in src]
                if sorted(image) == sorted(members) and len(set(image)) == len(image):
                    inherited = {img: letters[c] for c, img in zip(src, image)}
                    break
            if inherited:
                break
        if inherited:
            for c in members:
                letters[c] = inherited[c]
        else:
            for i, c in enumerate(sorted(members)):
                letters[c] = _suffix(i)
        assigned_groups.append(members)
    return letters
