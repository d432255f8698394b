"""Human-readable labels for conjugacy classes of subgroups.

Every class gets a canonical label ``o<order>c<k>`` (k numbers the classes of
that order by least bitset).  Classes whose isomorphism type is recognized by
a small invariant fingerprint (order, abelian flag, exponent, element-order
histogram) are instead tagged with a structure name: e, C<n>, K4, D<m>, Q<n>,
S3, A4, D6, S4, C7:C3, C3xC3.  The class of the whole group falls back to the
group's spec text when unrecognized.

When several non-conjugate classes share a structure name they get suffixes
a, b, ..., z, aa, ab, ... assigned by canonical class order, except that
suffixes propagate along p-residual maps whenever those maps match suffixed
families bijectively (so a chain like S4 > A4 > K4 keeps one letter).  The
assignment is canonical but arbitrary.
"""

from __future__ import annotations

from .groups import FiniteGroup, parse_group_spec, realize
from .lattice import SubgroupLattice, bits_iter, p_residual_bits
from .spectrum import prime_factors

_FINGERPRINTS: dict[int, list[tuple[tuple, str]]] = {}


def _subgroup_fingerprint(group: FiniteGroup, bits: int) -> tuple:
    members = list(bits_iter(bits))
    orders = sorted(group.element_order(x) for x in members)
    hist = tuple(sorted({o: orders.count(o) for o in set(orders)}.items()))
    exponent = 1
    for o in set(orders):
        exponent = exponent * o // _gcd(exponent, o)
    mul = group.mul_table
    abelian = all(mul[a][b] == mul[b][a] for a in members for b in members)
    return (len(members), abelian, exponent, hist)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _candidate_specs(order: int) -> list[tuple[str, str]]:
    """(spec text, display name) candidates for subgroups of the given order."""
    out = [(f"C{order}", "e" if order == 1 else f"C{order}")]
    if order == 4:
        out.append(("perm:(0 1);(2 3)", "K4"))
    if order == 9:
        out.append(("perm:(0 1 2);(3 4 5)", "C3xC3"))
    if order == 6:
        out.append(("S3", "S3"))
    if order == 12:
        out.append(("A4", "A4"))
    if order == 21:
        out.append(("perm:(0 1 2 3 4 5 6);(1 2 4)(3 6 5)", "C7:C3"))
    if order == 24:
        out.append(("S4", "S4"))
    if order % 2 == 0 and order >= 8:
        out.append((f"D{order // 2}", f"D{order // 2}"))
    if order % 4 == 0 and order >= 8:
        out.append((f"Q{order}", f"Q{order}"))
    return out


def _fingerprints_for_order(order: int) -> list[tuple[tuple, str]]:
    cached = _FINGERPRINTS.get(order)
    if cached is None:
        cached = []
        for spec_text, name in _candidate_specs(order):
            try:
                g = realize(parse_group_spec(spec_text), max_order=order)
            except Exception:
                continue
            if g.order != order:
                continue
            fp = _subgroup_fingerprint(g, (1 << g.order) - 1)
            if all(fp != known for known, _ in cached):
                cached.append((fp, name))
        _FINGERPRINTS[order] = cached
    return cached


def structure_tag(group: FiniteGroup, bits: int, order: int) -> str | None:
    fp = _subgroup_fingerprint(group, bits)
    for known, name in _fingerprints_for_order(order):
        if fp == known:
            return name
    return None


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
