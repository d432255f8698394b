"""Concrete finite groups as permutation groups with full multiplication tables.

Groups are specified either by a named family (cyclic, dihedral, quaternion,
symmetric, alternating, PSL2(7)/GL3(2)) or by explicit permutation generators,
and realized by breadth-first closure.  ``_FAMILIES`` is the one place a named
family is defined: its spec letter or fixed text, its ``GroupSpec.kind``, its
range message and its generators; parsing, canonical text and realization all
read it.  A permutation of {0, ..., d-1} is the tuple of its images.  Only
``perm:`` input is checked to be one, by the parser's cycle checks; the named
families' generators are trusted.  A realized group keeps its generators and
its multiplication table, not the image tuples of its elements.  Element
indices are stable and deterministic for a given spec: index 0 is the identity
and new elements are numbered in BFS discovery order over the sorted generator
list, so two runs on the same spec produce identical tables.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from functools import cached_property
from math import gcd
from operator import itemgetter

from .errors import OrderExceededError, SpecParseError, SpecRangeError

DEFAULT_MAX_ORDER = 2000

# Largest max_order accepted: it bounds realize's n x n multiplication table, 32 MB
# of two-byte rows at order 4096.  Realizing D2048 or C4096 takes about 0.8-1.0 s, and
# `subgroups --no-cache` on D2048 peaks at 56 MB RSS (146 MB with list rows; CPython 3.11).
MAX_ORDER = 4096

# Largest permutation degree a spec may ask for.  Specs are checked against it
# before any permutation is built, so no input sizes an allocation; D1000, the
# largest dihedral group within the default max order, needs 1000 points.
MAX_DEGREE = 4096

# Most generators a perm: spec may list, checked before any permutation is
# built; a group of order at most MAX_ORDER needs at most 12.
MAX_GENERATORS = 64


class GroupSpec(namedtuple("GroupSpec", "kind parameters generators", defaults=((), None))):
    """Parsed group description: a named family (``kind`` and its integer
    ``parameters``) or explicit ``generators`` as image tuples."""

    __slots__ = ()

    def canonical_text(self) -> str:
        key = _KEY_OF_KIND.get(self.kind)
        if key is not None:  # a letter takes the parameter; a fixed text is whole
            return f"{key}{self.parameters[0]}" if len(key) == 1 else key
        parts = []
        for g in self.generators or ():
            parts.append("".join(f"({' '.join(str(x) for x in cyc)})" for cyc in _cycle_form(g)))
        return "perm:" + ";".join(parts)


def _cycle_form(p: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append(cyc)
    return cycles


def parse_group_spec(text: str) -> GroupSpec:
    """Parse group-spec text: C<n> | D<n> | Q<n> | S<n> | A<n> | PSL2_7 | GL3_2 | perm:...

    D<n> denotes the dihedral group of order 2n.  Raises SpecParseError with a
    position on malformed text and SpecRangeError on invalid parameters.
    """
    text = text.strip()
    if not text:
        raise SpecParseError("empty group spec", 0)
    if len(text) > 1 and text in _FAMILIES:  # a fixed text: its parameter follows the "_"
        return GroupSpec(_FAMILIES[text].kind, (int(text.rpartition("_")[2]),))
    if text.startswith("perm:"):
        return GroupSpec("perm", (), _parse_perm_generators(text, 5))
    m = _NAMED_RE.match(text)
    if m is None:
        raise SpecParseError(f"unrecognized group spec {text!r}", 0)
    letter, digits = m.group(1), m.group(2)
    # int() refuses long digit strings.  An n of more than MAX_DEGREE // 3 digits,
    # leading zeros aside, exceeds 2**MAX_DEGREE, and even C<n> needs log2(n) points.
    if any(map(int, digits[: -(MAX_DEGREE // 3)])):
        _check_degree(text, MAX_DEGREE + 1)
    n = int(digits[-(MAX_DEGREE // 3) :])
    # C<n> acts on the sum of n's prime-power parts; D/Q/S/A<n> on n points.
    degree = sum(_prime_power_parts(n)) if letter == "C" else n
    _check_degree(text, degree)
    family = _FAMILIES[letter]
    if n < 1 or letter == "Q" and (n < 8 or n % 4 != 0):
        raise SpecRangeError(family.range_message.format(n=n))
    return GroupSpec(family.kind, (n,))


def _parse_perm_generators(text: str, offset: int) -> tuple[tuple[int, ...], ...]:
    body = text[offset:]
    if not body:
        raise SpecParseError("perm spec has no generators", offset)
    chunks = body.split(";")
    if len(chunks) > MAX_GENERATORS:
        raise SpecRangeError(f"perm spec has more than {MAX_GENERATORS} generators")
    gen_cycles: list[list[list[int]]] = []
    for chunk in chunks:
        pos = offset
        cycles: list[list[int]] = []
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch.isspace():
                i += 1
                continue
            if ch != "(":
                raise SpecParseError(f"expected '(' but found {ch!r}", pos + i)
            close = chunk.find(")", i)
            if close < 0:
                raise SpecParseError("unclosed cycle", pos + i)
            inner = chunk[i + 1 : close].replace(",", " ").split()
            try:
                points = _cycle_points(inner)
            except ValueError:
                raise SpecParseError(f"non-integer point in cycle {chunk[i:close + 1]!r}", pos + i)
            if any(p < 0 for p in points):
                raise SpecParseError("negative point in cycle", pos + i)
            if len(set(points)) != len(points):
                raise SpecParseError("repeated point in cycle", pos + i)
            if points:
                cycles.append(points)
            i = close + 1
        gen_cycles.append(cycles)
        offset += len(chunk) + 1
    degree = max((p for cycles in gen_cycles for cyc in cycles for p in cyc), default=0) + 1
    _check_degree(text, degree)
    gens = []
    for cycles in gen_cycles:
        img = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if img[a] != a:
                    raise SpecParseError(f"point {a} repeated across cycles", 5)
                img[a] = b
        gens.append(tuple(img))
    return tuple(gens)


_INTEGER_RE = re.compile(r"[+-]?\d+(?:_\d+)*")  # what int() reads in base 10


def _cycle_points(tokens: list[str]) -> list[int]:
    """The points int() reads from a cycle's tokens.  int() refuses more than
    sys.get_int_max_str_digits() digits; a point that long, leading zeros aside,
    is past MAX_DEGREE.  It stands in, with its sign, as 10^limit (which no int()
    result reaches) plus its rank among the cycle's long points, so the checks
    after it run as for any large point."""
    ranks: dict[str, int] = {}
    points = []
    for tok in tokens:
        try:
            points.append(int(tok))
            continue
        except ValueError:
            if not _INTEGER_RE.fullmatch(tok):
                raise
        digits = "".join(str(int(c)) for c in tok.lstrip("+-") if c != "_").lstrip("0")
        limit = sys.get_int_max_str_digits()
        if len(digits) <= limit:
            value = int(digits or 0)
        else:
            value = 10**limit + ranks.setdefault(digits, len(ranks))
        points.append(-value if tok[0] == "-" else value)
    return points


def _check_degree(text: str, degree: int) -> None:
    if degree > MAX_DEGREE:
        raise SpecRangeError(f"{text!r} needs more than {MAX_DEGREE} permutation points")


def prime_factors(n: int) -> list[int]:
    """The primes dividing n, ascending.  Trial division stops past MAX_DEGREE
    and keeps any cofactor left whole; it has only larger prime factors, so the
    list is exact below (MAX_DEGREE + 1)^2, group orders included."""
    out, d = [], 2
    while d * d <= n and d <= MAX_DEGREE:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power_parts(n: int) -> list[int]:
    """The prime-power factors of n, by ascending prime.  A cofactor kept whole
    by ``prime_factors`` is one part, so the sum passes MAX_DEGREE as the true one does."""
    parts = []
    for p in prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        parts.append(q)
    return parts


def _cyclic_generator(n: int) -> list[tuple[int, ...]]:
    # Disjoint cycles of prime-power lengths: minimal faithful degree for C_n.
    if n == 1:
        return [(0,)]
    img, start = [], 0
    for q in _prime_power_parts(n):
        img += [*range(start + 1, start + q), start]
        start += q
    return [tuple(img)]


def _dihedral_generators(m: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(1, 0)]
    if m == 2:
        return [(1, 0, 2, 3), (0, 1, 3, 2)]
    rot = (*range(1, m), 0)
    refl = tuple((m - i) % m for i in range(m))
    return [rot, refl]


def _quaternion_generators(n: int) -> list[tuple[int, ...]]:
    # Dicyclic group of order n = 4k acting on itself from the left: a^i b^j is
    # point j m + i for m = n/2, 0 <= i < m, with b^2 = a^(m/2) and b a b^-1 = a^-1.
    m = n // 2
    a = (*range(1, m), 0, *range(m + 1, n), m)
    b = (*(m + -i % m for i in range(m)), *((m // 2 - i) % m for i in range(m)))
    return [a, b]


def _symmetric_generators(n: int) -> list[tuple[int, ...]]:
    # (0 1) and (0 1 ... n-1), one permutation at n = 2: realize drops repeats.
    if n == 1:
        return [(0,)]
    return [(1, 0, *range(2, n)), (*range(1, n), 0)]


def _alternating_generators(n: int) -> list[tuple[int, ...]]:
    # (0 1 2) and the longest cycle of odd length: (0 ... n-1) or (1 ... n-1),
    # one permutation at n = 3.
    if n <= 2:
        return [tuple(range(max(n, 1)))]
    three = (1, 2, 0, *range(3, n))
    if n % 2 == 1:
        big = (*range(1, n), 0)
    else:
        big = (0, *range(2, n), 1)
    return [three, big]


def _psl2_generators(p: int) -> list[tuple[int, ...]]:
    # Projective line over F_p: points 0..p-1 and infinity = p.
    # z -> z + 1 and z -> -1/z, with z^-1 = z^(p-2).
    return [(*range(1, p), 0, p), (p, *(-pow(z, p - 2, p) % p for z in range(1, p)), 0)]


def _gl3_2_generators(q: int) -> list[tuple[int, ...]]:
    # Nonzero vectors v of F2^3 as the integers 1..7, acting on points v - 1 (q = 2
    # only): the transvection e1 -> e0 + e1 and the rotation e0 -> e1 -> e2 -> e0.
    return [tuple((v ^ v >> 1 & 1) - 1 for v in range(1, 8)),
            tuple((v << 1 & 6 | v >> 2) - 1 for v in range(1, 8))]


_Family = namedtuple("_Family", "kind range_message build")

# The one place a named family is defined, keyed by its spec letter (C<n>, ...)
# or its fixed text: its GroupSpec kind, the SpecRangeError message for n < 1
# (for Q<n> also n not a multiple of 4 and >= 8), and its generators from n.
_FAMILIES = {
    "C": _Family("cyclic", "cyclic order must be >= 1", _cyclic_generator),
    "D": _Family("dihedral", "dihedral parameter must be >= 1 (order 2n)", _dihedral_generators),
    "Q": _Family(
        "quaternion", "quaternion order must be a multiple of 4 and >= 8, got {n}",
        _quaternion_generators,
    ),
    "S": _Family("symmetric", "symmetric degree must be >= 1", _symmetric_generators),
    "A": _Family("alternating", "alternating degree must be >= 1", _alternating_generators),
    "PSL2_7": _Family("psl2", None, _psl2_generators),
    "GL3_2": _Family("gl3", None, _gl3_2_generators),
}
_KEY_OF_KIND = {family.kind: key for key, family in _FAMILIES.items()}
_NAMED_RE = re.compile(f"^([{''.join(key for key in _FAMILIES if len(key) == 1)}])(\\d+)$")


def _generators_for(spec: GroupSpec) -> list[tuple[int, ...]]:
    if spec.kind == "perm":
        return list(spec.generators or ())
    key = _KEY_OF_KIND.get(spec.kind)
    if key is None:
        raise ValueError(f"unknown spec kind {spec.kind!r}")
    return _FAMILIES[key].build(spec.parameters[0])


class FiniteGroup:
    """Fully enumerated permutation group.

    ``mul_table[i][j]`` is the index of the product of elements i and j;
    index 0 is always the identity.  Each row is an ``array("H")``: every index
    fits two bytes, as the order is at most MAX_ORDER < 2^16, where a list
    takes eight per entry, and a garbage collection walks no entry of it.
    ``generators`` are the image tuples of the elements ``gen_indices``.
    Instances are immutable by convention and safe to share across threads;
    element orders and subgroup generating sets are memoized on them as they
    are asked for, and ``order_masks`` once.
    """

    def __init__(self, spec: GroupSpec, degree: int, generators: tuple[tuple[int, ...], ...],
                 mul_table: list, inv: list[int], gen_indices: tuple[int, ...] = ()):
        self.spec = spec
        self.degree = degree
        self.generators = generators
        self.mul_table = mul_table
        self.inv = inv
        self.gen_indices = gen_indices
        self._orders = [0] * len(inv)
        self._gensets: dict[int, tuple[int, ...]] = {}

    @property
    def order(self) -> int:
        return len(self.inv)

    @property
    def name(self) -> str:
        return self.spec.canonical_text()

    def element_order(self, x: int) -> int:
        """The order of x.  The walk over the powers of x that finds it m also
        fills in the order m / gcd(k, m) of each power x^k."""
        orders = self._orders
        if not orders[x]:
            powers = [x]
            while powers[-1]:
                powers.append(self.mul_table[powers[-1]][x])
            for k, power in enumerate(powers, 1):
                orders[power] = len(powers) // gcd(k, len(powers))
        return orders[x]

    @cached_property
    def order_masks(self) -> dict[int, int]:
        """Element order -> bitset of the elements of that order, so a
        subgroup's counts of each order are bit counts of its bitset."""
        masks: dict[int, int] = {}
        for x in range(self.order):
            order = self.element_order(x)
            masks[order] = masks.get(order, 0) | 1 << x
        return masks

    @cached_property
    def gen_conjugations(self) -> list[list[int]]:
        """For each of ``gen_indices`` s outside the centre of G, the list
        sending element x to s x s^-1 (a central s conjugates nothing)."""
        mt, inv, gens = self.mul_table, self.inv, self.gen_indices
        return [[mt[mt[s][x]][inv[s]] for x in range(self.order)]
                for s in gens if any(mt[s][t] != mt[t][s] for t in gens)]

    @property
    def is_abelian(self) -> bool:
        return not self.gen_conjugations


def realize(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Enumerate the group generated by the spec's generators via BFS closure.

    Raises OrderExceededError if the closure passes ``max_order``, which
    must lie in 1..MAX_ORDER.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    from array import array  # on first use: `import btspec.cli` does not load it
    from struct import Struct

    raw = _generators_for(spec)
    degree = max(map(len, raw), default=1)
    _check_degree(spec.kind, degree)  # for a GroupSpec built without the parser
    ident = tuple(range(degree))
    gens = sorted(set(raw) - {ident})
    # Element i is element x * gens[j] (gens[j] applied first) for deriv[i] = (x, j),
    # and step[x][j] is the index of that product.  A non-identity permutation
    # moves at least two points, so each itemgetter returns a tuple.  Elements are
    # looked up by their images packed two bytes each (degree <= MAX_DEGREE < 2^16),
    # and the queue lets go of each image tuple once it is walked.
    right = [itemgetter(*g) for g in gens]
    key = Struct(f"{degree}H").pack
    queue = [ident]
    index = {key(*ident): 0}
    deriv: list[tuple[int, int]] = [(0, -1)]
    step: list[list[int]] = []
    for pos, x in enumerate(queue):
        queue[pos] = None
        row = []
        for j, times_g in enumerate(right):
            y = times_g(x)
            i = index.setdefault(key(*y), len(queue))
            if i == len(queue):
                if i >= max_order:
                    raise OrderExceededError(
                        f"group closure for {spec.canonical_text()!r} exceeds max_order={max_order}"
                    )
                queue.append(y)
                deriv.append((pos, j))
            row.append(i)
        step.append(row)
    gen_indices = tuple(index[key(*g)] for g in gens)
    gen_inverses = [index[key(*sorted(range(len(g)), key=g.__getitem__))] for g in gens]
    del queue, index

    # left[k] reads off the indices of gens[k] * element i: for element i = x * gens[j]
    # that is (gens[k] * x) * gens[j], and row i of the table is row x read through left[j].
    n = len(deriv)
    left = []
    for k in gen_indices:
        row = [k]
        for x, j in deriv[1:]:
            row.append(step[row[x]][j])
        left.append(itemgetter(*row))
    # Rows are gathered from their parent's tuple, whose ints all come from row 0,
    # and packed into arrays.  The walk is depth-first over the derivation tree and
    # takes each element's children smallest subtree first, so the only tuples kept
    # are those of the at most log2(n) + 1 ancestors that still wait for a child.
    size, kids = [1] * n, [[] for _ in range(n)]
    for i in range(n - 1, 0, -1):
        size[deriv[i][0]] += size[i]
        kids[deriv[i][0]].append(i)
    for pending in kids:
        pending.sort(key=size.__getitem__, reverse=True)
    pack = Struct(f"{n}H").pack
    mul = [array("H", range(n))] * n  # row 0; the walk replaces every other row
    walk = [(tuple(range(n)), kids[0])] if n > 1 else []
    while walk:
        parent, pending = walk[-1]
        i = pending.pop()
        if not pending:
            walk.pop()
        row = left[deriv[i][1]](parent)
        mul[i] = array("H", pack(*row))
        if kids[i]:
            walk.append((row, kids[i]))
    # (x * gens[j])^-1 = gens[j]^-1 * x^-1, and x precedes x * gens[j] in BFS order.
    inv = [0]
    for x, j in deriv[1:]:
        inv.append(mul[gen_inverses[j]][inv[x]])
    return FiniteGroup(spec, degree, tuple(gens), mul, inv, gen_indices)


def group_from_text(text: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    return realize(parse_group_spec(text), max_order)
