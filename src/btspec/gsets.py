"""Brute-force finite G-set engine: an oracle only, never a production route.

Coset spaces H/K, restriction, conjugation, induction (K x_H X) and
coinduction (Map_H(K, X)) are realized as honest point sets with explicit
actions, and marks are counted as sets of fixed points.  These are the
constructions the verifier's chi_* naturality checks need (through
``GhostSystem.oracle_marks``); the table of marks itself is read off the
lattice in ``burnside``.  Products, disjoint unions, orbit decomposition and
the fixed-point counting identity, which only the tests use, live in
``tests/oracles.py``.  Nothing here consults the lattice formula or the
ghost-side maps, so agreement between the two routes is meaningful evidence.
Both sides number cosets with ``lattice.left_cosets``/``right_cosets``, which
the tests check against cosets built as sets.

Action rows are filled lazily, one per acting element asked for, and so are
the bitsets of the points each element fixes, read off its row (which is
then not kept), off the set a restricted or conjugated set came from, or,
for an induced or coinduced set, solved without a row; the tests check each
solved bitset against its row.  A point is fixed by I iff it is fixed by
I's generators, so |X^I| is the popcount of the AND of their ``fixed_bits``.
"""

from __future__ import annotations

from .errors import CapExceededError, ContainmentError
from .groups import FiniteGroup
from .lattice import (bits_iter, conjugate_bits, fixed_bits, generating_set, is_subset,
                      left_cosets, right_cosets)

# Most points a coinduced set may have; larger sets are skipped by the verifier.
COINDUCE_CAP = 100_000


class GSet:
    """Finite set with an action of a subgroup of the ambient group.

    Rows of the action table are computed on demand through ``row_fn`` and
    cached; so are the bitsets of fixed points, through ``fixed_fn`` when
    given (solved, or another set's bitset), else off an uncached row.
    """

    __slots__ = ("group", "acting_bits", "size", "_row_fn", "_fixed_fn", "_rows", "_fixed")

    def __init__(self, group: FiniteGroup, acting_bits: int, size: int, row_fn, fixed_fn=None):
        self.group = group
        self.acting_bits = acting_bits
        self.size = size
        self._row_fn = row_fn
        self._fixed_fn = fixed_fn
        self._rows: dict[int, tuple[int, ...]] = {}
        self._fixed: dict[int, int] = {}

    def _fixed_off_row(self, g: int) -> int:
        return fixed_bits(self._rows.get(g) or self._row_fn(g))

    def _checked(self, g: int) -> int:
        if not self.acting_bits >> g & 1:
            raise ContainmentError(f"element {g} is not in the acting subgroup")
        return g

    def action_row(self, g: int) -> tuple[int, ...]:
        row = self._rows.get(g)
        if row is None:
            row = self._rows[g] = tuple(self._row_fn(self._checked(g)))
        return row

    def fixed_bits(self, g: int) -> int:
        """Bitset of the points g fixes."""
        bits = self._fixed.get(g)
        if bits is None:
            bits = self._fixed[g] = (self._fixed_fn or self._fixed_off_row)(self._checked(g))
        return bits


def coset_space(group: FiniteGroup, H_bits: int, K_bits: int) -> GSet:
    """The H-set H/K of left cosets, K <= H, points ordered by least coset rep."""
    if not is_subset(K_bits, H_bits):
        raise ContainmentError("K must be contained in H")
    from array import array  # on first use, as in groups.realize

    mul = group.mul_table
    reps, coset_of = left_cosets(group, H_bits, K_bits)
    # Coset numbers by element, two bytes an element of G (|G| < 2^16): much
    # smaller than the dict for the large orbits the verifier keeps.
    number = array("H", bytes(2 * group.order))
    for x, c in coset_of.items():
        number[x] = c

    def row_fn(g):
        row = mul[g]
        return [number[row[r]] for r in reps]

    return GSet(group, H_bits, len(reps), row_fn)


def restrict_gset(X: GSet, H_bits: int) -> GSet:
    """The same points with the action restricted to H <= acting subgroup."""
    if not is_subset(H_bits, X.acting_bits):
        raise ContainmentError("restriction target must be a subgroup of the acting subgroup")
    return GSet(X.group, H_bits, X.size, X.action_row, X.fixed_bits)


def conjugate_gset(g: int, X: GSet, target: int | None = None) -> GSet:
    """The ^g X over ^g H: same points, (g h g^-1) acts as h did.  ``target``,
    when given, is ^g H (sets over one H conjugate it once)."""
    group = X.group
    if target is None:
        target = conjugate_bits(group, g, X.acting_bits)
    mul, gi, row, fixed = group.mul_table, group.inv[g], X.action_row, X.fixed_bits

    # k = g h g^-1 acts as h = g^-1 k g.
    return GSet(group, target, X.size, lambda k: row(mul[mul[gi][k]][g]),
                lambda k: fixed(mul[mul[gi][k]][g]))


def induce(K_bits: int, X: GSet, cosets=None) -> GSet:
    """K x_H X for H = acting subgroup of X: |K:H| * |X| points (t, x).

    k r_t = r_j h sends (t, x) to (j, h.x), so (t, x) is fixed iff k fixes
    the coset t and h = r_t^-1 k r_t fixes x.  ``cosets``, when given, is
    ``left_cosets(group, K_bits, H_bits)`` (sets over one H number them once).
    """
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("induction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps, coset_of = cosets or left_cosets(group, K_bits, H_bits)
    sx = X.size

    def fixed_fn(k):
        krow, bits = mul[k], 0
        for t, r in enumerate(reps):
            u = krow[r]
            if coset_of[u] == t:
                bits |= X.fixed_bits(mul[inv[r]][u]) << t * sx
        return bits

    def row_fn(k):
        out = [0] * (len(reps) * sx)
        krow = mul[k]
        for t, r in enumerate(reps):
            u = krow[r]
            j = coset_of[u]
            h = mul[inv[reps[j]]][u]
            xrow = X.action_row(h)
            base_t, base_j = t * sx, j * sx
            for x in range(sx):
                out[base_t + x] = base_j + xrow[x]
        return out

    return GSet(group, K_bits, len(reps) * sx, row_fn, fixed_fn)


def coinduce(K_bits: int, X: GSet, cosets=None) -> GSet:
    """Map_H(K, X): H-equivariant maps K -> X with K acting by right translation.

    A map is determined freely by its values on right-coset representatives
    t_0, ..., t_{m-1} of H\\K, so there are |X|^m points; point f has base-|X|
    digit i equal to f(t_i).  Raises CapExceededError beyond ``COINDUCE_CAP``.

    A row is built from the definition, digit by digit: (k.f)(t_i) =
    h_i . f(t_j) where t_i k = h_i t_j, so digit j of f feeds exactly digit i
    of k.f, and the row is the sum over j of a term list indexed by digit j.

    Fixed points are solved for instead: f is fixed iff f(t_i) = h_i . f(t_j)
    for every i, so along a cycle i_0 -> i_1 -> ... of i -> j the value at
    i_0 must be fixed by h_{i_0} h_{i_1} ... h_{i_{L-1}}, and it determines
    the others backwards; a fixed point picks one solution per cycle.
    ``cosets``, when given, is ``right_cosets(group, K_bits, H_bits)``.
    """
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("coinduction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps, coset_of = cosets or right_cosets(group, K_bits, H_bits)
    m = len(reps)
    size = X.size**m
    if size > COINDUCE_CAP:
        raise CapExceededError(
            f"coinduction would have {X.size}^{m} = {size} points, above cap {COINDUCE_CAP}"
        )
    powers = [X.size**i for i in range(m)]

    def steps(k):
        # (j, h) per i, for t_i k = h t_j.
        out = []
        for t in reps:
            u = mul[t][k]
            j = coset_of[u]
            out.append((j, mul[u][inv[reps[j]]]))
        return out

    def fixed_fn(k):
        step, seen, bits = steps(k), bytearray(m), 1
        for start in range(m):
            if seen[start]:
                continue
            cycle, i, P = [], start, 0  # P: the cycle's h multiplied left to right; 0 is e
            while not seen[i]:
                seen[i] = 1
                j, h = step[i]
                cycle.append((i, h))
                P = mul[P][h]
                i = j
            starts = X.fixed_bits(P)
            if not starts:
                return 0
            # Each solution: the value y at the start, then back along the cycle.
            back, grown = [(powers[i], X.action_row(h)) for i, h in reversed(cycle[1:])], 0
            for y in bits_iter(starts):
                digits, value = y * powers[start], y
                for power, row in back:
                    value = row[value]
                    digits += value * power
                grown |= bits << digits
            bits = grown
        return bits

    def row_fn(k):
        terms = [()] * m
        for i, (j, h) in enumerate(steps(k)):
            terms[j] = [y * powers[i] for y in X.action_row(h)]
        # Digit 0 varies fastest, so each later digit is the outer loop.
        out = [0]
        for tj in terms:
            out = [x + y for y in tj for x in out]
        return out

    return GSet(group, K_bits, size, row_fn, fixed_fn)


def fixed_points(X: GSet, I_bits: int) -> int:
    """|X^I|: the points ``X.fixed_bits`` has fixed by I's generators (so by I)."""
    if I_bits & ~X.acting_bits:
        raise ContainmentError("I must be contained in the acting subgroup")
    fixed = (1 << X.size) - 1
    for g in generating_set(X.group, I_bits):
        fixed &= X.fixed_bits(g)
    return fixed.bit_count()
