"""Brute-force finite G-set engine: an oracle only, never a production route.

Coset spaces H/K, restriction, conjugation, induction (K x_H X) and
coinduction (Map_H(K, X)) are realized as honest point sets with explicit
actions, and marks are counted fixed point by fixed point.  These are the
constructions the verifier's chi_* naturality checks need (through
``GhostSystem.oracle_marks``); the table of marks itself is read off the
lattice in ``burnside``.  Products, disjoint unions, orbit decomposition and
the fixed-point counting identity, which only the tests use, live in
``tests/oracles.py``.  Nothing here consults the lattice formula or the
ghost-side maps, so agreement between the two routes is meaningful evidence.
Both sides number cosets with ``lattice.left_cosets``/``right_cosets``, which
the tests check against cosets built as sets.

Action rows are filled lazily, one per acting element asked for, and so are
the bitsets of the points each element fixes, read point by point off its
row (which is then not kept) or off the set a restricted or conjugated set
came from.  A point is fixed by I iff it is fixed by I's generators, so |X^I|
is the popcount of the AND of their bitsets.
"""

from __future__ import annotations

from .errors import CapExceededError, ContainmentError
from .groups import FiniteGroup
from .lattice import (conjugate_bits, fixed_bits, generating_set, is_subset, left_cosets,
                      right_cosets)

# Most points a coinduced set may have; larger sets are skipped by the verifier.
COINDUCE_CAP = 100_000


class GSet:
    """Finite set with an action of a subgroup of the ambient group.

    Rows of the action table are computed on demand through ``row_fn`` and
    cached; so are the bitsets of fixed points, through ``fixed_fn`` when
    given (the bitset of another set's element), else off an uncached row.
    """

    def __init__(self, group: FiniteGroup, acting_bits: int, size: int, row_fn, fixed_fn=None):
        self.group = group
        self.acting_bits = acting_bits
        self.size = size
        self._row_fn = row_fn
        self._fixed_fn = fixed_fn
        self._rows: dict[int, tuple[int, ...]] = {}
        self._fixed: dict[int, int] = {}

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
            fill = self._fixed_fn or (lambda g: fixed_bits(self._rows.get(g) or self._row_fn(g)))
            bits = self._fixed[g] = fill(self._checked(g))
        return bits


def coset_space(group: FiniteGroup, H_bits: int, K_bits: int) -> GSet:
    """The H-set H/K of left cosets, K <= H, points ordered by least coset rep."""
    if not is_subset(K_bits, H_bits):
        raise ContainmentError("K must be contained in H")
    mul = group.mul_table
    reps, coset_of = left_cosets(group, H_bits, K_bits)

    def row_fn(g):
        row = mul[g]
        return [coset_of[row[r]] for r in reps]

    return GSet(group, H_bits, len(reps), row_fn)


def restrict_gset(X: GSet, H_bits: int) -> GSet:
    """The same points with the action restricted to H <= acting subgroup."""
    if not is_subset(H_bits, X.acting_bits):
        raise ContainmentError("restriction target must be a subgroup of the acting subgroup")
    return GSet(X.group, H_bits, X.size, X.action_row, X.fixed_bits)


def conjugate_gset(g: int, X: GSet) -> GSet:
    """The ^g X over ^g H: same points, (g h g^-1) acts as h did."""
    group = X.group
    target = conjugate_bits(group, g, X.acting_bits)
    mul, inv = group.mul_table, group.inv

    # k = g h g^-1 acts as h = g^-1 k g.
    return GSet(group, target, X.size, lambda k: X.action_row(mul[mul[inv[g]][k]][g]),
                lambda k: X.fixed_bits(mul[mul[inv[g]][k]][g]))


def induce(K_bits: int, X: GSet) -> GSet:
    """K x_H X for H = acting subgroup of X: |K:H| * |X| points (t, x)."""
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("induction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps, coset_of = left_cosets(group, K_bits, H_bits)
    sx = X.size

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

    return GSet(group, K_bits, len(reps) * sx, row_fn)


def coinduce(K_bits: int, X: GSet) -> GSet:
    """Map_H(K, X): H-equivariant maps K -> X with K acting by right translation.

    A map is determined freely by its values on right-coset representatives
    t_0, ..., t_{m-1} of H\\K, so there are |X|^m points; point f has base-|X|
    digit i equal to f(t_i).  Raises CapExceededError beyond ``COINDUCE_CAP``.

    A row is built from the definition, digit by digit: (k.f)(t_i) =
    h_i . f(t_j) where t_i k = h_i t_j, so digit j of f feeds exactly digit i
    of k.f, and the row is the sum over j of a term list indexed by digit j.
    """
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("coinduction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps, coset_of = right_cosets(group, K_bits, H_bits)
    m = len(reps)
    size = X.size**m
    if size > COINDUCE_CAP:
        raise CapExceededError(
            f"coinduction would have {X.size}^{m} = {size} points, above cap {COINDUCE_CAP}"
        )
    powers = [X.size**i for i in range(m)]

    def row_fn(k):
        terms = [()] * m
        for i, t in enumerate(reps):
            u = mul[t][k]
            j = coset_of[u]
            h = mul[u][inv[reps[j]]]
            terms[j] = [y * powers[i] for y in X.action_row(h)]
        # Digit 0 varies fastest, so each later digit is the outer loop.
        out = [0]
        for tj in terms:
            out = [x + y for y in tj for x in out]
        return out

    return GSet(group, K_bits, size, row_fn)


def fixed_points(X: GSet, I_bits: int) -> int:
    """|X^I|: the number of points fixed by every generator of I (hence by I)."""
    if not is_subset(I_bits, X.acting_bits):
        raise ContainmentError("I must be contained in the acting subgroup")
    fixed = (1 << X.size) - 1
    for g in generating_set(X.group, I_bits):
        fixed &= X.fixed_bits(g)
    return fixed.bit_count()
