"""Brute-force finite G-set engine: an oracle only, never a production route.

Coset spaces, products, disjoint unions, restriction, conjugation, induction
(K x_H X) and coinduction (Map_H(K, X)) are all realized as honest point sets
with explicit actions, and marks are counted fixed point by fixed point.  Its
callers are the verifier's chi_* naturality checks (through
``GhostSystem.oracle_marks``) and the tests; the table of marks itself is read
off the lattice in ``burnside``.  Nothing here consults the lattice formula or
the ghost-side maps, so agreement between the two routes is meaningful
evidence.

Action tables are indexed by every element of the acting subgroup (not just
generators) so fixed-point tests are table lookups; rows are filled lazily.
"""

from __future__ import annotations

from .errors import CapExceededError, ContainmentError
from .groups import FiniteGroup
from .lattice import (
    Subgroup,
    bit_count,
    bits_iter,
    conjugate_bits,
    is_subset,
    left_transversal,
    right_transversal,
)

DEFAULT_COINDUCE_CAP = 100_000


class GSet:
    """Finite set with an action of a subgroup of the ambient group.

    Rows of the action table are computed on demand through ``row_fn`` and
    cached; ``act(g, x)`` is then a pair of lookups.
    """

    def __init__(self, group: FiniteGroup, acting_bits: int, size: int, row_fn, label: str = ""):
        self.group = group
        self.acting_bits = acting_bits
        self.size = size
        self.label = label
        self._row_fn = row_fn
        self._rows: dict[int, tuple[int, ...]] = {}

    @property
    def acting(self) -> Subgroup:
        return Subgroup(self.acting_bits, bit_count(self.acting_bits))

    def action_row(self, g: int) -> tuple[int, ...]:
        row = self._rows.get(g)
        if row is None:
            if not self.acting_bits >> g & 1:
                raise ContainmentError(f"element {g} is not in the acting subgroup")
            row = tuple(self._row_fn(g))
            self._rows[g] = row
        return row

    def act(self, g: int, x: int) -> int:
        return self.action_row(g)[x]

    def check(self) -> None:
        """Assert the action respects the group law; test helper, O(|H|^2 * size)."""
        members = list(bits_iter(self.acting_bits))
        ident = self.group.identity_index
        assert self.action_row(ident) == tuple(range(self.size)), "identity must act trivially"
        mul = self.group.mul_table
        for g in members:
            rg = self.action_row(g)
            for h in members:
                rh = self.action_row(h)
                rgh = self.action_row(mul[g][h])
                assert all(rg[rh[x]] == rgh[x] for x in range(self.size)), (
                    f"action violates the group law at g={g}, h={h}"
                )


def coset_space(group: FiniteGroup, H_bits: int, K_bits: int) -> GSet:
    """The H-set H/K of left cosets, K <= H, points ordered by least coset rep."""
    if not is_subset(K_bits, H_bits):
        raise ContainmentError("K must be contained in H")
    mul = group.mul_table
    reps = left_transversal(group, H_bits, K_bits)
    coset_of = {}
    for i, r in enumerate(reps):
        row = mul[r]
        for k in bits_iter(K_bits):
            coset_of[row[k]] = i

    def row_fn(g):
        row = mul[g]
        return [coset_of[row[r]] for r in reps]

    return GSet(group, H_bits, len(reps), row_fn, label="coset")


def product(X: GSet, Y: GSet) -> GSet:
    """Cartesian product with the diagonal action; point (x, y) has index x*|Y| + y."""
    if X.acting_bits != Y.acting_bits:
        raise ContainmentError("product requires a common acting subgroup")
    sy = Y.size

    def row_fn(g):
        rx, ry = X.action_row(g), Y.action_row(g)
        return [rx[i] * sy + ry[j] for i in range(X.size) for j in range(sy)]

    return GSet(X.group, X.acting_bits, X.size * sy, row_fn, label="product")


def disjoint_union(X: GSet, Y: GSet) -> GSet:
    if X.acting_bits != Y.acting_bits:
        raise ContainmentError("disjoint union requires a common acting subgroup")
    sx = X.size

    def row_fn(g):
        rx, ry = X.action_row(g), Y.action_row(g)
        return list(rx) + [sx + p for p in ry]

    return GSet(X.group, X.acting_bits, sx + Y.size, row_fn, label="union")


def restrict_gset(X: GSet, H_bits: int) -> GSet:
    """The same points with the action restricted to H <= acting subgroup."""
    if not is_subset(H_bits, X.acting_bits):
        raise ContainmentError("restriction target must be a subgroup of the acting subgroup")
    return GSet(X.group, H_bits, X.size, lambda g: X.action_row(g), label="restrict")


def conjugate_gset(g: int, X: GSet) -> GSet:
    """The ^g X over ^g H: same points, (g h g^-1) acts as h did."""
    group = X.group
    target = conjugate_bits(group, g, X.acting_bits)
    mul, inv = group.mul_table, group.inv

    def row_fn(k):
        # k = g h g^-1 acts as h = g^-1 k g.
        return X.action_row(mul[mul[inv[g]][k]][g])

    return GSet(group, target, X.size, row_fn, label="conjugate")


def induce(K_bits: int, X: GSet) -> GSet:
    """K x_H X for H = acting subgroup of X: |K:H| * |X| points (t, x)."""
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("induction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps = left_transversal(group, K_bits, H_bits)
    coset_of = {}
    for i, r in enumerate(reps):
        row = mul[r]
        for h in bits_iter(H_bits):
            coset_of[row[h]] = i
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

    return GSet(group, K_bits, len(reps) * sx, row_fn, label="induce")


def coinduce(K_bits: int, X: GSet, cap: int = DEFAULT_COINDUCE_CAP) -> GSet:
    """Map_H(K, X): H-equivariant maps K -> X with K acting by right translation.

    A map is determined freely by its values on right-coset representatives
    of H\\K, so there are |X|^[K:H] points; raises CapExceededError beyond
    ``cap``.
    """
    group = X.group
    H_bits = X.acting_bits
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("coinduction requires H <= K")
    mul, inv = group.mul_table, group.inv
    reps = right_transversal(group, K_bits, H_bits)
    m = len(reps)
    size = X.size**m
    if size > cap:
        raise CapExceededError(
            f"coinduction would have {X.size}^{m} = {size} points, above cap {cap}"
        )
    coset_of = {}
    for j, r in enumerate(reps):
        for h in bits_iter(H_bits):
            coset_of[mul[h][r]] = j
    base = X.size
    powers = [base**i for i in range(m)]

    def row_fn(k):
        # (k.f)(t_i) = f(t_i k) = h_i . f(t_{j_i}) where t_i k = h_i t_{j_i}.
        route = []
        for t in reps:
            u = mul[t][k]
            j = coset_of[u]
            h = mul[u][inv[reps[j]]]
            route.append((j, X.action_row(h)))
        out = [0] * size
        for point in range(size):
            digits = []
            rem = point
            for _ in range(m):
                digits.append(rem % base)
                rem //= base
            val = 0
            for i, (j, xrow) in enumerate(route):
                val += xrow[digits[j]] * powers[i]
            out[point] = val
        return out

    return GSet(group, K_bits, size, row_fn, label="coinduce")


def fixed_points(X: GSet, I_bits: int) -> int:
    """|X^I|: the number of points fixed by every element of I."""
    if not is_subset(I_bits, X.acting_bits):
        raise ContainmentError("I must be contained in the acting subgroup")
    ident = X.group.identity_index
    rows = [X.action_row(g) for g in bits_iter(I_bits) if g != ident]
    if not rows:
        return X.size
    count = 0
    for x in range(X.size):
        if all(row[x] == x for row in rows):
            count += 1
    return count


def orbit_decompose(X: GSet) -> list[tuple[Subgroup, int]]:
    """Orbits grouped by conjugacy class of point stabilizer.

    Returns (canonical stabilizer, multiplicity) pairs sorted by (order, bits),
    where the canonical stabilizer is the least bitset among the stabilizers
    occurring along each orbit.  Sum of multiplicity * index(stabilizer)
    recovers |X|.
    """
    members = list(bits_iter(X.acting_bits))
    rows = {g: X.action_row(g) for g in members}
    seen = [False] * X.size
    counts: dict[int, int] = {}
    for x0 in range(X.size):
        if seen[x0]:
            continue
        orbit = {x0}
        frontier = [x0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in members:
                    y = rows[g][x]
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        best = None
        for x in orbit:
            seen[x] = True
            stab = 0
            for g in members:
                if rows[g][x] == x:
                    stab |= 1 << g
            if best is None or stab < best:
                best = stab
        counts[best] = counts.get(best, 0) + 1
    out = [(Subgroup(b, bit_count(b)), m) for b, m in counts.items()]
    out.sort(key=lambda t: (t[0].order, t[0].members))
    return out


def fixed_point_identity_check(
    group: FiniteGroup, H_bits: int, K_bits: int, J_bits: int
) -> bool:
    """Check |(G/H)^J| = sum over J-fixed cosets xK of |(K/H)^{J^x}|.

    Requires H <= K <= G and J <= G; the inner fixed-point sets use the
    conjugate J^x = x^-1 J x, which lands inside K exactly when xK is J-fixed.
    """
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("H must be contained in K")
    full = (1 << group.order) - 1
    lhs = fixed_points(coset_space(group, full, H_bits), J_bits)
    inner = coset_space(group, K_bits, H_bits)
    rhs = 0
    for x in left_transversal(group, full, K_bits):
        jx = conjugate_bits(group, group.inv[x], J_bits)
        if is_subset(jx, K_bits):
            rhs += fixed_points(inner, jx)
    return lhs == rhs
