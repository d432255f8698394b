"""Independent oracles that only the tests call.

Each function here recomputes a quantity that ``btspec`` computes by one
production route, by a different and more direct route: the multiplication
table by composing the image tuples of every pair of elements, G-set products,
disjoint unions and orbit decompositions for Burnside products, the
double-coset formula for ``LevelRing.multiply``, cosets built as sets for
``lattice.left_cosets``/``right_cosets``, double cosets covered element by
element for ``GhostSystem.double_coset_reps`` and built as sets L k H for
the tr and nm terms, fixed cosets found by testing every element, fixed
points counted row by row, the table of marks counted on coset spaces by the
G-set engine, normalizers by conjugating a subgroup by every element for the
printed normalizer orders, subconjugacy by testing every subgroup against
every class representative, the fixed-point counting identity, downward
closure and every subgroup family, the Q-condition over every level,
spectrum containment decided from the ideals' membership definition by
integer linear algebra on the tables of marks, and the spectrum's Hasse
covers by a union over each node's successor bitset.
"""

from __future__ import annotations

from functools import cache

from btspec.burnside import BurnsideElement
from btspec.errors import ContainmentError
from btspec.groups import FiniteGroup, GroupSpec, _generators_for
from btspec.gsets import GSet, coset_space, fixed_points
from btspec.lattice import (
    Subgroup,
    bits_iter,
    conjugate_bits,
    is_subset,
)
from btspec.spectrum import (
    GENERIC,
    _norm_route_values,
    ghost_ideal_membership,
    residual_class,
    validate_prime_or_zero,
)


# -- groups --------------------------------------------------------------------


def realize_by_pairs(spec: GroupSpec) -> dict:
    """``realize``'s degree, order, table, inverses and generators, with
    elements numbered the same way (identity first, then BFS discovery over
    the sorted non-identity generators), but every product and inverse found
    by composing image tuples and looking the result up."""
    raw = _generators_for(spec)
    degree = max(len(g) for g in raw)
    ident = tuple(range(degree))
    gens = sorted(set(raw) - {ident})
    elements, index = [ident], {ident: 0}
    for x in elements:
        for g in gens:
            y = tuple(x[p] for p in g)  # x after g
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    inverse = {}
    for a in elements:
        img = [0] * degree
        for p, q in enumerate(a):
            img[q] = p
        inverse[a] = tuple(img)
    return {
        "degree": degree,
        "order": len(elements),
        "mul_table": [[index[tuple(a[p] for p in b)] for b in elements] for a in elements],
        "inv": [index[inverse[a]] for a in elements],
        "gen_indices": tuple(index[g] for g in gens),
        "generators": tuple(gens),
    }


# -- G-sets --------------------------------------------------------------------


def check_action(X: GSet) -> None:
    """Assert the action respects the group law; O(|H|^2 * size)."""
    members = list(bits_iter(X.acting_bits))
    assert X.action_row(0) == tuple(range(X.size)), "identity must act trivially"
    mul = X.group.mul_table
    for g in members:
        rg = X.action_row(g)
        for h in members:
            rh = X.action_row(h)
            rgh = X.action_row(mul[g][h])
            assert all(rg[rh[x]] == rgh[x] for x in range(X.size)), (
                f"action violates the group law at g={g}, h={h}"
            )


def product(X: GSet, Y: GSet) -> GSet:
    """Cartesian product with the diagonal action; point (x, y) has index x*|Y| + y."""
    if X.acting_bits != Y.acting_bits:
        raise ContainmentError("product requires a common acting subgroup")
    sy = Y.size

    def row_fn(g):
        rx, ry = X.action_row(g), Y.action_row(g)
        return [rx[i] * sy + ry[j] for i in range(X.size) for j in range(sy)]

    return GSet(X.group, X.acting_bits, X.size * sy, row_fn)


def disjoint_union(X: GSet, Y: GSet) -> GSet:
    if X.acting_bits != Y.acting_bits:
        raise ContainmentError("disjoint union requires a common acting subgroup")
    sx = X.size

    def row_fn(g):
        rx, ry = X.action_row(g), Y.action_row(g)
        return list(rx) + [sx + p for p in ry]

    return GSet(X.group, X.acting_bits, sx + Y.size, row_fn)


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
    out = [(Subgroup(b, b.bit_count()), m) for b, m in counts.items()]
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
    for x in map(min, cosets(group, full, K_bits, "left")):
        jx = conjugate_bits(group, group.inv[x], J_bits)
        if is_subset(jx, K_bits):
            rhs += fixed_points(inner, jx)
    return lhs == rhs


# -- cosets --------------------------------------------------------------------


def cosets(group: FiniteGroup, K_bits: int, H_bits: int, side: str) -> list[frozenset[int]]:
    """The left cosets kH (``side`` "left") or right cosets Hk ("right") inside
    K, one set per element k of K, distinct sets ordered by least element."""
    if not is_subset(H_bits, K_bits):
        raise ContainmentError("H must be contained in K")
    mul = group.mul_table
    H = [h for h in range(group.order) if H_bits >> h & 1]
    found = {
        frozenset(mul[k][h] if side == "left" else mul[h][k] for h in H)
        for k in range(group.order)
        if K_bits >> k & 1
    }
    return sorted(found, key=min)


def double_coset_reps(group: FiniteGroup, L_bits: int, K_bits: int, H_bits: int) -> list[int]:
    """Least-index representatives of the double cosets L\\K/H (L, H <= K)."""
    if not (is_subset(L_bits, K_bits) and is_subset(H_bits, K_bits)):
        raise ContainmentError("L and H must be contained in K")
    mul = group.mul_table
    reps, covered = [], 0
    h_list = list(bits_iter(H_bits))
    for k in bits_iter(K_bits):
        if covered >> k & 1:
            continue
        reps.append(k)
        for l in bits_iter(L_bits):
            row = mul[mul[l][k]]
            for h in h_list:
                covered |= 1 << row[h]
    return reps


def double_coset_sets(group: FiniteGroup, L_bits: int, K_bits: int, H_bits: int) -> list:
    """The double cosets L k H inside K (L, H <= K), each built as the set of
    products l k h, distinct sets ordered by least element."""
    mul = group.mul_table
    L, H = list(bits_iter(L_bits)), list(bits_iter(H_bits))
    found = {frozenset(mul[mul[l][k]][h] for l in L for h in H) for k in bits_iter(K_bits)}
    return sorted(found, key=min)


def fixed_cosets(group: FiniteGroup, K_bits: int, H_bits: int, I_bits: int) -> int:
    """Bitset of the numbers (in ``cosets`` order) of the left cosets C of H in
    K with x C = C for every element x of I."""
    mul = group.mul_table
    return sum(
        1 << i
        for i, C in enumerate(cosets(group, K_bits, H_bits, "left"))
        if all({mul[x][c] for c in C} == C for x in bits_iter(I_bits))
    )


def tr_terms(system, K_idx: int, H_idx: int, I_bits: int) -> tuple[int, ...]:
    """``GhostSystem.tr_term_classes`` from the coset sets I fixes, with I^k
    conjugated element by element."""
    group, lat = system.group, system.lattice
    K_bits, H_bits = lat.subgroups[K_idx].members, lat.subgroups[H_idx].members
    kept = fixed_cosets(group, K_bits, H_bits, I_bits)
    sets = cosets(group, K_bits, H_bits, "left")
    ring = system.level(H_idx)
    return tuple(
        ring.class_of_bits(conjugate_bits(group, group.inv[min(sets[i])], I_bits))
        for i in bits_iter(kept)
    )


def nm_factors(system, K_idx: int, H_idx: int, I_bits: int) -> tuple[int, ...]:
    """``GhostSystem.nm_factor_classes`` from the double cosets I g H built as
    sets, with I^g conjugated element by element."""
    group, lat = system.group, system.lattice
    K_bits, H_bits = lat.subgroups[K_idx].members, lat.subgroups[H_idx].members
    ring = system.level(H_idx)
    return tuple(
        ring.class_of_bits(conjugate_bits(group, group.inv[min(D)], I_bits) & H_bits)
        for D in double_coset_sets(group, I_bits, K_bits, H_bits)
    )


def fixed_points_by_rows(X: GSet, I_bits: int) -> int:
    """|X^I| counted point by point against the row of every element of I."""
    rows = [X.action_row(g) for g in bits_iter(I_bits)]
    return sum(1 for x in range(X.size) if all(row[x] == x for row in rows))


def oracle_marks_matrix(ring):
    """|(H/K)^I| counted on the coset space H/K by the brute-force G-set engine."""
    H_bits = ring.subgroup.members
    reps = [ring.class_rep_subgroup(c).members for c in range(ring.num_classes)]
    spaces = [coset_space(ring.group, H_bits, K_bits) for K_bits in reps]
    return [[fixed_points(space, I_bits) for I_bits in reps] for space in spaces]


# -- subgroups -----------------------------------------------------------------


def normalizer_bits(group: FiniteGroup, bits: int) -> int:
    """Bitset of N_G(S): every g with g S g^-1 = S, that is g S g^-1 <= S as
    both have |S| elements, tested for each element g of G."""
    mul, inv = group.mul_table, group.inv
    members = list(bits_iter(bits))
    out = 0
    for g, row in enumerate(mul):
        g_inv = inv[g]
        if all(bits >> mul[row[s]][g_inv] & 1 for s in members):
            out |= 1 << g
    return out


def subconjugacy_rows(lattice) -> list[int]:
    """``SubgroupLattice.below`` by a scan: bit c1 of row c2 is set iff some
    subgroup of class c1 lies inside the representative of class c2, tested
    as a bitset subset for every subgroup up to that representative."""
    ordered = [s.members for s in lattice.subgroups]
    below = []
    for rep in lattice.class_reps:
        outside, row = ~ordered[rep], 0
        for i in range(rep + 1):  # sorted by order: no later subgroup fits inside
            if not ordered[i] & outside:
                row |= 1 << lattice.class_of[i]
        below.append(row)
    return below


# -- Burnside rings ------------------------------------------------------------


def double_coset_product(ring, x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """x * y in A(H) as the bilinear extension of the double-coset formula
    [H/K] * [H/L] = sum over K\\H/L of [H/(K cap ^g L)]."""
    group, H_bits = ring.group, ring.subgroup.members
    out = [0] * ring.num_classes
    for k_cls, a in enumerate(x.coeffs):
        if a == 0:
            continue
        K_bits = ring.class_rep_subgroup(k_cls).members
        for l_cls, b in enumerate(y.coeffs):
            if b == 0:
                continue
            L_bits = ring.class_rep_subgroup(l_cls).members
            for g in double_coset_reps(group, K_bits, H_bits, L_bits):
                out[ring.class_of_bits(K_bits & conjugate_bits(group, g, L_bits))] += a * b
    return BurnsideElement(ring.level_index, tuple(out))


# -- spectrum ------------------------------------------------------------------


def family_closed(lattice, classes) -> bool:
    """True iff the class set is nonempty and downward closed under subconjugacy."""
    mask = 0
    for c in classes:
        mask |= 1 << c
    return mask != 0 and all(not lattice.below[c] & ~mask for c in bits_iter(mask))


def all_families(lattice) -> list[frozenset[int]]:
    """Every nonempty downward-closed class set, ordered by (size, sorted members)."""
    n = lattice.num_classes
    out = []
    for mask in range(1, 1 << n):
        cset = frozenset(c for c in range(n) if mask >> c & 1)
        if family_closed(lattice, cset):
            out.append(cset)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def q_condition_all_levels(system, family, p: int, a, b) -> bool:
    """``q_condition_check`` with L over every subgroup, not only class reps."""
    validate_prime_or_zero(p)
    for L_idx in range(len(system.lattice.subgroups)):
        va = _norm_route_values(system, a, L_idx)
        vb = _norm_route_values(system, b, L_idx)
        for v1 in va:
            for v2 in vb:
                if not ghost_ideal_membership(system, family, p, v1 * v2):
                    return False
    return True


def left_kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """A Z-basis of {x : x A = 0} for the integer matrix A with these rows.

    Row swaps and adding integer multiples of one row to another (a Euclid
    step per column) bring A to echelon form, and the same operations act on
    an identity block beside it: they multiply A by a unimodular U, so the
    rows of U beside the zero rows of U A are a basis of the left kernel."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    work = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(rows)]
    top = 0
    for col in range(width):
        while True:
            live = [i for i in range(top, n) if work[i][col]]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(work[i][col]))
            work[top], work[pivot] = work[pivot], work[top]
            head = work[top]
            for i in range(top + 1, n):
                q = work[i][col] // head[col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], head)]
            if not any(work[i][col] for i in range(top + 1, n)):
                top += 1
                break
    return [row[width:] for row in work[top:]]


def rank_mod(vectors: list[list[int]], p: int) -> int:
    """Rank over F_p of the integer vectors, by Gaussian elimination."""
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        head = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], head)]
        rank += 1
    return rank


def ideal_containment(system, ring: bool = False):
    """``contains((H1, p1), (H2, p2))``, with H a class and p a prime or 0:
    whether P(H1, p1) lies inside P(H2, p2), decided from the definition.

    P(H, p)(L) = {x in A(L) : phi_J(x) in (p) for every J <= L subconjugate to
    H in G}, where phi_J(x) = sum_K x_K |(L/K)^J| reads the marks columns S of
    L's table M at the local classes J of the family.  For the Burnside ring
    (``ring``) it is Dress's q_{H,p} = {x in A(G) : phi_H(x) in (p)}, so S is
    H's column at the top level only.  Ideals are conjugation-invariant, so
    P1 <= P2 iff P1(L) <= P2(L) at every class-representative level L:

    - p1 = 0: P1(L) is the left kernel of M_S1; it lies in P2(L) iff each
      vector of a Z-basis of that kernel has every mark in S2 in (p2);
    - p1 = p2 = p > 0: both contain p Z^n, so it holds iff the left kernels
      of M_S1 and M_S2 over F_p nest, that is iff the columns S2 lie in the
      F_p-span of the columns S1: rank(M_S1) = rank(M_{S1 + S2}) mod p;
    - p1 > 0, p2 != p1: never, since p1 [L/L] has every mark equal to p1,
      and S2 is never empty.

    Subconjugacy comes from ``subconjugacy_rows``.  Kernel bases and ranks
    are kept per (level, S, p)."""
    lattice = system.lattice
    below = subconjugacy_rows(lattice)
    levels = [lattice.top_index] if ring else lattice.class_reps

    @cache
    def columns(L_idx, H_cls) -> int:  # S as a bitset of L's local classes
        level = system.level(L_idx)
        if ring:
            return 1 << level.local_class_of[lattice.class_reps[H_cls]]
        return sum(1 << j for j, r in enumerate(level.class_reps)
                   if below[H_cls] >> lattice.class_of[r] & 1)

    @cache
    def rank(L_idx, S, p) -> int:
        mm = system.level(L_idx).marks_matrix
        return rank_mod([[row[j] for row in mm] for j in bits_iter(S)], p)

    @cache
    def kernel(L_idx, S) -> list[list[int]]:
        mm = system.level(L_idx).marks_matrix
        return left_kernel_basis([[row[j] for j in bits_iter(S)] for row in mm])

    def at_level(L_idx, S1, p1, S2, p2) -> bool:
        if p1:
            return p1 == p2 and rank(L_idx, S1, p1) == rank(L_idx, S1 | S2, p1)
        mm = system.level(L_idx).marks_matrix
        for v in kernel(L_idx, S1):
            for j in bits_iter(S2):
                mark = sum(x * row[j] for x, row in zip(v, mm))
                if mark % p2 if p2 else mark:
                    return False
        return True

    def contains(ideal1, ideal2) -> bool:
        (H1, p1), (H2, p2) = ideal1, ideal2
        return all(at_level(L, columns(L, H1), p1, columns(L, H2), p2) for L in levels)

    return contains


def _placer(nodes, ids, num_classes):
    """The map from a bitset of classes to the bitset of the fiber's nodes
    (``ids``) that those classes index.  A fiber with one node per class
    numbers them in class order, so it is a shift."""
    if len(ids) == num_classes:
        return lambda classes: classes << ids[0]
    at = {nodes[i].residual_class: i for i in ids}
    mask = sum(1 << k for k in at)
    return lambda classes: sum(1 << at[k] for k in bits_iter(classes & mask))


def successor_rows(system, poset) -> list[int]:
    """Each node's strict successors in ``poset`` as one bitset over node ids,
    filled from class data.

    Tambara: node (F, r) lies below the nodes of F, and when F is "0" of
    every fiber, whose class is subconjugate to r.  Ring: a 0-node c lies
    below the node of O^p(c) in each p-fiber and of c in GENERIC, and nothing
    else does."""
    lattice, nodes = system.lattice, poset.nodes
    place = {key: _placer(nodes, ids, lattice.num_classes) for key, ids in poset.fibers.items()}
    succ = []
    for node in nodes:
        c, row = node.residual_class, 0
        if poset.kind == "tambara":
            for key in poset.fibers if node.fiber == "0" else (node.fiber,):
                row |= place[key](lattice.below[c])
        elif node.fiber == "0":
            for key in poset.fibers:
                if key == GENERIC:
                    row |= place[key](1 << c)
                elif key != "0":
                    row |= place[key](1 << residual_class(system, c, int(key)))
        succ.append(row & ~(1 << node.node_id))
    return succ


def hasse_by_union(system, poset):
    """``poset``'s ``edges``, ``fiber_edges``, ``cross_edges`` and ``rank``
    from its nodes alone, by the route assembly once took: the covers of a are
    its successors minus the union of their successors, in (a, b) order, split
    by the fibers of each edge's ends; ranks come from one reverse pass over
    each fiber's covers, whose heads have the smaller ids."""
    succ = successor_rows(system, poset)
    edges = []
    for a, row in enumerate(succ):
        above = 0
        for c in bits_iter(row):
            above |= succ[c]
        edges.extend((a, b) for b in bits_iter(row & ~above))
    fiber_edges = {key: [] for key in poset.fibers}
    cross_edges = []
    for a, b in edges:
        key = poset.nodes[a].fiber
        (fiber_edges[key] if key == poset.nodes[b].fiber else cross_edges).append((a, b))
    rank = [0] * len(poset.nodes)
    for inner in fiber_edges.values():
        for a, b in reversed(inner):
            rank[b] = max(rank[b], rank[a] + 1)
    return edges, fiber_edges, cross_edges, rank
