"""Prime ideals of the Burnside Tambara functor and their containment poset.

The prime ideals are indexed by pairs (conjugacy class of a subgroup H, p)
with p a prime or 0.  Membership at a level is a mod-p vanishing condition on
marks at the subgroups subconjugate to H.  Containments are decided purely
combinatorially:

    (i)   P(K,0) <= P(H,0)  iff  H subconjugate to K
    (ii)  P(H,0) <  P(H,p)  always;  P(H,p) never inside P(K,0)
    (iii) P(K,p) <= P(H,q)  iff  p = q and O^p(H) subconjugate to O^p(K)
    (iv)  P(K,0) <= P(H,p)  iff  O^p(H) subconjugate to K

where O^p is the p-residual subgroup, so an ideal with p > 0 canonically
equals the one indexed by the p-perfect representative O^p(H).  For any prime
q not dividing |G| the residual is the identity map and all such fibers are
order-isomorphic; the poset therefore materializes one symbolic GENERIC fiber
alongside the fibers over 0 and over each prime dividing |G|.

All four rules read one fact, subconjugacy of canonical classes, so no node
pair is ever compared: each node's successors are one bitset, filled from the
classes subconjugate to its own.

The companion Zariski spectrum of the plain Burnside ring A(G) has the same
node set but only the 0-to-p containments with matching residual, and Krull
dimension 1.

Primality of the ideal family itself is not re-certified by machine (that
would quantify over every element of every level); the enumeration trusts the
classification.  What IS machine-checked here: the Q-condition on concrete
witness pairs, which certifies NON-primality of every ideal attached to a
non-principal family of subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .burnside import BurnsideElement, GhostElement
from .ghost import GhostSystem
from .lattice import bits_iter, conjugate_bits, is_subset, p_residual_bits


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def validate_prime_or_zero(p: int) -> int:
    if p != 0 and not is_prime(p):
        raise ValueError(f"expected a prime or 0, got {p}")
    return p


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def residual_class(system: GhostSystem, cls: int, p: int) -> int:
    """Conjugacy class of O^p(H) for H a representative of the given class."""
    key = (cls, p)
    cached = system._residuals.get(key)
    if cached is None:
        lattice = system.lattice
        rep = lattice.class_reps[cls]
        bits = p_residual_bits(system.group, lattice.subgroups[rep].members, p)
        cached = lattice.class_of[lattice.subgroup_index(bits)]
        system._residuals[key] = cached
    return cached


@dataclass(frozen=True, eq=False)
class PrimeIdeal:
    """Prime ideal indexed by (subgroup class, p); equality is canonical.

    Two ideals are equal iff they have the same p and, for p > 0, conjugate
    p-residuals (for p = 0, conjugate subgroups).
    """

    subgroup_class: int
    p: int
    canonical_class: int

    def __eq__(self, other):
        if not isinstance(other, PrimeIdeal):
            return NotImplemented
        return self.p == other.p and self.canonical_class == other.canonical_class

    def __hash__(self):
        return hash((self.p, self.canonical_class))


def make_prime_ideal(system: GhostSystem, cls: int, p: int) -> PrimeIdeal:
    validate_prime_or_zero(p)
    canonical = cls if p == 0 else residual_class(system, cls, p)
    return PrimeIdeal(cls, p, canonical)


# -- subgroup families --------------------------------------------------------


def family_closed(lattice, classes) -> bool:
    """True iff the class set is nonempty and downward closed under subconjugacy."""
    cset = frozenset(classes)
    if not cset:
        return False
    for c in cset:
        for c2 in range(lattice.num_classes):
            if lattice.subconj[c2][c] and c2 not in cset:
                return False
    return True


def make_family(lattice, classes) -> frozenset[int]:
    cset = frozenset(classes)
    if not family_closed(lattice, cset):
        raise ValueError("a subgroup family must be nonempty and closed under subconjugacy")
    return cset


def principal_family(lattice, cls: int) -> frozenset[int]:
    """F_H = all classes subconjugate to the given class."""
    return frozenset(c for c in range(lattice.num_classes) if lattice.subconj[c][cls])


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


def family_maximal_classes(lattice, family) -> list[int]:
    return sorted(
        c
        for c in family
        if not any(c2 != c and lattice.subconj[c][c2] for c2 in family)
    )


# -- ideal membership ----------------------------------------------------------


def _in_mod(value: int, p: int) -> bool:
    return value == 0 if p == 0 else value % p == 0


def ghost_ideal_membership(
    system: GhostSystem, family, p: int, a: GhostElement
) -> bool:
    """True iff a's coordinate at every subgroup of its level whose class is in
    the family lies in (p)."""
    validate_prime_or_zero(p)
    lattice = system.lattice
    ring = system.level(a.level)
    for cls in range(ring.num_classes):
        g_cls = lattice.class_of[ring.class_reps[cls]]
        if g_cls in family and not _in_mod(a.values[cls], p):
            return False
    return True


def burnside_ideal_membership(
    system: GhostSystem, k_cls: int, p: int, x: BurnsideElement
) -> bool:
    """Membership of a Burnside element in P(K,p) at its level: all marks at
    subgroups subconjugate to K vanish mod p."""
    return ghost_ideal_membership(
        system, principal_family(system.lattice, k_cls), p, system.ghost_map(x)
    )


# -- containment ---------------------------------------------------------------


def ideal_contains(system: GhostSystem, i1: PrimeIdeal, i2: PrimeIdeal) -> bool:
    """True iff i1 is contained in i2: i1 has characteristic 0 or that of i2,
    and the canonical class of i2 is subconjugate to that of i1."""
    if i1.p != 0 and i1.p != i2.p:
        return False
    return system.lattice.subconj[i2.canonical_class][i1.canonical_class]


# -- spectrum poset --------------------------------------------------------------

GENERIC = "GENERIC"


@dataclass(frozen=True)
class SpectrumNode:
    node_id: int
    fiber: str                      # "0", "2", ..., or "GENERIC"
    residual_class: int             # canonical class index
    member_classes: tuple[int, ...]  # classes whose ideal collapses onto this node


@dataclass
class SpectrumPoset:
    group: str
    kind: str                        # "tambara" or "ring"
    nodes: list[SpectrumNode]
    edges: list[tuple[int, int]]     # Hasse edges (a, b) meaning ideal a < ideal b
    fibers: dict[str, list[int]]
    krull_dimension: int
    succ: list[int]                  # per node, the bitset of node ids strictly above it

    def contains(self, a: int, b: int) -> bool:
        """True iff ideal a is contained in ideal b."""
        return a == b or bool(self.succ[a] >> b & 1)


def _collect_nodes(system, fiber_keys):
    """One node per canonical class of each fiber: the class itself over 0
    and GENERIC, its p-residual over a prime p."""
    lattice = system.lattice
    nodes: list[SpectrumNode] = []
    fibers: dict[str, list[int]] = {}
    for fiber in fiber_keys:
        p = None if fiber in ("0", GENERIC) else int(fiber)
        groups: dict[int, list[int]] = {}
        for cls in range(lattice.num_classes):
            res = cls if p is None else residual_class(system, cls, p)
            groups.setdefault(res, []).append(cls)
        fibers[fiber] = []
        for res in sorted(groups):
            fibers[fiber].append(len(nodes))
            nodes.append(SpectrumNode(len(nodes), fiber, res, tuple(groups[res])))
    return nodes, fibers


def _successor_rows(system, nodes, fibers, below) -> list[int]:
    """Each node's strict successors as one bitset, filled from class data.

    Tambara (``below`` the subconjugate lists): node (F, r) lies below the
    nodes of F, and when F is "0" of every fiber, whose class is subconjugate
    to r.  Ring (``below`` None): a 0-node c lies below the node of O^p(c) in
    each p-fiber and of c in GENERIC, and nothing else does.
    """
    lattice = system.lattice
    node_of = {  # per fiber, class -> the node that class indexes
        fiber: {nodes[i].residual_class: i for i in ids} for fiber, ids in fibers.items()
    }
    succ = []
    for node in nodes:
        c, row = node.residual_class, 0
        if below is not None:
            for fiber in fibers if node.fiber == "0" else (node.fiber,):
                at = node_of[fiber]
                row |= sum(1 << at[k] for k in below[c] if k in at)
        elif node.fiber == "0":
            for fiber, at in node_of.items():
                if fiber == GENERIC:
                    row |= 1 << at[c]
                elif fiber != "0":
                    row |= 1 << at[residual_class(system, c, int(fiber))]
        succ.append(row & ~(1 << node.node_id))
    return succ


def _subconjugate_lists(lattice) -> list[list[int]]:
    """below[c]: the classes subconjugate to c, c itself included."""
    below: list[list[int]] = [[] for _ in range(lattice.num_classes)]
    for c1, row in enumerate(lattice.subconj):
        for c2 in compress(range(lattice.num_classes), row):
            below[c2].append(c1)
    return below


def _class_chain_length(lattice, below) -> int:
    """Longest strict chain (edge count) in the subconjugacy poset of classes,
    a DP over the subconjugate lists ``below``."""
    best = [0] * lattice.num_classes
    # A class strictly below c has smaller order, so its chain is final before c's.
    order = lambda c: lattice.subgroups[lattice.class_reps[c]].order
    for c in sorted(range(lattice.num_classes), key=order):
        best[c] = max((best[k] + 1 for k in below[c] if k != c), default=0)
    return max(best, default=0)


def _assemble(system, fiber_keys, ring: bool) -> SpectrumPoset:
    """Nodes, their successor rows, and the Hasse covers.

    The covers of a are succ(a) minus the union of succ(c) over c in succ(a),
    emitted in (a, b) order.
    """
    nodes, fibers = _collect_nodes(system, fiber_keys)
    below = None if ring else _subconjugate_lists(system.lattice)
    succ = _successor_rows(system, nodes, fibers, below)
    edges = []
    for a, row in enumerate(succ):
        above = 0
        for c in bits_iter(row):
            above |= succ[c]
        edges.extend((a, b) for b in bits_iter(row & ~above))
    return SpectrumPoset(
        group=system.group.name,
        kind="ring" if ring else "tambara",
        nodes=nodes,
        edges=edges,
        fibers=fibers,
        krull_dimension=1 if ring else 1 + _class_chain_length(system.lattice, below),
        succ=succ,
    )


def _fiber_keys(system, extra_primes) -> list[str]:
    divisors = prime_factors(system.group.order)
    extras = sorted(
        {validate_prime_or_zero(q) for q in extra_primes} - set(divisors) - {0}
    )
    return ["0"] + [str(p) for p in divisors] + [str(q) for q in extras] + [GENERIC]


def enumerate_spectrum(system: GhostSystem, extra_primes=()) -> SpectrumPoset:
    """The full prime-ideal poset: 0 fiber, one fiber per prime dividing |G|,
    requested extra primes, and one symbolic GENERIC fiber."""
    return _assemble(system, _fiber_keys(system, extra_primes), ring=False)


def burnside_ring_spectrum(system: GhostSystem, extra_primes=()) -> SpectrumPoset:
    """Zariski spectrum of the Burnside ring A(G), same node indexing."""
    return _assemble(system, _fiber_keys(system, extra_primes), ring=True)


# -- Q-condition and non-primality witnesses -------------------------------------


def _norm_route_values(system, a: GhostElement, L_idx: int) -> list[GhostElement]:
    """All nm^L . conj_g . res_H(a) for H over level classes of a's level and
    admissible g (those with ^g H <= L)."""
    group = system.group
    lattice = system.lattice
    L_bits = lattice.subgroups[L_idx].members
    ring = system.level(a.level)
    out = []
    for h_cls in range(ring.num_classes):
        H_idx = ring.class_reps[h_cls]
        restricted = system.ghost_res(a.level, H_idx, a)
        H_bits = lattice.subgroups[H_idx].members
        seen_routes = set()
        for g in range(group.order):
            if not is_subset(conjugate_bits(group, g, H_bits), L_bits):
                continue
            conj = system.ghost_conj(g, restricted)
            val = system.ghost_nm(L_idx, conj.level, conj)
            if val.values not in seen_routes:
                seen_routes.add(val.values)
                out.append(val)
    return out


def q_condition_check(
    system: GhostSystem,
    family,
    p: int,
    a: GhostElement,
    b: GhostElement,
    exhaustive_levels: bool = False,
) -> bool:
    """Evaluate the primality relation Q for the ideal attached to (family, p).

    Iterates every pair of generalized products nm.conj.res applied to a and b
    over all admissible (H1, g1, H2, g2, L); conjugation equivariance of the
    ideal reduces L to class representatives unless ``exhaustive_levels``.
    """
    validate_prime_or_zero(p)
    lattice = system.lattice
    if exhaustive_levels:
        level_ids = list(range(len(lattice.subgroups)))
    else:
        level_ids = [lattice.class_reps[c] for c in range(lattice.num_classes)]
    for L_idx in level_ids:
        va = _norm_route_values(system, a, L_idx)
        vb = _norm_route_values(system, b, L_idx)
        for v1 in va:
            for v2 in vb:
                if not ghost_ideal_membership(system, family, p, v1 * v2):
                    return False
    return True


def non_prime_witness(system: GhostSystem, family, p: int):
    """For a non-principal family, produce the witness pair certifying that the
    attached ideal is not prime; returns None exactly for principal families.

    The witnesses are indicator vectors concentrated at two maximal classes of
    the family with no common upper bound inside it: each is 1 at its own top
    subgroup and 0 below, lies outside the ideal, and the pair satisfies Q.
    """
    validate_prime_or_zero(p)
    lattice = system.lattice
    maximal = family_maximal_classes(lattice, family)
    if len(maximal) == 1:
        assert family == principal_family(lattice, maximal[0])
        return None
    c1, c2 = maximal[0], maximal[1]
    out = []
    for cls in (c1, c2):
        level_idx = lattice.class_reps[cls]
        ring = system.level(level_idx)
        values = [0] * ring.num_classes
        values[ring.num_classes - 1] = 1  # the level subgroup itself is the last class
        out.append(GhostElement(level_idx, tuple(values)))
    return out[0], out[1]
