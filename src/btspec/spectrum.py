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
pair is ever compared: the Hasse covers are read off the covers of the class
poset (``_covers``), and ``SpectrumPoset.contains`` reads the lattice's
``below`` rows.

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

from collections import namedtuple
from functools import cache

from .burnside import BurnsideElement, GhostElement
from .errors import PrimeCountError
from .ghost import GhostSystem
from .groups import prime_factors
from .lattice import bits_iter, is_subset


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Most distinct extra primes a spectrum materializes as fibers.  Each adds one
# node per class and their Hasse edges, so output grows with the prime count
# while the input grows by one flag.
MAX_EXTRA_PRIMES = 4


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 12 prime bases: exact for
    n < 3.18 * 10^23 (Sorenson and Webster, 2015), so for every 64-bit n."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def below_prime_limit(p: int, what: str) -> int:
    """p, if it is below 2^64, where ``is_prime`` is exact with room to spare;
    every prime btspec takes, from the CLI or the library, must be."""
    if p >= 1 << 64:
        raise ValueError(f"{what} must be below 2^64, got {p}")
    return p


def validate_prime_or_zero(p: int) -> int:
    if p != 0 and not is_prime(below_prime_limit(p, "a prime")):
        raise ValueError(f"expected a prime or 0, got {p}")
    return p


def check_extra_primes(extra_primes) -> None:
    """Refuse more than MAX_EXTRA_PRIMES distinct extra primes.  The message
    names the CLI flag, which reports this error as a usage error."""
    distinct = len(set(extra_primes))
    if distinct > MAX_EXTRA_PRIMES:
        raise PrimeCountError(f"at most {MAX_EXTRA_PRIMES} distinct --prime values, got {distinct}")


def residual_class(system: GhostSystem, cls: int, p: int) -> int:
    """Conjugacy class of O^p(H) for H a representative of the given class."""
    return system.lattice.residual_class(cls, p)


# -- subgroup families --------------------------------------------------------


def principal_family(lattice, cls: int) -> frozenset[int]:
    """F_H = all classes subconjugate to the given class."""
    return frozenset(bits_iter(lattice.below[cls]))


def family_maximal_classes(lattice, family) -> list[int]:
    strictly_below = 0
    for c in family:
        strictly_below |= lattice.below[c] & ~(1 << c)
    return sorted(c for c in family if not strictly_below >> c & 1)


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


# -- spectrum poset --------------------------------------------------------------

GENERIC = "GENERIC"


class SpectrumNode(namedtuple("SpectrumNode", "node_id fiber residual_class member_classes")):
    """A prime ideal: its fiber ("0", "2", ..., or "GENERIC"), canonical class
    index, and the classes whose ideal collapses onto it."""

    __slots__ = ()


class SpectrumPoset:
    """The prime ideals of one group's spectrum (``kind`` "tambara" or
    "ring"): Hasse ``edges`` (a, b) mean ideal a < ideal b, split into
    ``fiber_edges[key]``, those inside fiber ``key``, and ``cross_edges``,
    those between fibers, each in edge order.  ``below`` is the lattice's
    subconjugacy rows, which ``contains`` reads, and ``rank[a]`` is the edge
    count of the longest chain inside a's fiber that ends at a."""

    def __init__(self, group: str, kind: str, nodes: list[SpectrumNode],
                 edges: list[tuple[int, int]], fibers: dict[str, list[int]],
                 fiber_edges: dict[str, list[tuple[int, int]]], cross_edges: list[tuple[int, int]],
                 krull_dimension: int, below: list[int], rank: list[int]):
        self.group = group
        self.kind = kind
        self.nodes = nodes
        self.edges = edges
        self.fibers = fibers
        self.fiber_edges = fiber_edges
        self.cross_edges = cross_edges
        self.krull_dimension = krull_dimension
        self.below = below
        self.rank = rank

    def contains(self, a: int, b: int) -> bool:
        """True iff ideal a is contained in ideal b, by rules (i)-(iv) in the
        Tambara spectrum; in the ring, only a 0-node lies below another node,
        the one of its class's residual."""
        if a == b:
            return True
        na, nb = self.nodes[a], self.nodes[b]
        if na.fiber != "0" and na.fiber != nb.fiber:
            return False
        if self.kind == "tambara":
            return bool(self.below[na.residual_class] >> nb.residual_class & 1)
        return nb.fiber != "0" and na.residual_class in nb.member_classes


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


def _covers(below, classes: int) -> dict[int, int]:
    """For each class c of the bitset ``classes``, the bitset of its covers in
    the subconjugacy order induced on ``classes``.  Classes are numbered in
    order of their subgroups' orders, so the largest class strictly below c
    and below no cover found so far is a cover: the walk takes it and drops
    everything below it."""
    out = {}
    for c in bits_iter(classes):
        lower, out[c] = below[c] & classes & ~(1 << c), 0
        while lower:
            d = lower.bit_length() - 1
            out[c] |= 1 << d
            lower &= ~below[d]
    return out


def _assemble(system, fiber_keys, ring: bool) -> SpectrumPoset:
    """Nodes, the Hasse covers split by fiber, and ranks, from class covers.

    (F, c) lies below (F, d) iff d is strictly subconjugate to c, so the
    covers inside F are those of the order induced on F's node classes, one
    table per distinct set of them.  Across fibers only a 0-node has covers.
    Tambara: (0, c) is covered by (F, c) when c is a node class of F, and by
    no other node of F, since (0, c) < (0, r) < (F, r) for r strictly below c.
    Ring: (0, c) lies below the node of O^p(c) in each p-fiber and of c in
    GENERIC, and nothing lies above those.  Edges come in (a, b) order: a
    node's covers inside its fiber, then a 0-node's across fibers in fiber
    order.  Inside a fiber a cover (a, b) has b < a (nodes follow their
    classes, and a smaller class has the larger ideal), so one pass over a
    fiber's covers in reverse finishes a's rank before the covers from a."""
    below = system.lattice.below
    nodes, fibers = _collect_nodes(system, fiber_keys)
    node_of = {key: {nodes[i].residual_class: i for i in ids} for key, ids in fibers.items()}
    covers = cache(lambda classes: _covers(below, classes))
    edges, cross_edges, fiber_edges = [], [], {key: [] for key in fibers}
    for key, ids in fibers.items():
        at = node_of[key]
        table = {} if ring else covers(sum(1 << c for c in at))  # no ring covers inside a fiber
        for a in ids:
            c = nodes[a].residual_class
            inner = [(a, at[d]) for d in bits_iter(table.get(c, 0))]
            cross = []
            for other in fiber_keys[1:] if key == "0" else ():
                r = c if not ring or other == GENERIC else residual_class(system, c, int(other))
                if r in node_of[other]:
                    cross.append((a, node_of[other][r]))
            fiber_edges[key] += inner
            cross_edges += cross
            edges += inner + cross
    rank = [0] * len(nodes)
    for inner in fiber_edges.values():
        for a, b in reversed(inner):
            rank[b] = max(rank[b], rank[a] + 1)
    return SpectrumPoset(
        group=system.group.name,
        kind="ring" if ring else "tambara",
        nodes=nodes,
        edges=edges,
        fibers=fibers,
        fiber_edges=fiber_edges,
        cross_edges=cross_edges,
        krull_dimension=1 if ring else 1 + max(rank[i] for i in fibers["0"]),
        below=below,
        rank=rank,
    )


def _fiber_keys(system, extra_primes) -> list[str]:
    extra_primes = set(extra_primes)
    check_extra_primes(extra_primes)
    divisors = prime_factors(system.group.order)
    extras = sorted({validate_prime_or_zero(q) for q in extra_primes} - set(divisors) - {0})
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
    lattice = system.lattice
    L_bits = lattice.subgroups[L_idx].members
    ring = system.level(a.level)
    out = []
    for h_cls in range(ring.num_classes):
        H_idx = ring.class_reps[h_cls]
        restricted = system.ghost_res(a.level, H_idx, a)
        seen_routes = set()
        for g in range(system.group.order):
            if not is_subset(lattice.subgroups[lattice.conjugation(g)[H_idx]].members, L_bits):
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
) -> bool:
    """Evaluate the primality relation Q for the ideal attached to (family, p).

    Iterates every pair of generalized products nm.conj.res applied to a and b
    over all admissible (H1, g1, H2, g2, L); conjugation equivariance of the
    ideal reduces L to class representatives.
    """
    validate_prime_or_zero(p)
    for L_idx in system.lattice.class_reps:
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
