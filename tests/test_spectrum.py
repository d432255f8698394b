"""Prime ideals: membership, containments, poset assembly, Q-condition."""

import pytest
from hypothesis import HealthCheck, assume, given, settings

from btspec.burnside import GhostElement
from btspec.cache import cache_load, cache_path, cache_store, spec_cache_key
from btspec.errors import PrimeCountError
from btspec.ghost import GhostSystem
from btspec.groups import DEFAULT_MAX_ORDER, MAX_ORDER, FiniteGroup, group_from_text
from btspec.lattice import subgroup_lattice
from btspec.names import class_labels
from btspec.spectrum import (
    GENERIC,
    MAX_EXTRA_PRIMES,
    burnside_ideal_membership,
    burnside_ring_spectrum,
    enumerate_spectrum,
    ghost_ideal_membership,
    is_prime,
    non_prime_witness,
    principal_family,
    q_condition_check,
    residual_class,
    validate_prime_or_zero,
)

from conftest import C2_3, C2_5, C2_6, C2_S6, C3_5, C840, CORPUS, labels_for, system_for
from oracles import (
    all_families,
    family_closed,
    hasse_by_union,
    ideal_containment,
    q_condition_all_levels,
)
from test_lattice_oracle import MAX_GENERATED_SUBGROUPS, perm_specs


def cls_of(text, label):
    return labels_for(text).index(label)


def fiber_edges(sysg, poset, key):
    """Edges within one fiber as (residual label, residual label) pairs."""
    labels = labels_for(sysg.group.name)
    ids = set(poset.fibers[key])
    return {
        (labels[poset.nodes[a].residual_class], labels[poset.nodes[b].residual_class])
        for a, b in poset.edges
        if a in ids and b in ids
    }


def fiber_nodes(sysg, poset, key):
    labels = labels_for(sysg.group.name)
    return sorted(labels[poset.nodes[i].residual_class] for i in poset.fibers[key])


def transitive_reduction(contains):
    """Hasse edges of a strict order given as a boolean matrix, by the cubic
    definition: (a, b) unless some c lies strictly between them."""
    n = len(contains)
    edges = []
    for a in range(n):
        for b in range(n):
            if a == b or not contains[a][b]:
                continue
            if any(
                c != a and c != b and contains[a][c] and contains[c][b] for c in range(n)
            ):
                continue
            edges.append((a, b))
    return edges


class TestHasseOracle:
    @pytest.mark.parametrize("text", ["A4", "Q8", "D9", "S4", "GL3_2", "A6", C2_5, C840])
    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_edges_match_cubic_reduction(self, text, build):
        poset = build(system_for(text))
        n = len(poset.nodes)
        strict = [[poset.contains(a, b) and a != b for b in range(n)] for a in range(n)]
        assert poset.edges == transitive_reduction(strict)


def pairwise_contains(sysg, n1, n2, ring):
    """The pairwise containment rule that assembly once applied to every node
    pair, kept as the oracle for ``contains``."""
    if n1.fiber != "0" and n1.fiber != n2.fiber:
        return False  # never across distinct primes, never from p into 0
    if not ring:
        return bool(sysg.lattice.below[n1.residual_class] >> n2.residual_class & 1)
    if n2.fiber == "0":
        return n1.residual_class == n2.residual_class
    # Ring case, 0-node into p-node: kernels agree exactly on matching residuals.
    p2 = n2.fiber
    res = n1.residual_class if p2 == GENERIC else residual_class(sysg, n1.residual_class, int(p2))
    return res == n2.residual_class


class TestContainsOracle:
    @pytest.mark.parametrize(
        "text,extra",
        [(t, ()) for t in ("A4", "Q8", "D9", "S4", "GL3_2", "A6", C2_5, C840)]
        + [("A4", (5,)), (C840, (11,))],
        ids=["A4", "Q8", "D9", "S4", "GL3_2", "A6", "C2_5", "C840", "A4+5", "C840+11"],
    )
    def test_rows_match_pairwise_rule(self, text, extra):
        sysg = system_for(text)
        # GENERIC stands for any prime not dividing |G|; use the least unused one.
        generic_q = next(
            q for q in range(2, 100) if is_prime(q) and sysg.group.order % q and q not in extra
        )
        for ring in (False, True):
            build = burnside_ring_spectrum if ring else enumerate_spectrum
            poset = build(sysg, extra)
            nodes = poset.nodes
            for node in nodes:
                # Each node is indexed by its canonical class: O^p fixes it, and
                # a prime not dividing |G| stands in for GENERIC.
                p = generic_q if node.fiber == GENERIC else int(node.fiber)
                assert p == 0 or residual_class(sysg, node.residual_class, p) == node.residual_class
            for a, na in enumerate(nodes):
                for b, nb in enumerate(nodes):
                    want = pairwise_contains(sysg, na, nb, ring)
                    assert poset.contains(a, b) == want, (text, poset.kind, na, nb)


class TestContainmentFromDefinition:
    """``poset.contains`` against ``oracles.ideal_containment``, which decides
    containment from the ideals' membership definition on the tables of
    marks, over every ordered node pair; every member class of a node must
    give the node's ideal (P(H, p) = P(O^p H, p))."""

    @pytest.mark.parametrize(
        "text,extra",
        [(t, ()) for t in ("S3", "A4", "Q8", "D6", "D9", "S4", C2_3, "GL3_2")]
        + [(t, (5,)) for t in ("A4", "S4", "D9")],
        ids=["S3", "A4", "Q8", "D6", "D9", "S4", C2_3, "GL3_2", "A4+5", "S4+5", "D9+5"],
    )
    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_contains_matches_definition(self, text, extra, build):
        sysg = system_for(text)
        poset = build(sysg, extra)
        contains = ideal_containment(sysg, ring=build is burnside_ring_spectrum)
        # GENERIC stands for any prime not dividing |G|; use the least one not
        # given as an extra prime, whose fiber is a different ideal set.
        generic_q = next(
            q for q in range(2, 100) if is_prime(q) and sysg.group.order % q and q not in extra
        )
        ideals = [
            (node.residual_class, generic_q if node.fiber == GENERIC else int(node.fiber))
            for node in poset.nodes
        ]
        for node, (cls, p) in zip(poset.nodes, ideals):
            for member in node.member_classes:
                assert contains((member, p), (cls, p)) and contains((cls, p), (member, p))
        for a, ideal_a in enumerate(ideals):
            for b, ideal_b in enumerate(ideals):
                assert contains(ideal_a, ideal_b) == poset.contains(a, b), (
                    text, poset.kind, poset.nodes[a], poset.nodes[b]
                )


class TestWorkGuards:
    def test_warm_path_reads_each_element_order_once(self, tmp_path, monkeypatch):
        """A lattice loaded from the cache, its class names and its spectrum
        ask for at most one element order per element: the per-subgroup
        facts are read off ``order_masks``, not element by element."""
        group = group_from_text(C840)
        key = spec_cache_key(group.name, DEFAULT_MAX_ORDER)
        path = cache_path(tmp_path, key)
        cache_store(path, group, subgroup_lattice(group), key)
        group = group_from_text(C840)  # fresh, with no order memoized
        calls = []
        real = FiniteGroup.element_order

        def counted(self, x):
            calls.append(x)
            return real(self, x)

        monkeypatch.setattr(FiniteGroup, "element_order", counted)
        lattice = cache_load(path, group, key)
        class_labels(group, lattice)
        enumerate_spectrum(GhostSystem(group, lattice))
        assert 0 < len(calls) <= group.order


def chain_length_by_pairs(lattice):
    """Longest strict subconjugacy chain by a forward DP over every ordered
    class pair, the route the Krull dimension once took, kept as the oracle."""
    n = lattice.num_classes
    best = [0] * n
    order = sorted(range(n), key=lambda c: lattice.subgroups[lattice.class_reps[c]].order)
    for c in order:
        for c2 in order:
            if c2 != c and lattice.below[c2] >> c & 1:
                best[c2] = max(best[c2], best[c] + 1)
    return max(best) if n else 0


KRULL_CORPUS = CORPUS + ["D9", "GL3_2", "A6", C2_5, C840]

# The groups of the golden fiber diagrams, and C2^4 (67 classes).
RANK_CORPUS = ["A4", "Q8", "D9", "GL3_2", "perm:(0 1);(2 3);(4 5);(6 7)"]


def longest_chain_ending_at(edges, node):
    """Edge count of the longest path along ``edges`` that ends at node, by
    trying every path backwards from it."""
    return max((1 + longest_chain_ending_at(edges, a) for a, b in edges if b == node), default=0)


class TestRank:
    @pytest.mark.parametrize("text", RANK_CORPUS, ids=RANK_CORPUS[:-1] + ["C2_4"])
    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_fiber_edges_point_to_smaller_ids(self, text, build):
        poset = build(system_for(text))
        for a, b in poset.edges:
            if poset.nodes[a].fiber == poset.nodes[b].fiber:
                assert b < a

    @pytest.mark.parametrize("text", RANK_CORPUS, ids=RANK_CORPUS[:-1] + ["C2_4"])
    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_rank_is_longest_chain_in_fiber(self, text, build):
        poset = build(system_for(text))
        for ids in poset.fibers.values():
            inner = [(a, b) for a, b in poset.edges if a in ids and b in ids]
            for i in ids:
                assert poset.rank[i] == longest_chain_ending_at(inner, i)


class TestFiberEdges:
    """``fiber_edges`` and ``cross_edges`` split ``edges`` by the fibers of
    each edge's two ends, keeping edge order."""

    @pytest.mark.parametrize("text", RANK_CORPUS + [C2_5], ids=RANK_CORPUS[:-1] + ["C2_4", "C2_5"])
    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_fiber_and_cross_edges_partition_edges(self, text, build):
        poset = build(system_for(text))
        assert list(poset.fiber_edges) == list(poset.fibers)
        parts = [*poset.fiber_edges.values(), poset.cross_edges]
        assert sorted(e for part in parts for e in part) == sorted(poset.edges)
        position = {e: i for i, e in enumerate(poset.edges)}
        for part in parts:
            assert [position[e] for e in part] == sorted(position[e] for e in part)
        for key, inner in poset.fiber_edges.items():
            ids = set(poset.fibers[key])
            assert all(a in ids and b in ids for a, b in inner)
        fiber_of = {i: key for key, ids in poset.fibers.items() for i in ids}
        assert all(fiber_of[a] != fiber_of[b] for a, b in poset.cross_edges)


class TestKrullOracle:
    @pytest.mark.parametrize(
        "text", KRULL_CORPUS, ids=KRULL_CORPUS[:-2] + ["C2_5", "C840"]
    )
    def test_krull_matches_all_pairs_dp(self, text):
        sysg = system_for(text)
        want = 1 + chain_length_by_pairs(sysg.lattice)
        assert enumerate_spectrum(sysg).krull_dimension == want


def assert_matches_union(sysg, extra):
    """Both spectra's covers, their split by fiber and ranks equal
    ``oracles.hasse_by_union`` on the same nodes."""
    for build in (enumerate_spectrum, burnside_ring_spectrum):
        poset = build(sysg, extra)
        edges, fiber_edges, cross_edges, rank = hasse_by_union(sysg, poset)
        assert poset.edges == edges, poset.kind
        assert poset.fiber_edges == fiber_edges, poset.kind
        assert poset.cross_edges == cross_edges, poset.kind
        assert poset.rank == rank, poset.kind


class TestHasseByUnion:
    """Covers read off the class poset against the union over each node's
    successor bitset; C3^5 takes 2 as an extra prime."""

    @pytest.mark.parametrize(
        "text,extra",
        [(t, ()) for t in RANK_CORPUS] + [(C2_5, ()), (C3_5, (2,))],
        ids=RANK_CORPUS[:-1] + ["C2_4", "C2_5", "C3_5+2"],
    )
    def test_matches_union(self, text, extra):
        assert_matches_union(system_for(text), extra)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=perm_specs())
def test_generated_groups_match_union(text):
    sysg = GhostSystem(group_from_text(text))
    assume(len(sysg.lattice.subgroups) <= MAX_GENERATED_SUBGROUPS)
    assert_matches_union(sysg, (7,))  # blocks on at most 5 points: 7 never divides |G|


def omega(n: int) -> int:
    """The number of prime factors of n, counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


def symmetric_chain_length(n: int) -> int:
    """l(S_n) = ceil(3n/2) - b(n) - 1, b(n) the ones in n's binary expansion
    (Cameron, Solomon and Turull, J. Algebra 127, 1989)."""
    return (3 * n + 1) // 2 - bin(n).count("1") - 1


SOLVABLE = CORPUS + ["D9", "Q16", C2_3, C2_5, C2_6, C3_5, C840, "D1000"]


class TestKrullFromSubgroupChains:
    """The Tambara Krull dimension is 1 + l(G), l(G) the length of the longest
    chain of subgroups: a chain of classes under subconjugacy lifts to one of
    subgroups.  l is additive over normal series, so l(G) = Omega(|G|) for a
    solvable G.  C_n and D_n at the order bounds are checked in
    ``test_families.py``."""

    @pytest.mark.parametrize(
        "text", SOLVABLE, ids=SOLVABLE[:-6] + ["C2_3", "C2_5", "C2_6", "C3_5", "C840", "D1000"]
    )
    def test_solvable_is_one_plus_omega(self, text):
        sysg = system_for(text)
        assert enumerate_spectrum(sysg).krull_dimension == 1 + omega(sysg.group.order)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric(self, n):
        assert enumerate_spectrum(system_for(f"S{n}")).krull_dimension == 1 + symmetric_chain_length(n)

    # l(A_n) = l(S_n) - 1 is data for n <= 7, not a theorem.
    @pytest.mark.parametrize("n", range(3, 8))
    def test_alternating(self, n):
        sysg = system_for(f"A{n}") if n < 7 else GhostSystem(group_from_text("A7", max_order=MAX_ORDER))
        assert enumerate_spectrum(sysg).krull_dimension == symmetric_chain_length(n)

    def test_direct_product_adds(self):
        # l(C2 x S6) = l(C2) + l(S6)
        assert enumerate_spectrum(system_for(C2_S6)).krull_dimension == 1 + 1 + symmetric_chain_length(6)


class TestPrimeHelpers:
    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_is_prime_matches_trial_division(self):
        def by_trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(-5, 20_000) if is_prime(n)] == [
            n for n in range(-5, 20_000) if by_trial(n)
        ]

    @pytest.mark.parametrize(
        "n, prime",
        [
            (10**18 + 3, True),
            (561, False),  # Carmichael number 3 * 11 * 17
            (3215031751, False),  # 151 * 751 * 28351, strong pseudoprime to bases 2, 3, 5, 7
            (2**61 - 1, True),
            (2**64 - 59, True),  # largest prime below 2^64
            ((2**32 - 5) * (2**32 - 17), False),
        ],
    )
    def test_is_prime_large(self, n, prime):
        assert is_prime(n) is prime

    def test_validate(self):
        validate_prime_or_zero(0)
        validate_prime_or_zero(13)
        with pytest.raises(ValueError):
            validate_prime_or_zero(6)
        with pytest.raises(ValueError):
            validate_prime_or_zero(1)

    # The least strong pseudoprime to the first 12 prime bases: is_prime calls
    # it prime, yet it is 399165290221 * 798330580441.
    PSEUDOPRIME = 318665857834031151167461

    def test_library_refuses_primes_past_2_64(self, sys_s3):
        assert is_prime(self.PSEUDOPRIME)
        family = principal_family(sys_s3.lattice, 0)
        ring = sys_s3.level(sys_s3.top_index)
        a, x = ring.all_ones(), ring.basis_element(0)
        calls = [
            lambda p: validate_prime_or_zero(p),
            lambda p: enumerate_spectrum(system_for("C2"), [p]),
            lambda p: burnside_ring_spectrum(system_for("C2"), [p]),
            lambda p: ghost_ideal_membership(sys_s3, family, p, a),
            lambda p: burnside_ideal_membership(sys_s3, 0, p, x),
            lambda p: q_condition_check(sys_s3, family, p, a, a),
            lambda p: non_prime_witness(sys_s3, family, p),
        ]
        for call in calls:
            for p in (self.PSEUDOPRIME, 2**64 + 13):
                with pytest.raises(ValueError, match="below 2\\^64"):
                    call(p)
        assert validate_prime_or_zero(2**64 - 59) == 2**64 - 59


class TestMembership:
    def test_a4_examples(self, sys_a4):
        # chi(A4/C3) = (4,0,1,0,0) is in P(K4,2): coordinates at e, C2, K4 even.
        labels = labels_for("A4")
        k4 = labels.index("K4")
        x_c3 = sys_a4.level(sys_a4.top_index).basis_element(labels.index("C3"))
        assert burnside_ideal_membership(sys_a4, k4, 2, x_c3)
        # [A4/K4] has mark 3 at e: odd, so not in P(K4,2).
        x_k4 = sys_a4.level(sys_a4.top_index).basis_element(k4)
        assert not burnside_ideal_membership(sys_a4, k4, 2, x_k4)
        zero = sys_a4.level(sys_a4.top_index).element((0,) * 5)
        assert burnside_ideal_membership(sys_a4, k4, 2, zero)

    def test_all_ones_never_member(self, sys_a4):
        ring = sys_a4.level(sys_a4.top_index)
        for p in (0, 2, 3, 5):
            for cls in range(sys_a4.lattice.num_classes):
                fam = principal_family(sys_a4.lattice, cls)
                assert not ghost_ideal_membership(sys_a4, fam, p, ring.all_ones())

    def test_p0_means_vanishing(self, sys_a4):
        labels = labels_for("A4")
        fam = principal_family(sys_a4.lattice, labels.index("C2"))
        a = GhostElement(sys_a4.top_index, (0, 0, 5, 7, 9))
        assert ghost_ideal_membership(sys_a4, fam, 0, a)
        b = GhostElement(sys_a4.top_index, (0, 2, 5, 7, 9))
        assert not ghost_ideal_membership(sys_a4, fam, 0, b)

    def test_ghost_equals_burnside_route(self, sys_s3):
        # Membership of x in P(K,p) computed from marks agrees with the direct
        # family-membership of chi(x) for every basis element and level.
        lat = sys_s3.lattice
        for level_cls in range(lat.num_classes):
            level_idx = lat.class_reps[level_cls]
            ring = sys_s3.level(level_idx)
            for k_cls in range(lat.num_classes):
                fam = principal_family(lat, k_cls)
                for j in range(ring.num_classes):
                    x = ring.basis_element(j)
                    for p in (0, 2, 3):
                        assert burnside_ideal_membership(
                            sys_s3, k_cls, p, x
                        ) == ghost_ideal_membership(sys_s3, fam, p, sys_s3.ghost_map(x))


class TestResidualClass:
    def test_a4(self, sys_a4):
        labels = labels_for("A4")
        a4, k4 = labels.index("A4"), labels.index("K4")
        assert residual_class(sys_a4, a4, 3) == k4
        assert residual_class(sys_a4, a4, 2) == a4
        assert residual_class(sys_a4, k4, 2) == labels.index("e")

    def test_gl32_residual_table(self, sys_gl32):
        # The full 15 x {2,3,7} residual table of the order-168 simple group.
        labels = labels_for("GL3_2")
        expected = {
            "C7:C3": ("C7:C3", "C7", "C7:C3"),
            "S4a": ("A4a", "S4a", "S4a"),
            "S4b": ("A4b", "S4b", "S4b"),
            "C7": ("C7", "C7", "e"),
            "S3": ("C3", "S3", "S3"),
            "A4a": ("A4a", "K4a", "A4a"),
            "A4b": ("A4b", "K4b", "A4b"),
            "D4": ("e", "D4", "D4"),
            "C3": ("C3", "e", "C3"),
            "C4": ("e", "C4", "C4"),
            "K4a": ("e", "K4a", "K4a"),
            "K4b": ("e", "K4b", "K4b"),
            "C2": ("e", "C2", "C2"),
            "e": ("e", "e", "e"),
            "GL3_2": ("GL3_2", "GL3_2", "GL3_2"),
        }
        for label, row in expected.items():
            cls = labels.index(label)
            got = tuple(labels[residual_class(sys_gl32, cls, p)] for p in (2, 3, 7))
            assert got == row, f"O^q row for {label}: {got} != {row}"


class TestExtraPrimeBound:
    """The library, not only the CLI, refuses more than MAX_EXTRA_PRIMES
    distinct extra primes: each adds a fiber with one node per class."""

    @pytest.mark.parametrize("build", [enumerate_spectrum, burnside_ring_spectrum])
    def test_one_too_many_raises(self, build):
        primes = (3, 5, 7, 11, 13, 17, 19)[: MAX_EXTRA_PRIMES + 1]
        with pytest.raises(PrimeCountError, match=f"got {MAX_EXTRA_PRIMES + 1}$"):
            build(system_for("perm:(0 1);(2 3);(4 5);(6 7)"), primes)


def ideal_node(poset, label, p):
    """Node id of P(H,p) for H of the given label: the node of fiber p whose
    member classes include the class of H."""
    cls = labels_for(poset.group).index(label)
    return next(i for i in poset.fibers[str(p)] if cls in poset.nodes[i].member_classes)


class TestIdealContains:
    """Containments between named A4 ideals, read off ``poset.contains``."""

    @pytest.fixture()
    def poset(self, sys_a4):
        return enumerate_spectrum(sys_a4, (5,))

    def test_zero_fiber_is_opposite_subconjugacy(self, poset):
        a4, c2 = ideal_node(poset, "A4", 0), ideal_node(poset, "C2", 0)
        assert poset.contains(a4, c2)
        assert not poset.contains(c2, a4)

    def test_zero_into_p(self, poset):
        h_a4_0 = ideal_node(poset, "A4", 0)
        h_a4_2 = ideal_node(poset, "A4", 2)
        h_a4_3 = ideal_node(poset, "A4", 3)
        k4_0 = ideal_node(poset, "K4", 0)
        assert poset.contains(h_a4_0, h_a4_2)
        # O^3(A4) = K4 is subconjugate to K4, so P(K4,0) <= P(A4,3).
        assert poset.contains(k4_0, h_a4_3)
        # but never p back into 0
        assert not poset.contains(h_a4_2, h_a4_0)
        assert not poset.contains(h_a4_2, k4_0)

    def test_cross_prime_never(self, poset):
        i2, i3 = ideal_node(poset, "C3", 2), ideal_node(poset, "C3", 3)
        assert not poset.contains(i2, i3)
        assert not poset.contains(i3, i2)

    def test_equality_is_residual_conjugacy(self, poset):
        # O^3(K4) = O^3(A4) = K4 and O^2(K4) = O^2(C2) = e: each pair is one node.
        assert ideal_node(poset, "K4", 3) == ideal_node(poset, "A4", 3)
        assert ideal_node(poset, "K4", 2) == ideal_node(poset, "C2", 2)

    def test_mutual_containment_iff_equal(self, poset):
        ideals = [ideal_node(poset, label, p)
                  for label in labels_for("A4") for p in (0, 2, 3, 5)]
        for i1 in ideals:
            for i2 in ideals:
                both = poset.contains(i1, i2) and poset.contains(i2, i1)
                assert both == (i1 == i2)


GOLDEN_FIBERS = {
    # (group, fiber) -> (sorted node labels, containment Hasse edges a < b)
    ("A4", "0"): (
        ["A4", "C2", "C3", "K4", "e"],
        {("A4", "K4"), ("A4", "C3"), ("K4", "C2"), ("C2", "e"), ("C3", "e")},
    ),
    ("A4", "2"): (["A4", "C3", "e"], {("A4", "C3"), ("C3", "e")}),
    ("A4", "3"): (["C2", "K4", "e"], {("K4", "C2"), ("C2", "e")}),
    ("A4", GENERIC): (
        ["A4", "C2", "C3", "K4", "e"],
        {("A4", "K4"), ("A4", "C3"), ("K4", "C2"), ("C2", "e"), ("C3", "e")},
    ),
    ("Q8", "2"): (["e"], set()),
    ("Q8", GENERIC): (
        ["C2", "C4a", "C4b", "C4c", "Q8", "e"],
        {
            ("Q8", "C4a"), ("Q8", "C4b"), ("Q8", "C4c"),
            ("C4a", "C2"), ("C4b", "C2"), ("C4c", "C2"), ("C2", "e"),
        },
    ),
    ("D9", GENERIC): (
        ["C2", "C3", "C9", "D9", "S3", "e"],
        {
            ("D9", "S3"), ("S3", "C2"), ("C2", "e"),
            ("D9", "C9"), ("C9", "C3"), ("C3", "e"),
            ("S3", "C3"),
        },
    ),
    ("D9", "2"): (["C3", "C9", "e"], {("C9", "C3"), ("C3", "e")}),
    ("D9", "3"): (
        ["C2", "D9", "S3", "e"],
        {("D9", "S3"), ("S3", "C2"), ("C2", "e")},
    ),
}


class TestSpectrumPoset:
    @pytest.mark.parametrize(
        "text,key", sorted((g, k) for g, k in GOLDEN_FIBERS), ids=lambda v: str(v)
    )
    def test_golden_fibers(self, text, key):
        sysg = system_for(text)
        poset = enumerate_spectrum(sysg)
        want_nodes, want_edges = GOLDEN_FIBERS[(text, key)]
        assert fiber_nodes(sysg, poset, key) == want_nodes
        assert fiber_edges(sysg, poset, key) == want_edges

    def test_fiber_keys(self, sys_a4):
        poset = enumerate_spectrum(sys_a4)
        assert list(poset.fibers) == ["0", "2", "3", GENERIC]

    def test_extra_prime_materialization(self, sys_a4):
        poset = enumerate_spectrum(sys_a4, extra_primes=[5])
        assert list(poset.fibers) == ["0", "2", "3", "5", GENERIC]
        labels5 = sorted(
            labels_for("A4")[poset.nodes[i].residual_class] for i in poset.fibers["5"]
        )
        assert labels5 == ["A4", "C2", "C3", "K4", "e"]

    def test_krull_dimensions(self):
        for text, dim in [("C1", 1), ("C3", 2), ("A4", 4), ("Q8", 4), ("GL3_2", 6)]:
            assert enumerate_spectrum(system_for(text)).krull_dimension == dim

    def test_every_p_node_above_a_zero_node(self, sys_a4, sys_q8):
        for sysg in (sys_a4, sys_q8):
            poset = enumerate_spectrum(sysg)
            zero_ids = set(poset.fibers["0"])
            for node in poset.nodes:
                if node.fiber == "0":
                    continue
                assert any(
                    poset.contains(z, node.node_id) for z in zero_ids
                ), f"node {node} has no 0-node below it"

    def test_edges_are_transitive_reduction(self, sys_a4):
        poset = enumerate_spectrum(sys_a4)
        n = len(poset.nodes)
        # acyclic and closure(edges) == strict containment
        import itertools

        reach = [[False] * n for _ in range(n)]
        for a, b in poset.edges:
            reach[a][b] = True
        for k, i, j in itertools.product(range(n), repeat=3):
            if reach[i][k] and reach[k][j]:
                reach[i][j] = True
        for a in range(n):
            assert not reach[a][a], "cycle in Hasse diagram"
            for b in range(n):
                strict = poset.contains(a, b) and a != b
                assert reach[a][b] == strict

    def test_member_classes_partition(self, sys_gl32):
        poset = enumerate_spectrum(sys_gl32)
        for key in poset.fibers:
            classes = []
            for i in poset.fibers[key]:
                classes.extend(poset.nodes[i].member_classes)
            assert sorted(classes) == list(range(sys_gl32.lattice.num_classes))

    @pytest.mark.parametrize("text", ["C6", "S3", "D4", "Q8", "D6", "A4", "S4"])
    def test_generic_fiber_is_opposite_class_poset(self, text):
        # Hasse edges of the GENERIC fiber = reversed cover relations of the
        # subconjugacy poset of conjugacy classes.
        sysg = system_for(text)
        lat = sysg.lattice
        n = lat.num_classes
        covers = set()
        for a in range(n):
            for b in range(n):
                if a == b or not lat.below[b] >> a & 1:
                    continue
                if any(
                    c != a and c != b and lat.below[c] >> a & 1 and lat.below[b] >> c & 1
                    for c in range(n)
                ):
                    continue
                covers.add((a, b))
        poset = enumerate_spectrum(sysg)
        ids = set(poset.fibers[GENERIC])
        fiber_edges_classes = {
            (poset.nodes[a].residual_class, poset.nodes[b].residual_class)
            for a, b in poset.edges
            if a in ids and b in ids
        }
        assert fiber_edges_classes == {(b, a) for a, b in covers}


class TestRingSpectrum:
    def test_cp_shape(self):
        sysg = system_for("C3")
        poset = burnside_ring_spectrum(sysg)
        assert len(poset.fibers["0"]) == 2
        assert len(poset.fibers["3"]) == 1
        assert len(poset.fibers[GENERIC]) == 2
        assert poset.krull_dimension == 1

    def test_trivial_group_is_spec_z(self):
        poset = burnside_ring_spectrum(system_for("C1"))
        assert len(poset.nodes) == 2
        assert poset.edges == [(0, 1)]

    def test_no_edges_within_fibers(self, sys_a4):
        poset = burnside_ring_spectrum(sys_a4)
        for a, b in poset.edges:
            assert poset.nodes[a].fiber != poset.nodes[b].fiber

    @pytest.mark.parametrize("text", ["C1", "C6", "S3", "D4", "Q8", "A4", "S4"])
    def test_node_bijection_with_tambara_spectrum(self, text):
        sysg = system_for(text)
        tam = enumerate_spectrum(sysg)
        ring = burnside_ring_spectrum(sysg)
        tam_keys = {(n.fiber, n.residual_class) for n in tam.nodes}
        ring_keys = {(n.fiber, n.residual_class) for n in ring.nodes}
        assert tam_keys == ring_keys

    def test_dress_zero_edges_match_residuals(self, sys_a4):
        labels = labels_for("A4")
        poset = burnside_ring_spectrum(sys_a4)
        by_id = {n.node_id: n for n in poset.nodes}
        for a, b in poset.edges:
            na, nb = by_id[a], by_id[b]
            assert na.fiber == "0" and nb.fiber != "0"
            if nb.fiber == GENERIC:
                assert na.residual_class == nb.residual_class
            else:
                assert (
                    residual_class(sys_a4, na.residual_class, int(nb.fiber))
                    == nb.residual_class
                )


class TestFamilies:
    def test_closure_check(self, sys_a4):
        labels = labels_for("A4")
        e, c2, c3, k4 = (labels.index(x) for x in ("e", "C2", "C3", "K4"))
        assert family_closed(sys_a4.lattice, {e, c2, c3})
        assert not family_closed(sys_a4.lattice, {c2, c3})
        assert not family_closed(sys_a4.lattice, set())
        assert not family_closed(sys_a4.lattice, {e, k4})
        assert not family_closed(sys_a4.lattice, {k4})

    def test_all_families_counts(self, sys_c6, sys_a4):
        assert len(all_families(sys_c6.lattice)) == 5
        assert len(all_families(sys_a4.lattice)) == 7

    def test_principal_families(self, sys_a4):
        labels = labels_for("A4")
        k4 = labels.index("K4")
        fam = principal_family(sys_a4.lattice, k4)
        assert fam == {labels.index("e"), labels.index("C2"), k4}


class TestWitness:
    def test_c6_spec_example(self, sys_c6):
        labels = labels_for("C6")
        fam = frozenset(labels.index(x) for x in ("e", "C2", "C3"))
        assert family_closed(sys_c6.lattice, fam)
        for p in (0, 2, 3, 5):
            pair = non_prime_witness(sys_c6, fam, p)
            assert pair is not None
            a, b = pair
            assert a.values == (0, 1) and b.values == (0, 1)
            levels = {
                sys_c6.lattice.subgroups[a.level].order,
                sys_c6.lattice.subgroups[b.level].order,
            }
            assert levels == {2, 3}
            assert not ghost_ideal_membership(sys_c6, fam, p, a)
            assert not ghost_ideal_membership(sys_c6, fam, p, b)
            assert q_condition_check(sys_c6, fam, p, a, b)

    def test_principal_gives_no_witness(self, sys_a4):
        for cls in range(sys_a4.lattice.num_classes):
            fam = principal_family(sys_a4.lattice, cls)
            assert non_prime_witness(sys_a4, fam, 2) is None

    def test_q_condition_fails_for_units(self, sys_a4):
        # all-ones elements are not in the ideal and their products are units:
        # Q fails at the top family.
        top_cls = sys_a4.lattice.class_of[sys_a4.top_index]
        fam = principal_family(sys_a4.lattice, top_cls)
        ones = sys_a4.level(sys_a4.top_index).all_ones()
        assert not q_condition_check(sys_a4, fam, 2, ones, ones)

    def test_q_condition_holds_for_ideal_members(self, sys_a4):
        labels = labels_for("A4")
        fam = principal_family(sys_a4.lattice, labels.index("K4"))
        ring = sys_a4.level(sys_a4.top_index)
        a = sys_a4.ghost_map(ring.basis_element(labels.index("C3")))
        assert ghost_ideal_membership(sys_a4, fam, 2, a)
        assert q_condition_check(sys_a4, fam, 2, a, a)

    def test_exhaustive_levels_flag_agrees(self, sys_c6):
        labels = labels_for("C6")
        fam = frozenset(labels.index(x) for x in ("e", "C2", "C3"))
        assert family_closed(sys_c6.lattice, fam)
        a, b = non_prime_witness(sys_c6, fam, 2)
        assert q_condition_check(sys_c6, fam, 2, a, b)
        assert q_condition_all_levels(sys_c6, fam, 2, a, b)


class TestSemanticSoundness:
    """Membership-level soundness of the combinatorial containment criterion,
    over the whole corpus: containments imply membership implications on all
    basis orbits at all levels, and every non-containment is separated by an
    element of the finite pool (scaled basis orbits plus indicator vectors
    scaled by their exact cokernel exponent)."""

    @staticmethod
    def _pool(sysg):
        from fractions import Fraction
        from math import lcm

        lat = sysg.lattice
        basis, extended = [], []
        for cls in range(lat.num_classes):
            level_idx = lat.class_reps[cls]
            ring = sysg.level(level_idx)
            mm = ring.marks_matrix
            n = ring.num_classes
            for j in range(n):
                b = ring.basis_element(j)
                basis.append(b)
                extended.append(b)
                for s in (2, 3, 5, 7):
                    extended.append(ring.element([s * c for c in b.coeffs]))
                coeffs = [Fraction(0)] * n
                for i in range(n - 1, -1, -1):
                    acc = Fraction(1 if i == j else 0)
                    for k in range(i + 1, n):
                        acc -= coeffs[k] * mm[k][i]
                    coeffs[i] = acc / mm[i][i]
                exponent = lcm(*(c.denominator for c in coeffs))
                indicator = [0] * n
                indicator[j] = exponent
                extended.append(ring.unmark(GhostElement(level_idx, tuple(indicator))))
        return basis, extended

    @pytest.mark.parametrize(
        "text", ["C1", "C2", "C4", "C6", "S3", "D4", "Q8", "D6", "A4", "S4"]
    )
    def test_corpus(self, text):
        sysg = system_for(text)
        lat = sysg.lattice
        poset = enumerate_spectrum(sysg)
        basis, extended = self._pool(sysg)

        generic_q = next(p for p in (5, 7, 11, 13) if sysg.group.order % p != 0)

        def mask(node, elements):
            fam = principal_family(lat, node.residual_class)
            p = generic_q if node.fiber == GENERIC else int(node.fiber)
            out = 0
            for bit, x in enumerate(elements):
                if ghost_ideal_membership(sysg, fam, p, sysg.ghost_map(x)):
                    out |= 1 << bit
            return out

        basis_masks = [mask(n, basis) for n in poset.nodes]
        ext_masks = [mask(n, extended) for n in poset.nodes]
        for a in range(len(poset.nodes)):
            for b in range(len(poset.nodes)):
                if a == b:
                    continue
                if poset.contains(a, b):
                    assert basis_masks[a] & ~basis_masks[b] == 0
                else:
                    assert ext_masks[a] & ~ext_masks[b] != 0, (
                        f"{text}: no separator for {poset.nodes[a]} vs {poset.nodes[b]}"
                    )


class TestIdealClosure:
    """The membership predicate of every prime ideal really is a Tambara ideal:
    transfers, norms, restrictions, and conjugations of the level generators
    stay inside it."""

    def _generators(self, sysg, fam, p, level_idx):
        ring = sysg.level(level_idx)
        lat = sysg.lattice
        gens = [GhostElement(level_idx, (0,) * ring.num_classes)]
        for j in range(ring.num_classes):
            g_cls = lat.class_of[ring.class_reps[j]]
            coeff = p if g_cls in fam else 1
            if coeff == 0:
                continue
            values = [0] * ring.num_classes
            values[j] = coeff
            gens.append(GhostElement(level_idx, tuple(values)))
        return gens

    @pytest.mark.parametrize("text", ["C6", "S3", "A4", "Q8"])
    def test_closed_under_structure_maps(self, text):
        sysg = system_for(text)
        lat = sysg.lattice
        conj_sample = range(sysg.group.order)
        for target_cls in range(lat.num_classes):
            fam = principal_family(lat, target_cls)
            for p in (0, 2, 3):
                for k_cls in range(lat.num_classes):
                    K_idx = lat.class_reps[k_cls]
                    ringK = sysg.level(K_idx)
                    for h_loc in range(ringK.num_classes):
                        H_idx = ringK.class_reps[h_loc]
                        for gen in self._generators(sysg, fam, p, H_idx):
                            up_tr = sysg.ghost_tr(K_idx, H_idx, gen)
                            up_nm = sysg.ghost_nm(K_idx, H_idx, gen)
                            assert ghost_ideal_membership(sysg, fam, p, up_tr)
                            assert ghost_ideal_membership(sysg, fam, p, up_nm)
                        for gen in self._generators(sysg, fam, p, K_idx):
                            down = sysg.ghost_res(K_idx, H_idx, gen)
                            assert ghost_ideal_membership(sysg, fam, p, down)
                    for gen in self._generators(sysg, fam, p, K_idx):
                        for g in conj_sample:
                            moved = sysg.ghost_conj(g, gen)
                            assert ghost_ideal_membership(sysg, fam, p, moved)
