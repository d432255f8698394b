"""Acceptance criteria.

Each test prints one PASS line (visible under ``pytest -s`` or ``-rP``); all
comparisons are exact integer/graph equality, no tolerances.  Golden poset
shapes are frozen as (node label, node label) containment-edge sets; node
labels are unique within a fiber, so set equality is label-respecting graph
isomorphism.
"""

import json
import random
import time

import pytest

from btspec.burnside import BurnsideElement, GhostElement
from btspec.cli import run as cli_run
from btspec.ghost import GhostSystem, verify_axioms
from btspec.groups import group_from_text
from btspec.gsets import coinduce, coset_space, induce
from btspec.spectrum import (
    GENERIC,
    burnside_ring_spectrum,
    enumerate_spectrum,
    ghost_ideal_membership,
    non_prime_witness,
    principal_family,
    q_condition_check,
    residual_class,
)

from conftest import CORPUS, labels_for, system_for
from oracles import all_families, orbit_decompose, product


def _passed(num, started, detail):
    print(f"ACCEPTANCE {num} PASS ({time.perf_counter() - started:.2f}s): {detail}")


def _fiber_graph(sysg, poset, key):
    labels = labels_for(sysg.group.name)
    ids = set(poset.fibers[key])
    nodes = sorted(labels[poset.nodes[i].residual_class] for i in ids)
    edges = {
        (labels[poset.nodes[a].residual_class], labels[poset.nodes[b].residual_class])
        for a, b in poset.edges
        if a in ids and b in ids
    }
    return nodes, edges


OPPOSITE_A4 = {("A4", "K4"), ("A4", "C3"), ("K4", "C2"), ("C2", "e"), ("C3", "e")}


def test_criterion_1_a4_golden():
    t0 = time.perf_counter()
    sysg = system_for("A4")
    poset = enumerate_spectrum(sysg)
    nodes0, edges0 = _fiber_graph(sysg, poset, "0")
    assert nodes0 == ["A4", "C2", "C3", "K4", "e"]
    assert edges0 == OPPOSITE_A4
    assert _fiber_graph(sysg, poset, "2") == (
        ["A4", "C3", "e"],
        {("A4", "C3"), ("C3", "e")},
    )
    assert _fiber_graph(sysg, poset, "3") == (
        ["C2", "K4", "e"],
        {("K4", "C2"), ("C2", "e")},
    )
    assert _fiber_graph(sysg, poset, GENERIC) == (["A4", "C2", "C3", "K4", "e"], OPPOSITE_A4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"A4 spectrum took {elapsed:.2f}s"
    _passed(1, t0, "A4 fibers 0/2/3/GENERIC match the golden diagrams")


def test_criterion_2_q8_golden():
    t0 = time.perf_counter()
    sysg = system_for("Q8")
    poset = enumerate_spectrum(sysg)
    nodes, edges = _fiber_graph(sysg, poset, GENERIC)
    assert nodes == ["C2", "C4a", "C4b", "C4c", "Q8", "e"]
    assert edges == {
        ("Q8", "C4a"), ("Q8", "C4b"), ("Q8", "C4c"),
        ("C4a", "C2"), ("C4b", "C2"), ("C4c", "C2"), ("C2", "e"),
    }
    assert _fiber_graph(sysg, poset, "2") == (["e"], set())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(2, t0, "Q8 generic fiber is the 6-class opposite lattice; fiber over 2 is a point")


def test_criterion_3_d9_golden():
    t0 = time.perf_counter()
    sysg = system_for("D9")
    poset = enumerate_spectrum(sysg)
    ladder = {
        ("D9", "S3"), ("S3", "C2"), ("C2", "e"),
        ("D9", "C9"), ("C9", "C3"), ("C3", "e"), ("S3", "C3"),
    }
    assert _fiber_graph(sysg, poset, GENERIC) == (
        ["C2", "C3", "C9", "D9", "S3", "e"],
        ladder,
    )
    assert _fiber_graph(sysg, poset, "2") == (
        ["C3", "C9", "e"],
        {("C9", "C3"), ("C3", "e")},
    )
    assert _fiber_graph(sysg, poset, "3") == (
        ["C2", "D9", "S3", "e"],
        {("D9", "S3"), ("S3", "C2"), ("C2", "e")},
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(3, t0, "D9 generic ladder, 3-chain over 2, 4-chain over 3")


GL32_RESIDUAL_TABLE = {
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

GL32_GENERIC_EDGES = {
    ("C2", "e"), ("C3", "e"), ("C7", "e"),
    ("C4", "C2"), ("K4a", "C2"), ("K4b", "C2"), ("S3", "C2"),
    ("S3", "C3"), ("A4a", "C3"), ("A4b", "C3"), ("C7:C3", "C3"),
    ("C7:C3", "C7"),
    ("D4", "C4"),
    ("D4", "K4a"), ("A4a", "K4a"),
    ("D4", "K4b"), ("A4b", "K4b"),
    ("S4a", "S3"), ("S4b", "S3"),
    ("S4a", "D4"), ("S4b", "D4"),
    ("S4a", "A4a"), ("S4b", "A4b"),
    ("GL3_2", "C7:C3"), ("GL3_2", "S4a"), ("GL3_2", "S4b"),
}

GL32_P2_EDGES = {
    ("C3", "e"), ("C7", "e"),
    ("A4a", "C3"), ("A4b", "C3"), ("C7:C3", "C3"), ("C7:C3", "C7"),
    ("GL3_2", "A4a"), ("GL3_2", "A4b"), ("GL3_2", "C7:C3"),
}

GL32_P3_EDGES = {
    ("C2", "e"), ("C7", "e"),
    ("C4", "C2"), ("K4a", "C2"), ("K4b", "C2"), ("S3", "C2"),
    ("D4", "C4"), ("D4", "K4a"), ("D4", "K4b"),
    ("S4a", "S3"), ("S4b", "S3"), ("S4a", "D4"), ("S4b", "D4"),
    ("GL3_2", "C7"), ("GL3_2", "S4a"), ("GL3_2", "S4b"),
}

GL32_P7_EDGES = {
    ("C2", "e"), ("C3", "e"),
    ("C4", "C2"), ("K4a", "C2"), ("K4b", "C2"), ("S3", "C2"),
    ("S3", "C3"), ("A4a", "C3"), ("A4b", "C3"), ("C7:C3", "C3"),
    ("D4", "C4"), ("D4", "K4a"), ("A4a", "K4a"), ("D4", "K4b"), ("A4b", "K4b"),
    ("S4a", "S3"), ("S4b", "S3"), ("S4a", "D4"), ("S4b", "D4"),
    ("S4a", "A4a"), ("S4b", "A4b"),
    ("GL3_2", "C7:C3"), ("GL3_2", "S4a"), ("GL3_2", "S4b"),
}


def test_criterion_4_gl32():
    from btspec.names import class_labels

    t0 = time.perf_counter()
    group = group_from_text("GL3_2")
    sysg = GhostSystem(group)  # fresh build: timing includes lattice enumeration
    labels = class_labels(group, sysg.lattice)
    table = {}
    for cls in range(sysg.lattice.num_classes):
        table[labels[cls]] = tuple(
            labels[residual_class(sysg, cls, p)] for p in (2, 3, 7)
        )
    assert table == GL32_RESIDUAL_TABLE
    poset = enumerate_spectrum(sysg)
    sizes = {k: len(v) for k, v in poset.fibers.items()}
    assert sizes == {"0": 15, "2": 7, "3": 11, "7": 14, GENERIC: 15}

    def graph(key):
        ids = set(poset.fibers[key])
        return {
            (labels[poset.nodes[a].residual_class], labels[poset.nodes[b].residual_class])
            for a, b in poset.edges
            if a in ids and b in ids
        }

    assert graph(GENERIC) == GL32_GENERIC_EDGES
    assert graph("2") == GL32_P2_EDGES
    assert graph("3") == GL32_P3_EDGES
    assert graph("7") == GL32_P7_EDGES
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"GL3_2 run took {elapsed:.1f}s"
    _passed(4, t0, "GL3_2 residual table cell-for-cell and all four fiber diagrams")


def test_criterion_5_axiom_verification_corpus():
    t0 = time.perf_counter()
    total = 0
    for text in CORPUS:
        sysg = GhostSystem(group_from_text(text))
        report = verify_axioms(sysg)
        assert report.ok, f"{text}: {report.failures[:3]}"
        total += report.total_instances
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"verification corpus took {elapsed:.1f}s"
    _passed(5, t0, f"zero violations across {len(CORPUS)} groups, {total} instances")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = naturality = 0
    for text in CORPUS:
        sysg = system_for(text)
        g, lat = sysg.group, sysg.lattice
        for cls in range(lat.num_classes):
            level_idx = lat.class_reps[cls]
            ring = sysg.level(level_idx)
            H_bits = lat.subgroups[level_idx].members
            spaces = [
                coset_space(g, H_bits, ring.class_rep_subgroup(i).members)
                for i in range(ring.num_classes)
            ]
            for i in range(ring.num_classes):
                for j in range(ring.num_classes):
                    decomp = orbit_decompose(product(spaces[i], spaces[j]))
                    coeffs = [0] * ring.num_classes
                    for stab, mult in decomp:
                        coeffs[ring.class_of_bits(stab.members)] += mult
                    got = ring.multiply(ring.basis_element(i), ring.basis_element(j))
                    assert got.coeffs == tuple(coeffs)
                    pairs += 1
        for k_cls in range(lat.num_classes):
            K_idx = lat.class_reps[k_cls]
            K_bits = lat.subgroups[K_idx].members
            ringK = sysg.level(K_idx)
            for h_cls in range(ringK.num_classes):
                H_idx = ringK.class_reps[h_cls]
                ringH = sysg.level(H_idx)
                H_bits = lat.subgroups[H_idx].members
                for j in range(ringH.num_classes):
                    X = coset_space(g, H_bits, ringH.class_rep_subgroup(j).members)
                    chi = GhostElement(H_idx, tuple(ringH.marks_matrix[j]))
                    assert sysg.ghost_tr(K_idx, H_idx, chi) == sysg.oracle_marks(
                        induce(K_bits, X), K_idx
                    )
                    if X.size ** (lat.subgroups[K_idx].order // lat.subgroups[H_idx].order) <= 100_000:
                        co = coinduce(K_bits, X)
                        assert sysg.ghost_nm(K_idx, H_idx, chi) == sysg.oracle_marks(co, K_idx)
                    naturality += 1
    _passed(6, t0, f"{pairs} basis products and {naturality} transfer/norm naturality checks, exact")


def test_criterion_7_marks_tables():
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    checked_levels = 0
    for text in CORPUS + ["GL3_2"]:
        sysg = system_for(text)
        lat = sysg.lattice
        for cls in range(lat.num_classes):
            ring = sysg.level(lat.class_reps[cls])
            n = ring.num_classes
            det = 1
            for i in range(n):
                assert ring.marks_matrix[i][i] > 0
                det *= ring.marks_matrix[i][i]
                for j in range(i + 1, n):
                    assert ring.marks_matrix[i][j] == 0
            assert det != 0
            for _ in range(100):
                x = BurnsideElement(
                    ring.level_index, tuple(rng.randint(-999, 999) for _ in range(n))
                )
                assert ring.unmark(ring.marks(x)) == x
            checked_levels += 1
    _passed(7, t0, f"{checked_levels} levels: triangular, positive diagonal, unmark.marks = id")


def test_criterion_8_classification_consistency():
    t0 = time.perf_counter()
    witnesses = principals = 0
    for text in ("C6", "A4"):
        sysg = system_for(text)
        lat = sysg.lattice
        principal_sets = {
            principal_family(lat, cls) for cls in range(lat.num_classes)
        }
        for family in all_families(lat):
            for p in (0, 2, 3):
                result = non_prime_witness(sysg, family, p)
                if family in principal_sets:
                    assert result is None
                    principals += 1
                else:
                    assert result is not None
                    a, b = result
                    assert not ghost_ideal_membership(sysg, family, p, a)
                    assert not ghost_ideal_membership(sysg, family, p, b)
                    assert q_condition_check(sysg, family, p, a, b)
                    witnesses += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(8, t0, f"{witnesses} certified non-primality witnesses, {principals} principal NoWitness")


def test_criterion_9_dress_comparison():
    t0 = time.perf_counter()
    for text in CORPUS:
        sysg = system_for(text)
        tam = enumerate_spectrum(sysg)
        ring = burnside_ring_spectrum(sysg)
        assert len(tam.nodes) == len(ring.nodes)
        tam_keys = {(n.fiber, n.residual_class) for n in tam.nodes}
        ring_keys = {(n.fiber, n.residual_class) for n in ring.nodes}
        assert tam_keys == ring_keys
        assert ring.krull_dimension == 1
    expected_dims = {"C1": 1, "C3": 2, "A4": 4, "Q8": 4}
    for text, dim in expected_dims.items():
        sysg = system_for(text)
        assert enumerate_spectrum(sysg).krull_dimension == dim
        assert burnside_ring_spectrum(sysg).krull_dimension == 1
    _passed(9, t0, "node bijection on the corpus; Krull 1/1, 1/2, 1/4, 1/4 as expected")


def test_criterion_10_semantic_containment_a4():
    t0 = time.perf_counter()
    sysg = system_for("A4")
    lat = sysg.lattice
    poset = enumerate_spectrum(sysg)

    def effective_p(node):
        return 5 if node.fiber == GENERIC else int(node.fiber)

    def member(node, x):
        fam = principal_family(lat, node.residual_class)
        return ghost_ideal_membership(sysg, fam, effective_p(node), sysg.ghost_map(x))

    # Search pool per level: basis orbits, small prime multiples of them, and
    # indicator vectors scaled by their exact cokernel exponent (the least
    # n > 0 with n * e_c in the image of the mark homomorphism, found by a
    # rational triangular solve).
    from fractions import Fraction
    from math import lcm

    def cokernel_exponent(ring, j):
        mm = ring.marks_matrix
        n = ring.num_classes
        coeffs = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(1 if i == j else 0)
            for k in range(i + 1, n):
                acc -= coeffs[k] * mm[k][i]
            coeffs[i] = acc / mm[i][i]
        return lcm(*(c.denominator for c in coeffs))

    pool = []
    for cls in range(lat.num_classes):
        level_idx = lat.class_reps[cls]
        ring = sysg.level(level_idx)
        for j in range(ring.num_classes):
            basis = ring.basis_element(j)
            pool.append(basis)
            for s in (2, 3, 5):
                pool.append(ring.element([s * c for c in basis.coeffs]))
            indicator = [0] * ring.num_classes
            indicator[j] = cokernel_exponent(ring, j)
            pool.append(ring.unmark(GhostElement(level_idx, tuple(indicator))))

    n = len(poset.nodes)
    implications = separations = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if poset.contains(a, b):
                for x in pool:
                    assert not member(poset.nodes[a], x) or member(poset.nodes[b], x)
                    implications += 1
            else:
                witness = next(
                    (
                        x
                        for x in pool
                        if member(poset.nodes[a], x) and not member(poset.nodes[b], x)
                    ),
                    None,
                )
                assert witness is not None, (
                    f"no separating element for node {poset.nodes[a]} vs {poset.nodes[b]}"
                )
                separations += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(
        10,
        t0,
        f"{implications} membership implications and {separations} separations on A4",
    )


def test_cli_spec_a4_under_one_second(tmp_path, capsys):
    # Criterion 1 also bounds the CLI path end to end.
    t0 = time.perf_counter()
    code = cli_run(["--cache-dir", str(tmp_path), "spec", "A4", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert {k: len(v) for k, v in data["fibers"].items()} == {
        "0": 5, "2": 3, "3": 3, "GENERIC": 5,
    }
    assert elapsed < 1.0
