"""The ghost of the Burnside Tambara functor and its axiom-verification harness.

Levels are the ghost rings of the subgroups of G (mark vectors constant on
conjugacy classes).  The four structure maps act coordinatewise:

    res^K_H(b)_L  = b_L                                     (projection)
    tr^K_H(a)_I   = sum over [k] in K/H with I^k <= H of a_{I^k}
    nm^K_H(a)_I   = product over [g] in I\\K/H of a_{I^g cap H}
    c_{g,H}(a)_J  = a_{J^g}                                  (J <= ^g H)

with ^g S = g S g^-1 and S^g = g^-1 S g; the two conventions are NOT
interchangeable here, and the verifier's double-coset checks fail if they are
swapped.  Maps are compiled once per level pair into routing tables, so
repeated applications are cheap: a res or conj route is the tuple of source
coordinates its target coordinates read.  ``lattice.left_cosets`` numbers the
left cosets K/H once per (K, H), with each element's row on the coset numbers
and bitset of fixed cosets: the terms of tr at I are the cosets I fixes (an
AND over I's generators), and the factors of nm at I are the I-orbits on the
coset numbers (traced along its generators' rows).  Conjugates are read off
``SubgroupLattice.conjugation``, a permutation of subgroup indices.

``verify_axioms`` machine-checks, exhaustively over subgroup-chain classes:
functoriality of all four maps, both double-coset formulas, Frobenius
reciprocity, conjugation compatibilities, naturality of the mark map against
the brute-force G-set oracle, the two finitely checkable Tambara-reciprocity
cases (norm of a sum and norm of a proper transfer, on top coordinates), and
Weyl invariance (class constancy) of transfer/norm outputs.

Every one of these except the ``chi_*`` naturality is an identity between
composites of routing tables: at each target coordinate a side reads one
source coordinate (res, conj) or adds or multiplies a multiset of them (tr,
nm).  The sweep decides each block of checks by comparing those coordinate
forms, which proves it for every ghost element at once, and counts its
instances with ``VerificationReport.proved``; only a block whose identity
fails runs its per-element loop over the test elements (mark rows, the unit,
seeded random vectors), recording each instance with
``VerificationReport.check``.  Counts, failures and their order are therefore
those of the element-by-element sweep.  One block checks each tr/nm twin
(functoriality, double-coset formula, conjugacy), with products in place of
sums for nm.  The ``chi_*`` checks compare the maps' outputs with mark vectors
counted on concrete G-sets, so they also test how the routes are applied.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from functools import reduce
from math import prod

from .burnside import BurnsideElement, GhostElement, LevelRing
from .errors import CapExceededError, ContainmentError
from .groups import FiniteGroup
from .gsets import (
    coinduce,
    conjugate_gset,
    coset_space,
    fixed_points,
    induce,
    restrict_gset,
)
from .lattice import (
    SubgroupLattice,
    bits_iter,
    coset_action,
    generating_set,
    is_subset,
    right_cosets,
    subgroup_lattice,
)

DEFAULT_SEED = 0x5EED
COORD_BOUND = 9
MAX_RECORDED_FAILURES = 25  # later failures are only counted
RANDOM_ELEMENTS = 32  # seeded random test vectors per level


class GhostSystem:
    """Level-indexed ghost rings with restriction, transfer, norm, conjugation.

    Levels are keyed by global subgroup index.  Level and route caches are
    fill-only; ``verify_axioms`` clears the coset actions at each K and a
    pair's after its Weyl check, and the lattice's permutations when it ends.
    """

    def __init__(self, group: FiniteGroup, lattice: SubgroupLattice | None = None):
        self.group = group
        self.lattice = lattice if lattice is not None else subgroup_lattice(group)
        self._levels: dict[int, LevelRing] = {}
        self._res_routes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._tr_routes: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._nm_routes: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._conj_routes: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        self._cosets: dict[tuple[int, int], tuple] = {}

    @property
    def top_index(self) -> int:
        return self.lattice.top_index

    def level(self, sub_idx: int) -> LevelRing:
        ring = self._levels.get(sub_idx)
        if ring is None:
            ring = LevelRing(self.group, self.lattice, sub_idx)
            self._levels[sub_idx] = ring
        return ring

    def _bits(self, sub_idx: int) -> int:
        return self.lattice.subgroups[sub_idx].members

    def _require_le(self, H_idx: int, K_idx: int) -> None:
        if not is_subset(self._bits(H_idx), self._bits(K_idx)):
            raise ContainmentError("structure map requires H <= K")

    # -- routing-table construction ------------------------------------------

    def res_route(self, K_idx: int, H_idx: int) -> tuple[int, ...]:
        """res^K_H as the K-coordinate each H-coordinate reads."""
        key = (K_idx, H_idx)
        route = self._res_routes.get(key)
        if route is None:
            self._require_le(H_idx, K_idx)
            ringK, ringH = self.level(K_idx), self.level(H_idx)
            route = tuple(ringK.local_class_of[sid] for sid in ringH.class_reps)
            self._res_routes[key] = route
        return route

    def _route(self, routes: dict, terms, K_idx: int, H_idx: int) -> tuple[tuple[int, ...], ...]:
        """tr^K_H or nm^K_H: the H-classes ``terms`` gives at each K-class rep."""
        key = (K_idx, H_idx)
        route = routes.get(key)
        if route is None:
            self._require_le(H_idx, K_idx)
            route = tuple(terms(K_idx, H_idx, self._bits(r)) for r in self.level(K_idx).class_reps)
            routes[key] = route
        return route

    def tr_route(self, K_idx: int, H_idx: int) -> tuple[tuple[int, ...], ...]:
        return self._route(self._tr_routes, self.tr_term_classes, K_idx, H_idx)

    def nm_route(self, K_idx: int, H_idx: int) -> tuple[tuple[int, ...], ...]:
        return self._route(self._nm_routes, self.nm_factor_classes, K_idx, H_idx)

    def conj_route(self, g: int, H_idx: int) -> tuple[int, tuple[int, ...]]:
        """``(index of ^g H, the H-coordinate each of its coordinates reads)``."""
        key = (g, H_idx)
        route = self._conj_routes.get(key)
        if route is None:
            conj, local_class_of = self.lattice.conjugation, self.level(H_idx).local_class_of
            target_idx, back = conj(g)[H_idx], conj(self.group.inv[g])
            reps = self.level(target_idx).class_reps
            route = (target_idx, tuple(local_class_of[back[r]] for r in reps))
            self._conj_routes[key] = route
        return route

    # -- structure maps --------------------------------------------------------

    def ghost_res(self, K_idx: int, H_idx: int, b: GhostElement) -> GhostElement:
        if b.level != K_idx:
            raise ValueError("element level does not match K")
        route = self.res_route(K_idx, H_idx)
        return GhostElement(H_idx, tuple(map(b.values.__getitem__, route)))

    def ghost_tr(self, K_idx: int, H_idx: int, a: GhostElement) -> GhostElement:
        if a.level != H_idx:
            raise ValueError("element level does not match H")
        route = self.tr_route(K_idx, H_idx)
        get = a.values.__getitem__
        return GhostElement(K_idx, tuple([sum(map(get, terms)) for terms in route]))

    def ghost_nm(self, K_idx: int, H_idx: int, a: GhostElement) -> GhostElement:
        if a.level != H_idx:
            raise ValueError("element level does not match H")
        route = self.nm_route(K_idx, H_idx)
        get = a.values.__getitem__
        return GhostElement(K_idx, tuple([prod(map(get, factors)) for factors in route]))

    def ghost_conj(self, g: int, a: GhostElement) -> GhostElement:
        target_idx, route = self.conj_route(g, a.level)
        return GhostElement(target_idx, tuple(map(a.values.__getitem__, route)))

    def ghost_map(self, x: BurnsideElement) -> GhostElement:
        return self.level(x.level).marks(x)

    def unmark(self, v: GhostElement) -> BurnsideElement:
        return self.level(v.level).unmark(v)

    def burnside_nm(self, K_idx: int, H_idx: int, x: BurnsideElement) -> BurnsideElement:
        """Norm on virtual elements, routed through the injective ghost map."""
        return self.unmark(self.ghost_nm(K_idx, H_idx, self.ghost_map(x)))

    # -- cosets -----------------------------------------------------------------

    def _coset_action(self, K_idx: int, H_idx: int) -> tuple:
        """``lattice.coset_action`` of K on K/H, built once per (K, H)."""
        found = self._cosets.get((K_idx, H_idx))
        if found is None:
            found = coset_action(self.group, self._bits(K_idx), self._bits(H_idx))
            self._cosets[K_idx, H_idx] = found
        return found

    def double_coset_reps(self, L_bits: int, K_idx: int, H_idx: int) -> list[int]:
        """Least-index representatives of the double cosets L\\K/H (L <= K),
        read off the left cosets: a double coset's least element is the least
        representative of its left cosets lkH, so it is the first one of each
        L-orbit on the coset numbers in increasing order.  The orbits are
        traced along the rows of L's generators."""
        reps, _, row, _ = self._coset_action(K_idx, H_idx)
        rows = [row(x) for x in generating_set(self.group, L_bits)]
        out, seen = [], bytearray(len(reps))
        for i, k in enumerate(reps):
            if not seen[i]:
                out.append(k)
                seen[i], orbit = 1, [i]
                for j in orbit:  # grows while it is walked
                    for row in rows:
                        if not seen[row[j]]:
                            seen[row[j]] = 1
                            orbit.append(row[j])
        return out

    # -- per-subgroup coordinates (routes and Weyl-invariance checks) ----------

    def tr_term_classes(self, K_idx: int, H_idx: int, I_bits: int) -> tuple[int, ...]:
        """H-classes of the terms I^k of tr^K_H at the subgroup I (not only class
        reps): k runs over left-coset reps of K/H, kept when I^k <= H, that is
        when I fixes the coset kH."""
        reps, _, _, fixed = self._coset_action(K_idx, H_idx)
        kept = (1 << len(reps)) - 1
        for x in generating_set(self.group, I_bits):
            kept &= fixed(x)
        I_idx, conj, inv = self.lattice.index_of[I_bits], self.lattice.conjugation, self.group.inv
        local_class_of = self.level(H_idx).local_class_of
        return tuple(local_class_of[conj(inv[reps[i]])[I_idx]] for i in bits_iter(kept))

    def nm_factor_classes(self, K_idx: int, H_idx: int, I_bits: int) -> tuple[int, ...]:
        """H-classes of the factors I^g cap H of nm^K_H at the subgroup I, g over
        double-coset reps of I\\K/H."""
        lattice, inv, H_bits = self.lattice, self.group.inv, self._bits(H_idx)
        I_idx, ringH, subgroups = lattice.index_of[I_bits], self.level(H_idx), lattice.subgroups
        return tuple(
            ringH.class_of_bits(subgroups[lattice.conjugation(inv[g])[I_idx]].members & H_bits)
            for g in self.double_coset_reps(I_bits, K_idx, H_idx)
        )

    # -- oracle-side marks ------------------------------------------------------

    def oracle_marks(self, gset, level_idx: int) -> GhostElement:
        """Mark vector of a concrete G-set, counted by the brute-force oracle."""
        subgroups, reps = self.lattice.subgroups, self.level(level_idx).class_reps
        return GhostElement(
            level_idx, tuple([fixed_points(gset, subgroups[r].members) for r in reps])
        )


ALL_AXIOMS = (
    "res_functoriality",
    "tr_functoriality",
    "nm_functoriality",
    "conj_functoriality",
    "conjugacy_res",
    "conjugacy_tr",
    "conjugacy_nm",
    "additive_double_coset",
    "multiplicative_double_coset",
    "frobenius",
    "chi_res",
    "chi_tr",
    "chi_nm",
    "chi_conj",
    "tambara_sum",
    "tambara_transfer",
    "weyl_constancy",
)


AxiomFailure = namedtuple("AxiomFailure", "axiom instance detail")


class VerificationReport:
    """Per-axiom instance counts and failing-instance counts, and the first
    ``MAX_RECORDED_FAILURES`` failures in the order found.  An axiom fails
    iff it is a key of ``failed``."""

    def __init__(self, group: str):
        self.group = group
        self.counts: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.failures: list[AxiomFailure] = []

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def total_instances(self) -> int:
        return sum(self.counts.values())

    @property
    def suppressed_failures(self) -> int:
        return sum(self.failed.values()) - len(self.failures)

    def check(self, axiom: str, ok: bool, instance: dict, detail: str = "") -> None:
        self.counts[axiom] = self.counts.get(axiom, 0) + 1
        if not ok:
            self.failed[axiom] = self.failed.get(axiom, 0) + 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(AxiomFailure(axiom, instance, detail))

    def proved(self, axiom: str, holds: bool, n: int) -> bool:
        """Count a block of n >= 1 instances that hold, by a routing-table
        identity or as already checked; False sends it to its per-element loop."""
        if holds:
            self.counts[axiom] = self.counts.get(axiom, 0) + n
        return holds

    def to_json_dict(self) -> dict:
        """The report as JSON; ``suppressed_violations``, the count of failures
        not listed under ``violations``, is present only when it is not 0."""
        data = {
            "group": self.group,
            "ok": self.ok,
            "total_instances": self.total_instances,
            "axioms": [
                {
                    "axiom": name,
                    "instances": self.counts.get(name, 0),
                    "status": "fail" if name in self.failed else "pass",
                }
                for name in ALL_AXIOMS
                if name in self.counts
            ],
            "violations": [
                {"axiom": f.axiom, "instance": f.instance, "witness": f.detail}
                for f in self.failures
            ],
        }
        if self.suppressed_failures:
            data["suppressed_violations"] = self.suppressed_failures
        return data


def _sorted(route) -> list[list[int]]:
    return [sorted(terms) for terms in route]


def _renamed(route, idx) -> list[list[int]]:
    """A sum or product route read through the projection ``idx`` first."""
    return [sorted([idx[t] for t in terms]) for terms in route]


def _picked(route, idx) -> list[list[int]]:
    """A sum or product route followed by the projection ``idx``."""
    return [sorted(route[i]) for i in idx]


def _composed(outer, inner) -> list[list[int]]:
    """``outer`` after ``inner``, both sums or both products."""
    return [sorted([t for j in terms for t in inner[j]]) for terms in outer]


def _sub_label(system: GhostSystem, idx: int) -> str:
    s = system.lattice.subgroups[idx]
    return f"subgroup#{idx}(order {s.order})"


def verify_axioms(
    system: GhostSystem, seed: int = DEFAULT_SEED, axioms: tuple[str, ...] | None = None
) -> VerificationReport:
    """Run the axiom sweep over ``axioms`` (None: all of ``ALL_AXIOMS``);
    returns a report that has counted each axiom's instances.

    Chains H <= L <= K range over conjugacy-class representatives at each
    level (conjugation reduces the general case to these).  Elements range
    over the mark images of all basis orbits, the unit vector, and random
    ghost vectors drawn from ``seed``.

    Each block of checks (one axiom at one chain, pair or conjugator) first
    decides its identity on the routing tables.  A res or conj route is the
    tuple of source coordinates it reads, and a tr or nm route gives each
    target coordinate a multiset of source coordinates to add or multiply, so
    two composites agree on every ghost element iff they read the same
    coordinates, or the same sorted multisets.  When the identity holds, the
    block's instances are counted at once.  Only when it fails does the block
    run its per-element loop, which records the failures it finds; so counts,
    failures and their order are those of checking every instance one by one.
    A level's test elements are built only for such a loop.  tr and nm share
    the functoriality, double-coset and conjugacy blocks, each run first for
    tr and then for nm.  Conjugacy identities are decided once per distinct
    pair of g's conj routes on K and H, and counted or looped at each g.  The
    ``chi_*`` checks always run against the G-set oracle, one orbit at a
    time, each recorded with one ``check``; chi_conj reads neither K nor its
    routes, so each (H, J, g) is checked once and its results are counted as
    a block at every K.
    """
    group = system.group
    lattice = system.lattice
    report = VerificationReport(group.name)
    enabled = set(axioms) if axioms is not None else set(ALL_AXIOMS)
    elements: dict[int, list[GhostElement]] = {}
    res_route, conj_route = system.res_route, system.conj_route

    def els(idx):  # the level's mark rows, unit and random vectors, built once
        found = elements.get(idx)
        if found is None:
            ring = system.level(idx)
            found = [GhostElement(idx, tuple(row)) for row in ring.marks_matrix]
            found.append(ring.all_ones())
            rng = random.Random((seed << 16) ^ (idx * 0x9E3779B1))
            for _ in range(RANDOM_ELEMENTS):
                found.append(
                    GhostElement(
                        idx,
                        tuple(
                            rng.randint(-COORD_BOUND, COORD_BOUND)
                            for _ in range(ring.num_classes)
                        ),
                    )
                )
            elements[idx] = found
        return found

    def size(idx):  # len(els(idx)), counted without building the elements
        return system.level(idx).num_classes + 1 + RANDOM_ELEMENTS

    mul = group.mul_table
    # The tr/nm twins: their (functoriality, double-coset, conjugacy) axiom
    # names, route, map, and how double-coset legs combine, with its unit.
    twins = (
        (("tr_functoriality", "additive_double_coset", "conjugacy_tr"),
         system.tr_route, system.ghost_tr, operator.add, 0),
        (("nm_functoriality", "multiplicative_double_coset", "conjugacy_nm"),
         system.nm_route, system.ghost_nm, operator.mul, 1),
    )

    orbits: dict[tuple[int, int], tuple] = {}

    def orbit(idx, j_cls):
        # The orbit S/J for J the class rep j of S, and its mark vector, kept
        # with its fixed-point bitsets for every K.
        found = orbits.get((idx, j_cls))
        if found is None:
            ring = system.level(idx)
            X = coset_space(group, system._bits(idx), ring.class_rep_subgroup(j_cls).members)
            found = orbits[idx, j_cls] = X, GhostElement(idx, tuple(ring.marks_matrix[j_cls]))
        return found

    def chi_conj_results(H_idx):
        # chi_conj at each orbit H/J: whether every g passed, and each g's result.
        results = [[] for _ in range(system.level(H_idx).num_classes)]
        for g in conj_sample:
            target = system._bits(lattice.conjugation(g)[H_idx])
            for j_cls, oks in enumerate(results):
                X, chi_x = orbit(H_idx, j_cls)
                lhs = system.ghost_conj(g, chi_x)
                oks.append(lhs == system.oracle_marks(conjugate_gset(g, X, target), lhs.level))
        return [(all(oks), oks) for oks in results]

    conj_oks: dict[int, list[tuple[bool, list[bool]]]] = {}  # chi_conj_results, for the sweep
    conj_axioms = [a for a in ("conjugacy_res", "conjugacy_tr", "conjugacy_nm") if a in enabled]

    # Sampled conjugators, also the pairs of conj_functoriality: all of G when
    # small, else generators plus a prefix.
    if group.order <= 64:
        conj_sample = list(range(group.order))
    else:
        conj_sample = sorted(set(group.gen_indices) | set(range(min(group.order, 16))))

    for K_idx in lattice.class_reps:
        ringK = system.level(K_idx)
        K_bits = system._bits(K_idx)
        system._cosets.clear()  # coset actions are kept for one K's pairs
        k_orbits = [orbit(K_idx, j) for j in range(ringK.num_classes) if "chi_res" in enabled]
        k_conj = [conj_route(g, K_idx) for g in conj_sample] if conj_axioms else []

        # Chains H <= L <= K for functoriality of res/tr/nm.
        for L_idx in ringK.class_reps:
            for H_idx in system.level(L_idx).class_reps:
                inst = {
                    "K": _sub_label(system, K_idx),
                    "L": _sub_label(system, L_idx),
                    "H": _sub_label(system, H_idx),
                }
                if "res_functoriality" in enabled and not report.proved(
                    "res_functoriality",
                    tuple(map(res_route(K_idx, L_idx).__getitem__, res_route(L_idx, H_idx)))
                    == res_route(K_idx, H_idx),
                    size(K_idx),
                ):
                    for b in els(K_idx):
                        one = system.ghost_res(K_idx, H_idx, b)
                        two = system.ghost_res(L_idx, H_idx, system.ghost_res(K_idx, L_idx, b))
                        report.check("res_functoriality", two == one, inst, f"b={b.values}")
                for (axiom, _, _), route, apply, _, _ in twins:
                    if axiom in enabled and not report.proved(
                        axiom,
                        _composed(route(K_idx, L_idx), route(L_idx, H_idx))
                        == _sorted(route(K_idx, H_idx)),
                        size(H_idx),
                    ):
                        for a in els(H_idx):
                            one = apply(K_idx, H_idx, a)
                            two = apply(K_idx, L_idx, apply(L_idx, H_idx, a))
                            report.check(axiom, two == one, inst, f"a={a.values}")

        # Double-coset formulas for H, L <= K; their legs are built only for them.
        if {"additive_double_coset", "multiplicative_double_coset"} & enabled:
            for L_idx in ringK.class_reps:
                L_bits = system._bits(L_idx)
                for H_idx in ringK.class_reps:
                    inst = {
                        "K": _sub_label(system, K_idx),
                        "L": _sub_label(system, L_idx),
                        "H": _sub_label(system, H_idx),
                    }
                    legs = []
                    for gma in system.double_coset_reps(L_bits, K_idx, H_idx):
                        gH_idx = lattice.conjugation(gma)[H_idx]
                        meet_idx = lattice.index_of[L_bits & lattice.subgroups[gH_idx].members]
                        legs.append((gma, gH_idx, meet_idx))

                    def legs_form(route):
                        # Sum (or product) over the legs of route(L, L cap gH)
                        # applied to res^{gH}_{L cap gH} c_gamma, as H-coordinates.
                        cols = [[] for _ in range(system.level(L_idx).num_classes)]
                        for gma, gH_idx, meet_idx in legs:
                            target_idx, cidx = conj_route(gma, H_idx)
                            if target_idx != gH_idx:
                                return None
                            idx = [cidx[i] for i in res_route(gH_idx, meet_idx)]
                            for col, terms in zip(cols, route(L_idx, meet_idx)):
                                col.extend([idx[t] for t in terms])
                        return [sorted(col) for col in cols]

                    def parts(a):
                        # res^{gH}_{L cap gH} c_gamma(a) per leg.
                        return [
                            (m, system.ghost_res(gH_idx, m, system.ghost_conj(gma, a)))
                            for gma, gH_idx, m in legs
                        ]

                    for (_, axiom, _), route, apply, op, unit in twins:
                        if axiom in enabled and not report.proved(
                            axiom,
                            legs_form(route)
                            == _picked(route(K_idx, H_idx), res_route(K_idx, L_idx)),
                            size(H_idx),
                        ):
                            start = GhostElement(L_idx, (unit,) * system.level(L_idx).num_classes)
                            for a in els(H_idx):
                                lhs = system.ghost_res(K_idx, L_idx, apply(K_idx, H_idx, a))
                                rhs = reduce(op, (apply(L_idx, m, p) for m, p in parts(a)), start)
                                report.check(axiom, lhs == rhs, inst, f"a={a.values}")

        # Pairs H <= K: Frobenius, conjugacy compatibility, chi naturality,
        # Tambara reciprocity, Weyl constancy.
        for H_idx in ringK.class_reps:
            H_bits = system._bits(H_idx)
            ringH = system.level(H_idx)
            inst = {"K": _sub_label(system, K_idx), "H": _sub_label(system, H_idx)}

            if "frobenius" in enabled and not report.proved(
                "frobenius",
                # tr(a) b = tr(a res(b)) iff each term of tr at I restricts to I.
                all(
                    res_route(K_idx, H_idx)[t] == i
                    for i, terms in enumerate(system.tr_route(K_idx, H_idx))
                    for t in terms
                ),
                size(H_idx) * size(K_idx),
            ):
                restricted = [system.ghost_res(K_idx, H_idx, b) for b in els(K_idx)]
                for a in els(H_idx):
                    ta = system.ghost_tr(K_idx, H_idx, a)
                    for b, rb in zip(els(K_idx), restricted):
                        lhs = ta * b
                        rhs = system.ghost_tr(K_idx, H_idx, a * rb)
                        report.check(
                            "frobenius", lhs == rhs, inst, f"a={a.values}, b={b.values}"
                        )

            if conj_axioms:
                # The identities read only this pair's routes and g's conj
                # routes, so conjugators with the same conj routes share them;
                # a disabled axiom holds, and compiles no route.
                decided: dict[tuple, list[bool]] = {}
                size_K, size_H = size(K_idx), size(H_idx)
                for g, (gK_idx, cK) in zip(conj_sample, k_conj):
                    gH_idx, cH = conj_route(g, H_idx)
                    ids = decided.get((gK_idx, gH_idx, cK, cH))
                    if ids is None:
                        ids = decided[gK_idx, gH_idx, cK, cH] = [
                            "conjugacy_res" not in enabled
                            or tuple(map(res_route(K_idx, H_idx).__getitem__, cH))
                            == tuple(map(cK.__getitem__, res_route(gK_idx, gH_idx)))
                        ] + [
                            axiom not in enabled
                            or _picked(route(K_idx, H_idx), cK)
                            == _renamed(route(gK_idx, gH_idx), cH)
                            for (_, _, axiom), route, _, _, _ in twins
                        ]
                    if "conjugacy_res" in enabled and not report.proved(
                        "conjugacy_res", ids[0], size_K
                    ):
                        for b in els(K_idx):
                            lhs = system.ghost_conj(g, system.ghost_res(K_idx, H_idx, b))
                            rhs = system.ghost_res(gK_idx, gH_idx, system.ghost_conj(g, b))
                            report.check(
                                "conjugacy_res", lhs == rhs, dict(inst, g=g), f"b={b.values}"
                            )
                    for holds, ((_, _, axiom), route, apply, _, _) in zip(ids[1:], twins):
                        if axiom in enabled and not report.proved(axiom, holds, size_H):
                            for a in els(H_idx):
                                lhs = system.ghost_conj(g, apply(K_idx, H_idx, a))
                                rhs = apply(gK_idx, gH_idx, system.ghost_conj(g, a))
                                report.check(axiom, lhs == rhs, dict(inst, g=g), f"a={a.values}")

            if {"chi_res", "chi_tr", "chi_nm", "chi_conj"} & enabled:
                # One instance per check; the cosets of H in K serve every J.
                left = system._coset_action(K_idx, H_idx)[:2] if "chi_tr" in enabled else None
                right = right_cosets(group, K_bits, H_bits) if "chi_nm" in enabled else None
                for j_cls in range(ringH.num_classes):
                    X, chi_x = orbit(H_idx, j_cls)
                    xinst = dict(inst, X=f"orbit H/{_sub_label(system, ringH.class_reps[j_cls])}")
                    if "chi_tr" in enabled:
                        lhs = system.ghost_tr(K_idx, H_idx, chi_x)
                        ok = lhs == system.oracle_marks(induce(K_bits, X, left), K_idx)
                        report.check("chi_tr", ok, xinst, f"chi(X)={chi_x.values}")
                    if "chi_nm" in enabled:
                        try:
                            co = coinduce(K_bits, X, right)
                        except CapExceededError:
                            pass
                        else:
                            lhs = system.ghost_nm(K_idx, H_idx, chi_x)
                            ok = lhs == system.oracle_marks(co, K_idx)
                            report.check("chi_nm", ok, xinst, f"chi(X)={chi_x.values}")
                    if "chi_conj" in enabled:
                        # Nothing here depends on K: check once, count for every K.
                        if H_idx not in conj_oks:
                            conj_oks[H_idx] = chi_conj_results(H_idx)
                        held, oks = conj_oks[H_idx][j_cls]
                        if not report.proved("chi_conj", held, len(conj_sample)):
                            for g, ok in zip(conj_sample, oks):
                                report.check("chi_conj", ok, dict(xinst, g=g))
                for Y, chi_y in k_orbits:  # empty unless chi_res is enabled
                    lhs = system.ghost_res(K_idx, H_idx, chi_y)
                    ok = lhs == system.oracle_marks(restrict_gset(Y, H_bits), H_idx)
                    report.check("chi_res", ok, inst, f"chi(Y)={chi_y.values}")

            top_cls = ringK.num_classes - 1
            if "tambara_sum" in enabled and not report.proved(
                "tambara_sum",
                # The top coordinate of nm is additive iff it has one factor.
                len(system.nm_route(K_idx, H_idx)[top_cls]) == 1,
                size(H_idx) * (size(H_idx) + 1) // 2,
            ):
                # Top coordinate of nm(a+b) - nm(a) - nm(b) must vanish: the
                # cross terms are proper transfers, which die at the top level.
                e_list = els(H_idx)
                tops = [system.ghost_nm(K_idx, H_idx, a).values[top_cls] for a in e_list]
                for i, a in enumerate(e_list):
                    for j in range(i, len(e_list)):
                        b = e_list[j]
                        lhs = system.ghost_nm(K_idx, H_idx, a + b)
                        delta = lhs.values[top_cls] - tops[i] - tops[j]
                        report.check(
                            "tambara_sum", delta == 0, inst, f"a={a.values}, b={b.values}"
                        )

            if "tambara_transfer" in enabled:
                for l_cls in range(ringH.num_classes - 1):
                    L_idx2 = ringH.class_reps[l_cls]
                    # The top coordinate vanishes iff one of its factors is an
                    # empty sum of transfer terms.
                    if not report.proved(
                        "tambara_transfer",
                        any(
                            not system.tr_route(H_idx, L_idx2)[f]
                            for f in system.nm_route(K_idx, H_idx)[top_cls]
                        ),
                        size(L_idx2),
                    ):
                        for b in els(L_idx2):
                            out = system.ghost_nm(
                                K_idx, H_idx, system.ghost_tr(H_idx, L_idx2, b)
                            )
                            report.check(
                                "tambara_transfer",
                                out.values[top_cls] == 0,
                                dict(inst, L=_sub_label(system, L_idx2)),
                                f"b={b.values}",
                            )

            if "weyl_constancy" in enabled:
                # Recompute tr/nm coordinates at every subgroup of K directly
                # from the formulas; they must be constant on K-classes.  The
                # term classes at each subgroup do not depend on the element.
                columns = []
                for sid in ringK.sub_ids:
                    I_bits = lattice.subgroups[sid].members
                    columns.append((
                        ringK.local_class_of[sid],
                        system.tr_term_classes(K_idx, H_idx, I_bits),
                        system.nm_factor_classes(K_idx, H_idx, I_bits),
                    ))
                # Its rows now cover the generators of every subgroup of K,
                # and no later pair of this K reads them.
                system._cosets.pop((K_idx, H_idx), None)
                tr_cls = _sorted(system.tr_route(K_idx, H_idx))
                nm_cls = _sorted(system.nm_route(K_idx, H_idx))
                probe = ringH.num_classes + 1
                if not report.proved(
                    "weyl_constancy",
                    all(
                        sorted(tr_ids) == tr_cls[cls] and sorted(nm_ids) == nm_cls[cls]
                        for cls, tr_ids, nm_ids in columns
                    ),
                    probe,
                ):
                    for a in els(H_idx)[:probe]:
                        trv = system.ghost_tr(K_idx, H_idx, a)
                        nmv = system.ghost_nm(K_idx, H_idx, a)
                        get = a.values.__getitem__
                        ok = all(
                            sum(map(get, tr_ids)) == trv.values[cls]
                            and prod(map(get, nm_ids)) == nmv.values[cls]
                            for cls, tr_ids, nm_ids in columns
                        )
                        report.check("weyl_constancy", ok, inst, f"a={a.values}")

    # Conjugation functoriality: c_{g, ^h H} . c_{h, H} = c_{gh, H}.
    if "conj_functoriality" in enabled:
        pairs = [(g, h) for g in conj_sample for h in conj_sample]
        conjugators = sorted({h for _, h in pairs} | {mul[g][h] for g, h in pairs})

        def composes(H_idx):
            # c_{g, ^h H} . c_{h, H} depends only on g and c_{h, H}: compose
            # each distinct route of H with each g once, and compare it with
            # c_{gh, H} by number, for every h that has the route.
            number: dict[tuple, int] = {}
            on_H = {x: number.setdefault(conj_route(x, H_idx), len(number)) for x in conjugators}
            routes, having = list(number), {}
            for h in conj_sample:
                having.setdefault(on_H[h], []).append(h)
            for n, hs in having.items():
                hH_idx, ch = routes[n]
                for g in conj_sample:
                    ghH_idx, cg = conj_route(g, hH_idx)
                    want, row = number.get((ghH_idx, tuple(map(ch.__getitem__, cg)))), mul[g]
                    if want is None or any(on_H[row[h]] != want for h in hs):
                        return False
            return True

        for H_idx in lattice.class_reps:
            block = min(size(H_idx), system.level(H_idx).num_classes + 3)
            if report.proved(
                "conj_functoriality",
                composes(H_idx),
                block * len(pairs),
            ):
                continue
            for a in els(H_idx)[:block]:
                conj_a = {x: system.ghost_conj(x, a) for x in conjugators}
                for g, h in pairs:
                    lhs = system.ghost_conj(g, conj_a[h])
                    rhs = conj_a[mul[g][h]]
                    report.check(
                        "conj_functoriality",
                        lhs == rhs,
                        {"H": _sub_label(system, H_idx), "g": g, "h": h},
                        f"a={a.values}",
                    )

    system._cosets.clear()  # the coset actions and permutations are the sweep's
    lattice._conjugations.clear()
    return report
