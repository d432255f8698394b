"""The ghost of the Burnside Tambara functor and its axiom-verification harness.

Levels are the ghost rings of the subgroups of G (mark vectors constant on
conjugacy classes).  The four structure maps act coordinatewise:

    res^K_H(b)_L  = b_L                                     (projection)
    tr^K_H(a)_I   = sum over [k] in K/H with I^k <= H of a_{I^k}
    nm^K_H(a)_I   = product over [g] in I\\K/H of a_{I^g cap H}
    c_{g,H}(a)_J  = a_{J^g}                                  (J <= ^g H)

with ^g S = g S g^-1 and S^g = g^-1 S g; the two conventions are NOT
interchangeable here, and the verifier's double-coset checks fail if they are
swapped.  Maps are compiled once per level pair into integer routing tables,
so repeated applications are cheap.

``verify_axioms`` machine-checks, exhaustively over subgroup-chain classes:
functoriality of all four maps, both double-coset formulas, Frobenius
reciprocity, conjugation compatibilities, naturality of the mark map against
the brute-force G-set oracle, the two finitely checkable Tambara-reciprocity
cases (norm of a sum and norm of a proper transfer, on top coordinates), and
Weyl invariance (class constancy) of transfer/norm outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
    conjugate_bits,
    double_coset_reps,
    is_subset,
    left_transversal,
    subgroup_lattice,
)

DEFAULT_SEED = 0x5EED
COORD_BOUND = 9
CONJ_PAIR_CAP = 4096  # all (g, h) pairs for conj_functoriality while |G|^2 fits
MAX_RECORDED_FAILURES = 25  # later failures are only counted


class GhostSystem:
    """Level-indexed ghost rings with restriction, transfer, norm, conjugation.

    Levels are keyed by global subgroup index in the lattice.  Instances are
    safe to share once constructed; caches are fill-only.
    """

    def __init__(self, group: FiniteGroup, lattice: SubgroupLattice | None = None):
        self.group = group
        self.lattice = lattice if lattice is not None else subgroup_lattice(group)
        self._levels: dict[int, LevelRing] = {}
        self._res_routes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._tr_routes: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._nm_routes: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
        self._conj_routes: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        self._residuals: dict[tuple[int, int], int] = {}

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

    def _tr_terms(self, K_bits: int, H_bits: int, I_bits: int) -> list[int]:
        """Bitsets I^k over left-coset reps k of K/H, kept when I^k <= H."""
        group = self.group
        inv = group.inv
        out = []
        for k in left_transversal(group, K_bits, H_bits):
            ik = conjugate_bits(group, inv[k], I_bits)
            if is_subset(ik, H_bits):
                out.append(ik)
        return out

    def _nm_factors(self, K_bits: int, H_bits: int, I_bits: int) -> list[int]:
        """Bitsets I^g cap H over double-coset reps g of I\\K/H."""
        group = self.group
        inv = group.inv
        return [
            conjugate_bits(group, inv[g], I_bits) & H_bits
            for g in double_coset_reps(group, I_bits, K_bits, H_bits)
        ]

    def res_route(self, K_idx: int, H_idx: int) -> tuple[int, ...]:
        key = (K_idx, H_idx)
        route = self._res_routes.get(key)
        if route is None:
            self._require_le(H_idx, K_idx)
            ringK, ringH = self.level(K_idx), self.level(H_idx)
            route = tuple(
                ringK.local_class_of[sid] for sid in ringH.class_reps
            )
            self._res_routes[key] = route
        return route

    def tr_route(self, K_idx: int, H_idx: int) -> tuple[tuple[int, ...], ...]:
        key = (K_idx, H_idx)
        route = self._tr_routes.get(key)
        if route is None:
            self._require_le(H_idx, K_idx)
            ringK, ringH = self.level(K_idx), self.level(H_idx)
            K_bits, H_bits = self._bits(K_idx), self._bits(H_idx)
            route = tuple(
                tuple(
                    ringH.class_of_bits(ik)
                    for ik in self._tr_terms(K_bits, H_bits, self._bits(rep))
                )
                for rep in ringK.class_reps
            )
            self._tr_routes[key] = route
        return route

    def nm_route(self, K_idx: int, H_idx: int) -> tuple[tuple[int, ...], ...]:
        key = (K_idx, H_idx)
        route = self._nm_routes.get(key)
        if route is None:
            self._require_le(H_idx, K_idx)
            ringK, ringH = self.level(K_idx), self.level(H_idx)
            K_bits, H_bits = self._bits(K_idx), self._bits(H_idx)
            route = tuple(
                tuple(
                    ringH.class_of_bits(f)
                    for f in self._nm_factors(K_bits, H_bits, self._bits(rep))
                )
                for rep in ringK.class_reps
            )
            self._nm_routes[key] = route
        return route

    def conj_route(self, g: int, H_idx: int) -> tuple[int, tuple[int, ...]]:
        key = (g, H_idx)
        route = self._conj_routes.get(key)
        if route is None:
            group = self.group
            target_bits = conjugate_bits(group, g, self._bits(H_idx))
            target_idx = self.lattice.subgroup_index(target_bits)
            ringH, ringT = self.level(H_idx), self.level(target_idx)
            gi = group.inv[g]
            mapping = tuple(
                ringH.class_of_bits(conjugate_bits(group, gi, self._bits(rep)))
                for rep in ringT.class_reps
            )
            route = (target_idx, mapping)
            self._conj_routes[key] = route
        return route

    # -- structure maps --------------------------------------------------------

    def ghost_res(self, K_idx: int, H_idx: int, b: GhostElement) -> GhostElement:
        if b.level != K_idx:
            raise ValueError("element level does not match K")
        route = self.res_route(K_idx, H_idx)
        return GhostElement(H_idx, tuple(b.values[i] for i in route))

    def ghost_tr(self, K_idx: int, H_idx: int, a: GhostElement) -> GhostElement:
        if a.level != H_idx:
            raise ValueError("element level does not match H")
        route = self.tr_route(K_idx, H_idx)
        vals = a.values
        return GhostElement(K_idx, tuple(sum(vals[t] for t in terms) for terms in route))

    def ghost_nm(self, K_idx: int, H_idx: int, a: GhostElement) -> GhostElement:
        if a.level != H_idx:
            raise ValueError("element level does not match H")
        route = self.nm_route(K_idx, H_idx)
        vals = a.values
        out = []
        for factors in route:
            prod = 1
            for t in factors:
                prod *= vals[t]
            out.append(prod)
        return GhostElement(K_idx, tuple(out))

    def ghost_conj(self, g: int, a: GhostElement) -> GhostElement:
        target_idx, mapping = self.conj_route(g, a.level)
        vals = a.values
        return GhostElement(target_idx, tuple(vals[i] for i in mapping))

    def ghost_map(self, x: BurnsideElement) -> GhostElement:
        return self.level(x.level).marks(x)

    def unmark(self, v: GhostElement) -> BurnsideElement:
        return self.level(v.level).unmark(v)

    def burnside_nm(self, K_idx: int, H_idx: int, x: BurnsideElement) -> BurnsideElement:
        """Norm on virtual elements, routed through the injective ghost map."""
        return self.unmark(self.ghost_nm(K_idx, H_idx, self.ghost_map(x)))

    # -- per-subgroup coordinates (Weyl-invariance checks) ----------------------

    def tr_value_at(self, K_idx: int, H_idx: int, a: GhostElement, I_bits: int) -> int:
        ringH = self.level(H_idx)
        return sum(
            a.values[ringH.class_of_bits(ik)]
            for ik in self._tr_terms(self._bits(K_idx), self._bits(H_idx), I_bits)
        )

    def nm_value_at(self, K_idx: int, H_idx: int, a: GhostElement, I_bits: int) -> int:
        ringH = self.level(H_idx)
        prod = 1
        for f in self._nm_factors(self._bits(K_idx), self._bits(H_idx), I_bits):
            prod *= a.values[ringH.class_of_bits(f)]
        return prod

    # -- oracle-side marks ------------------------------------------------------

    def oracle_marks(self, gset, level_idx: int) -> GhostElement:
        """Mark vector of a concrete G-set, counted by the brute-force oracle."""
        ring = self.level(level_idx)
        return GhostElement(
            level_idx,
            tuple(
                fixed_points(gset, ring.class_rep_subgroup(c).members)
                for c in range(ring.num_classes)
            ),
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


@dataclass
class VerifyConfig:
    """Budget and determinism knobs for the axiom sweep."""

    seed: int = DEFAULT_SEED
    random_elements: int = 32
    coinduce_cap: int = 100_000
    axioms: tuple[str, ...] | None = None


@dataclass
class AxiomFailure:
    axiom: str
    instance: dict
    detail: str


@dataclass
class VerificationReport:
    group: str
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[AxiomFailure] = field(default_factory=list)
    suppressed_failures: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.suppressed_failures == 0

    @property
    def total_instances(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "ok": self.ok,
            "total_instances": self.total_instances,
            "axioms": [
                {
                    "axiom": name,
                    "instances": self.counts.get(name, 0),
                    "status": "pass"
                    if not any(f.axiom == name for f in self.failures)
                    else "fail",
                }
                for name in ALL_AXIOMS
                if name in self.counts
            ],
            "violations": [
                {"axiom": f.axiom, "instance": f.instance, "witness": f.detail}
                for f in self.failures
            ],
        }


class _Recorder:
    def __init__(self, report: VerificationReport):
        self.report = report

    def check(self, axiom: str, ok: bool, instance: dict, detail: str = "") -> None:
        self.report.counts[axiom] = self.report.counts.get(axiom, 0) + 1
        if not ok:
            if len(self.report.failures) < MAX_RECORDED_FAILURES:
                self.report.failures.append(AxiomFailure(axiom, instance, detail))
            else:
                self.report.suppressed_failures += 1


def _test_elements(system: GhostSystem, level_idx: int, cfg: VerifyConfig, cache: dict):
    els = cache.get(level_idx)
    if els is None:
        ring = system.level(level_idx)
        els = [GhostElement(level_idx, tuple(row)) for row in ring.marks_matrix]
        els.append(ring.all_ones())
        rng = random.Random((cfg.seed << 16) ^ (level_idx * 0x9E3779B1))
        for _ in range(cfg.random_elements):
            els.append(
                GhostElement(
                    level_idx,
                    tuple(
                        rng.randint(-COORD_BOUND, COORD_BOUND)
                        for _ in range(ring.num_classes)
                    ),
                )
            )
        cache[level_idx] = els
    return els


def _sub_label(system: GhostSystem, idx: int) -> str:
    s = system.lattice.subgroups[idx]
    return f"subgroup#{idx}(order {s.order})"


def verify_axioms(
    group_or_system, config: VerifyConfig | None = None
) -> VerificationReport:
    """Run the full axiom sweep; returns a report with per-axiom instance counts.

    Chains H <= L <= K range over conjugacy-class representatives at each
    level (conjugation reduces the general case to these).  Elements range
    over the mark images of all basis orbits, the unit vector, and seeded
    random ghost vectors.
    """
    cfg = config or VerifyConfig()
    if isinstance(group_or_system, GhostSystem):
        system = group_or_system
    else:
        system = GhostSystem(group_or_system)
    group = system.group
    lattice = system.lattice
    report = VerificationReport(group=group.name)
    rec = _Recorder(report)
    enabled = set(cfg.axioms) if cfg.axioms is not None else set(ALL_AXIOMS)
    elements: dict[int, list[GhostElement]] = {}

    def els(idx):
        return _test_elements(system, idx, cfg, elements)

    class_rep_ids = [lattice.class_reps[c] for c in range(lattice.num_classes)]
    mul, inv = group.mul_table, group.inv

    # Sampled conjugators: all of G when small, else generators plus a prefix.
    if group.order <= 64:
        conj_sample = list(range(group.order))
    else:
        conj_sample = sorted(set(group.gen_indices) | set(range(min(group.order, 16))))

    for K_idx in class_rep_ids:
        ringK = system.level(K_idx)
        K_bits = system._bits(K_idx)
        level_pairs = [ringK.class_reps[c] for c in range(ringK.num_classes)]

        # Chains H <= L <= K for functoriality of res/tr/nm.
        for L_idx in level_pairs:
            ringL = system.level(L_idx)
            for H_idx in [ringL.class_reps[c] for c in range(ringL.num_classes)]:
                inst = {
                    "K": _sub_label(system, K_idx),
                    "L": _sub_label(system, L_idx),
                    "H": _sub_label(system, H_idx),
                }
                if "res_functoriality" in enabled:
                    for b in els(K_idx):
                        two = system.ghost_res(L_idx, H_idx, system.ghost_res(K_idx, L_idx, b))
                        one = system.ghost_res(K_idx, H_idx, b)
                        rec.check("res_functoriality", two == one, inst, f"b={b.values}")
                if "tr_functoriality" in enabled:
                    for a in els(H_idx):
                        two = system.ghost_tr(K_idx, L_idx, system.ghost_tr(L_idx, H_idx, a))
                        one = system.ghost_tr(K_idx, H_idx, a)
                        rec.check("tr_functoriality", two == one, inst, f"a={a.values}")
                if "nm_functoriality" in enabled:
                    for a in els(H_idx):
                        two = system.ghost_nm(K_idx, L_idx, system.ghost_nm(L_idx, H_idx, a))
                        one = system.ghost_nm(K_idx, H_idx, a)
                        rec.check("nm_functoriality", two == one, inst, f"a={a.values}")

        # Double-coset formulas and Frobenius for H, L <= K.
        for L_idx in level_pairs:
            L_bits = system._bits(L_idx)
            for H_idx in level_pairs:
                H_bits = system._bits(H_idx)
                inst = {
                    "K": _sub_label(system, K_idx),
                    "L": _sub_label(system, L_idx),
                    "H": _sub_label(system, H_idx),
                }
                gammas = double_coset_reps(group, L_bits, K_bits, H_bits)
                legs = []
                for gma in gammas:
                    gH_bits = conjugate_bits(group, gma, H_bits)
                    meet_bits = L_bits & gH_bits
                    gH_idx = lattice.subgroup_index(gH_bits)
                    meet_idx = lattice.subgroup_index(meet_bits)
                    legs.append((gma, gH_idx, meet_idx))
                if "additive_double_coset" in enabled:
                    for a in els(H_idx):
                        lhs = system.ghost_res(K_idx, L_idx, system.ghost_tr(K_idx, H_idx, a))
                        rhs = GhostElement(L_idx, (0,) * system.level(L_idx).num_classes)
                        for gma, gH_idx, meet_idx in legs:
                            ca = system.ghost_conj(gma, a)
                            rhs = rhs + system.ghost_tr(
                                L_idx, meet_idx, system.ghost_res(gH_idx, meet_idx, ca)
                            )
                        rec.check("additive_double_coset", lhs == rhs, inst, f"a={a.values}")
                if "multiplicative_double_coset" in enabled:
                    for a in els(H_idx):
                        lhs = system.ghost_res(K_idx, L_idx, system.ghost_nm(K_idx, H_idx, a))
                        rhs = system.level(L_idx).all_ones()
                        for gma, gH_idx, meet_idx in legs:
                            ca = system.ghost_conj(gma, a)
                            rhs = rhs * system.ghost_nm(
                                L_idx, meet_idx, system.ghost_res(gH_idx, meet_idx, ca)
                            )
                        rec.check("multiplicative_double_coset", lhs == rhs, inst, f"a={a.values}")

        # Pairs H <= K: Frobenius, conjugacy compatibility, chi naturality,
        # Tambara reciprocity, Weyl constancy.
        for H_idx in level_pairs:
            H_bits = system._bits(H_idx)
            ringH = system.level(H_idx)
            inst = {"K": _sub_label(system, K_idx), "H": _sub_label(system, H_idx)}

            if "frobenius" in enabled:
                for a in els(H_idx):
                    for b in els(K_idx):
                        lhs = system.ghost_tr(K_idx, H_idx, a) * b
                        rhs = system.ghost_tr(K_idx, H_idx, a * system.ghost_res(K_idx, H_idx, b))
                        rec.check(
                            "frobenius", lhs == rhs, inst, f"a={a.values}, b={b.values}"
                        )

            if {"conjugacy_res", "conjugacy_tr", "conjugacy_nm"} & enabled:
                for g in conj_sample:
                    gK_idx, _ = system.conj_route(g, K_idx)
                    gH_idx, _ = system.conj_route(g, H_idx)
                    ginst = dict(inst, g=g)
                    if "conjugacy_res" in enabled:
                        for b in els(K_idx):
                            lhs = system.ghost_conj(g, system.ghost_res(K_idx, H_idx, b))
                            rhs = system.ghost_res(gK_idx, gH_idx, system.ghost_conj(g, b))
                            rec.check("conjugacy_res", lhs == rhs, ginst, f"b={b.values}")
                    if "conjugacy_tr" in enabled:
                        for a in els(H_idx):
                            lhs = system.ghost_conj(g, system.ghost_tr(K_idx, H_idx, a))
                            rhs = system.ghost_tr(gK_idx, gH_idx, system.ghost_conj(g, a))
                            rec.check("conjugacy_tr", lhs == rhs, ginst, f"a={a.values}")
                    if "conjugacy_nm" in enabled:
                        for a in els(H_idx):
                            lhs = system.ghost_conj(g, system.ghost_nm(K_idx, H_idx, a))
                            rhs = system.ghost_nm(gK_idx, gH_idx, system.ghost_conj(g, a))
                            rec.check("conjugacy_nm", lhs == rhs, ginst, f"a={a.values}")

            if {"chi_res", "chi_tr", "chi_nm", "chi_conj"} & enabled:
                for j_cls in range(ringH.num_classes):
                    J_bits = ringH.class_rep_subgroup(j_cls).members
                    X = coset_space(group, H_bits, J_bits)
                    chi_x = GhostElement(H_idx, tuple(ringH.marks_matrix[j_cls]))
                    xinst = dict(inst, X=f"orbit H/{_sub_label(system, lattice.subgroup_index(J_bits))}")
                    if "chi_tr" in enabled:
                        lhs = system.ghost_tr(K_idx, H_idx, chi_x)
                        rhs = system.oracle_marks(induce(K_bits, X), K_idx)
                        rec.check("chi_tr", lhs == rhs, xinst, f"chi(X)={chi_x.values}")
                    if "chi_nm" in enabled:
                        try:
                            co = coinduce(K_bits, X, cap=cfg.coinduce_cap)
                        except CapExceededError:
                            co = None
                        if co is not None:
                            lhs = system.ghost_nm(K_idx, H_idx, chi_x)
                            rhs = system.oracle_marks(co, K_idx)
                            rec.check("chi_nm", lhs == rhs, xinst, f"chi(X)={chi_x.values}")
                    if "chi_conj" in enabled:
                        for g in conj_sample:
                            lhs = system.ghost_conj(g, chi_x)
                            rhs = system.oracle_marks(conjugate_gset(g, X), lhs.level)
                            rec.check("chi_conj", lhs == rhs, dict(xinst, g=g))
                if "chi_res" in enabled:
                    for j_cls in range(ringK.num_classes):
                        JK_bits = ringK.class_rep_subgroup(j_cls).members
                        Y = coset_space(group, K_bits, JK_bits)
                        chi_y = GhostElement(K_idx, tuple(ringK.marks_matrix[j_cls]))
                        lhs = system.ghost_res(K_idx, H_idx, chi_y)
                        rhs = system.oracle_marks(restrict_gset(Y, H_bits), H_idx)
                        rec.check("chi_res", lhs == rhs, inst, f"chi(Y)={chi_y.values}")

            if "tambara_sum" in enabled:
                # Top coordinate of nm(a+b) - nm(a) - nm(b) must vanish: the
                # cross terms are proper transfers, which die at the top level.
                top_cls = ringK.num_classes - 1
                e_list = els(H_idx)
                for i, a in enumerate(e_list):
                    for b in e_list[i:]:
                        lhs = system.ghost_nm(K_idx, H_idx, a + b)
                        ra = system.ghost_nm(K_idx, H_idx, a)
                        rb = system.ghost_nm(K_idx, H_idx, b)
                        delta = lhs.values[top_cls] - ra.values[top_cls] - rb.values[top_cls]
                        rec.check(
                            "tambara_sum", delta == 0, inst, f"a={a.values}, b={b.values}"
                        )

            if "tambara_transfer" in enabled:
                top_cls = ringK.num_classes - 1
                for l_cls in range(ringH.num_classes - 1):
                    L_idx2 = ringH.class_reps[l_cls]
                    for b in els(L_idx2):
                        out = system.ghost_nm(
                            K_idx, H_idx, system.ghost_tr(H_idx, L_idx2, b)
                        )
                        rec.check(
                            "tambara_transfer",
                            out.values[top_cls] == 0,
                            dict(inst, L=_sub_label(system, L_idx2)),
                            f"b={b.values}",
                        )

            if "weyl_constancy" in enabled:
                # Recompute tr/nm coordinates at every subgroup of K directly
                # from the formulas; they must be constant on K-classes.
                probe = els(H_idx)[: ringH.num_classes + 1]
                for a in probe:
                    trv = system.ghost_tr(K_idx, H_idx, a)
                    nmv = system.ghost_nm(K_idx, H_idx, a)
                    ok = True
                    for sid in ringK.sub_ids:
                        I_bits = lattice.subgroups[sid].members
                        cls = ringK.local_class_of[sid]
                        if system.tr_value_at(K_idx, H_idx, a, I_bits) != trv.values[cls]:
                            ok = False
                        if system.nm_value_at(K_idx, H_idx, a, I_bits) != nmv.values[cls]:
                            ok = False
                    rec.check("weyl_constancy", ok, inst, f"a={a.values}")

    # Conjugation functoriality: c_{g, ^h H} . c_{h, H} = c_{gh, H}.
    if "conj_functoriality" in enabled:
        if group.order * group.order <= CONJ_PAIR_CAP:
            pairs = [(g, h) for g in range(group.order) for h in range(group.order)]
        else:
            pairs = [(g, h) for g in conj_sample for h in conj_sample]
        for H_idx in class_rep_ids:
            for a in els(H_idx)[: system.level(H_idx).num_classes + 3]:
                for g, h in pairs:
                    lhs = system.ghost_conj(g, system.ghost_conj(h, a))
                    rhs = system.ghost_conj(mul[g][h], a)
                    rec.check(
                        "conj_functoriality",
                        lhs == rhs,
                        {"H": _sub_label(system, H_idx), "g": g, "h": h},
                        f"a={a.values}",
                    )

    return report
