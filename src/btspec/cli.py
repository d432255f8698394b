"""Command-line interface.

Subcommands: subgroups, marks, residual, spec, ring-spec, fibers, verify,
member.  Output is byte-deterministic for a fixed configuration; exit codes
are 0 (success), 1 (domain error), 2 (usage error).  The subgroup lattice is
cached on disk keyed by spec text and max_order (env BTSPEC_CACHE overrides
the cache directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import cache as cache_mod
from .errors import BtspecError, SpecParseError, SpecRangeError
from .ghost import DEFAULT_SEED, GhostSystem, VerifyConfig, verify_axioms, ALL_AXIOMS
from .groups import DEFAULT_MAX_ORDER, parse_group_spec, realize
from .lattice import subgroup_lattice
from .names import class_labels
from .spectrum import (
    GENERIC,
    SpectrumPoset,
    burnside_ring_spectrum,
    burnside_ideal_membership,
    enumerate_spectrum,
    is_prime,
    residual_class,
    validate_prime_or_zero,
)

GENERIC_NOTE = (
    "fibers over primes not dividing the group order are pairwise order-isomorphic; "
    "they are reported once under the key GENERIC"
)


@dataclass
class Config:
    max_order: int = DEFAULT_MAX_ORDER
    cache_dir: Path = field(default_factory=cache_mod.default_cache_dir)
    use_cache: bool = True
    seed: int = DEFAULT_SEED
    coinduce_cap: int = 100_000
    fmt: str = "text"


class _UsageError(Exception):
    pass


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Global options are accepted both before and after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber earlier values.
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--max-order", type=int, default=d(DEFAULT_MAX_ORDER))
    parser.add_argument("--cache-dir", type=Path, default=d(None))
    parser.add_argument("--no-cache", action="store_true", default=d(False))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=d(DEFAULT_SEED))
    parser.add_argument("--coinduce-cap", type=int, default=d(100_000))
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json", "dot"), default=d("text")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btspec",
        description="Prime spectra of Burnside Tambara functors over finite groups.",
    )
    _add_global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subgroups", parents=[common], help="conjugacy classes of subgroups")
    p.add_argument("spec")

    p = sub.add_parser("marks", parents=[common], help="table of marks at a level")
    p.add_argument("spec")
    p.add_argument("--level", default=None, help="class label of the level subgroup")

    p = sub.add_parser("residual", parents=[common], help="p-residual subgroups O^p per class")
    p.add_argument("spec")
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser(
        "spec", parents=[common], help="Nakaoka spectrum of the Burnside Tambara functor"
    )
    p.add_argument("spec")
    p.add_argument("--prime", type=int, action="append", default=[],
                   help="materialize the fiber over this prime as well")

    p = sub.add_parser("ring-spec", parents=[common], help="Zariski spectrum of the Burnside ring")
    p.add_argument("spec")
    p.add_argument("--prime", type=int, action="append", default=[])

    p = sub.add_parser("fibers", parents=[common], help="one fiber of the spectrum")
    p.add_argument("spec")
    p.add_argument("--prime", required=True,
                   help="0, a prime, or GENERIC")

    p = sub.add_parser("verify", parents=[common], help="machine-verify the ghost Tambara axioms")
    p.add_argument("spec")
    p.add_argument("--axioms", default=None, help="comma-separated subset to run")

    p = sub.add_parser("member", parents=[common], help="ideal membership of a Burnside element")
    p.add_argument("spec")
    p.add_argument("--ideal", required=True, help="H,p with H a class label")
    p.add_argument("--level", required=True, help="class label of the level")
    p.add_argument("--element", required=True, help="comma-separated orbit coefficients")
    return parser


@dataclass
class Session:
    config: Config
    system: GhostSystem
    labels: list[str]

    @property
    def group(self):
        return self.system.group

    @property
    def lattice(self):
        return self.system.lattice

    def class_by_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BtspecError(
                f"unknown class label {label!r}; known labels: {' '.join(self.labels)}"
            )


def open_session(spec_text: str, config: Config) -> Session:
    spec = parse_group_spec(spec_text)
    group = realize(spec, config.max_order)
    lattice = None
    key = cache_mod.spec_cache_key(group.name, config.max_order)
    path = cache_mod.cache_path(config.cache_dir, key)
    if config.use_cache:
        lattice = cache_mod.cache_load(path, group, key)
    if lattice is None:
        lattice = subgroup_lattice(group)
        if config.use_cache:
            try:
                cache_mod.cache_store(path, group, lattice, key)
            except OSError as exc:
                print(f"btspec: cache write failed: {exc}", file=sys.stderr)
    system = GhostSystem(group, lattice)
    return Session(config, system, class_labels(group, lattice))


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- subgroups ------------------------------------------------------------------


def cmd_subgroups(session: Session, args) -> int:
    lat = session.lattice
    rows = []
    for cls in range(lat.num_classes):
        rep_idx = lat.class_reps[cls]
        rep = lat.subgroups[rep_idx]
        rows.append(
            {
                "label": session.labels[cls],
                "order": rep.order,
                "class_size": lat.class_size(cls),
                "normalizer_order": lat.normalizer(rep_idx).order,
            }
        )
    if session.config.fmt == "json":
        _emit_json(
            {
                "group": session.group.name,
                "order": session.group.order,
                "num_subgroups": len(lat.subgroups),
                "num_classes": lat.num_classes,
                "classes": rows,
            }
        )
        return 0
    if session.config.fmt == "dot":
        raise _UsageError("dot format applies to spec, ring-spec, and fibers")
    print(
        f"group {session.group.name}: order {session.group.order}, "
        f"{len(lat.subgroups)} subgroups in {lat.num_classes} conjugacy classes"
    )
    print(f"{'label':10s} {'order':>5s} {'size':>4s} {'normalizer':>10s}")
    for r in rows:
        print(
            f"{r['label']:10s} {r['order']:5d} {r['class_size']:4d} {r['normalizer_order']:10d}"
        )
    return 0


# -- marks ------------------------------------------------------------------------


def _level_class_labels(session: Session, ring) -> list[str]:
    lat = session.lattice
    seen: dict[str, int] = {}
    out = []
    for cls in range(ring.num_classes):
        g_label = session.labels[lat.class_of[ring.class_reps[cls]]]
        n = seen.get(g_label, 0) + 1
        seen[g_label] = n
        out.append(g_label if n == 1 else f"{g_label}#{n}")
    return out


def cmd_marks(session: Session, args) -> int:
    lat = session.lattice
    if args.level is None:
        level_idx = lat.top_index
    else:
        level_idx = lat.class_reps[session.class_by_label(args.level)]
    ring = session.system.level(level_idx)
    local_labels = _level_class_labels(session, ring)
    level_label = session.labels[lat.class_of[level_idx]]
    matrix = [list(row) for row in ring.marks_matrix]
    if session.config.fmt == "json":
        _emit_json(
            {"level_label": level_label, "class_labels": local_labels, "matrix": matrix}
        )
        return 0
    if session.config.fmt == "dot":
        raise _UsageError("dot format applies to spec, ring-spec, and fibers")
    print(f"table of marks at level {level_label} (group {session.group.name})")
    width = max(6, max(len(l) for l in local_labels) + 1)
    print(" " * (width + 8) + "".join(f"{l:>{width}s}" for l in local_labels))
    for cls, row in enumerate(matrix):
        tag = f"[{level_label}/{local_labels[cls]}]"
        print(f"{tag:{width + 8}s}" + "".join(f"{v:{width}d}" for v in row))
    print(f"orbit coefficient order for `member --element`: {','.join(local_labels)}")
    return 0


# -- residual ---------------------------------------------------------------------


def cmd_residual(session: Session, args) -> int:
    p = args.prime
    if not is_prime(p):
        raise _UsageError(f"--prime must be a prime number, got {p}")
    rows = [
        (session.labels[cls], session.labels[residual_class(session.system, cls, p)])
        for cls in range(session.lattice.num_classes)
    ]
    if session.config.fmt == "json":
        _emit_json({"group": session.group.name, "prime": p, "rows": rows})
        return 0
    if session.config.fmt == "dot":
        raise _UsageError("dot format applies to spec, ring-spec, and fibers")
    print(f"p-residual subgroups O^{p} for {session.group.name}")
    width = max(len(l) for l, _ in rows) + 2
    for label, res in rows:
        print(f"{label:{width}s}-> {res}")
    return 0


# -- spectra ------------------------------------------------------------------------


def _node_label(session: Session, poset: SpectrumPoset, node_id: int) -> str:
    node = poset.nodes[node_id]
    p_part = "q" if node.fiber == GENERIC else node.fiber
    return "p_{%s,%s}" % (session.labels[node.residual_class], p_part)


def _poset_json(session: Session, poset: SpectrumPoset) -> dict:
    return {
        "group": poset.group,
        "kind": poset.kind,
        "krull_dimension": poset.krull_dimension,
        "note": GENERIC_NOTE,
        "nodes": [
            {
                "id": n.node_id,
                "p": n.fiber,
                "label": _node_label(session, poset, n.node_id),
                "residual_class_label": session.labels[n.residual_class],
                "member_subgroup_labels": [session.labels[c] for c in n.member_classes],
            }
            for n in poset.nodes
        ],
        "edges": [[a, b] for a, b in poset.edges],
        "fibers": {k: list(v) for k, v in poset.fibers.items()},
    }


def _ranks_within(ids: list[int], inner: list[tuple[int, int]]) -> dict[int, int]:
    rank = {i: 0 for i in ids}
    changed = True
    while changed:
        changed = False
        for a, b in inner:
            if rank[b] < rank[a] + 1:
                rank[b] = rank[a] + 1
                changed = True
    return rank


def _print_fiber_text(session: Session, poset: SpectrumPoset, key: str) -> None:
    ids = list(poset.fibers[key])
    idset = set(ids)
    inner = [(a, b) for a, b in poset.edges if a in idset and b in idset]
    rank = _ranks_within(ids, inner)
    print(f"fiber {key} ({len(ids)} nodes)")
    by_rank: dict[int, list[int]] = {}
    for i in ids:
        by_rank.setdefault(rank[i], []).append(i)
    for r in sorted(by_rank):
        labels = "  ".join(_node_label(session, poset, i) for i in sorted(by_rank[r]))
        print("  " * (r + 1) + labels)
    if inner:
        print(
            "  edges: "
            + ", ".join(
                f"{_node_label(session, poset, a)} < {_node_label(session, poset, b)}"
                for a, b in inner
            )
        )


def _print_poset_text(session: Session, poset: SpectrumPoset) -> None:
    kind = "spectrum" if poset.kind == "tambara" else "ring spectrum"
    print(f"{kind} of {poset.group} (order {session.group.order})")
    print(f"krull dimension: {poset.krull_dimension}")
    print(f"note: {GENERIC_NOTE}")
    for key in poset.fibers:
        _print_fiber_text(session, poset, key)
    cross = [
        (a, b)
        for a, b in poset.edges
        if poset.nodes[a].fiber != poset.nodes[b].fiber
    ]
    if cross:
        print(
            "cross edges: "
            + ", ".join(
                f"{_node_label(session, poset, a)} < {_node_label(session, poset, b)}"
                for a, b in cross
            )
        )


def _dot_graph(session: Session, poset: SpectrumPoset, name: str, ids: list[int]) -> list[str]:
    idset = set(ids)
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for i in sorted(idset):
        lines.append(f'  n{i} [label="{_node_label(session, poset, i)}"];')
    for a, b in poset.edges:
        if a in idset and b in idset:
            lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return lines


def _print_poset_dot(session: Session, poset: SpectrumPoset) -> None:
    out: list[str] = []
    for key, ids in poset.fibers.items():
        out += _dot_graph(session, poset, f"fiber_{key}", list(ids))
    all_ids = [n.node_id for n in poset.nodes]
    out += _dot_graph(session, poset, "combined", all_ids)
    print("\n".join(out))


def _emit_poset(session: Session, poset: SpectrumPoset) -> int:
    fmt = session.config.fmt
    if fmt == "json":
        _emit_json(_poset_json(session, poset))
    elif fmt == "dot":
        _print_poset_dot(session, poset)
    else:
        _print_poset_text(session, poset)
    return 0


def _extra_primes(args) -> list[int]:
    primes = []
    for q in args.prime:
        if not is_prime(q):
            raise _UsageError(f"--prime must be prime, got {q}")
        primes.append(q)
    return primes


def cmd_spec(session: Session, args) -> int:
    return _emit_poset(session, enumerate_spectrum(session.system, _extra_primes(args)))


def cmd_ring_spec(session: Session, args) -> int:
    return _emit_poset(
        session, burnside_ring_spectrum(session.system, _extra_primes(args))
    )


def cmd_fibers(session: Session, args) -> int:
    raw = args.prime
    if raw == GENERIC:
        key, extra = GENERIC, []
    else:
        try:
            p = int(raw)
        except ValueError:
            raise _UsageError(f"--prime must be 0, a prime, or GENERIC, got {raw!r}")
        if p != 0 and not is_prime(p):
            raise _UsageError(f"--prime must be 0, a prime, or GENERIC, got {p}")
        extra = [p] if p != 0 else []
        key = str(p)
    poset = enumerate_spectrum(session.system, extra)
    if key not in poset.fibers:
        raise BtspecError(f"no fiber {key} in the spectrum of {session.group.name}")
    if session.config.fmt == "json":
        payload = _poset_json(session, poset)
        keep = set(poset.fibers[key])
        payload["nodes"] = [n for n in payload["nodes"] if n["id"] in keep]
        payload["edges"] = [e for e in payload["edges"] if e[0] in keep and e[1] in keep]
        payload["fibers"] = {key: list(poset.fibers[key])}
        _emit_json(payload)
    elif session.config.fmt == "dot":
        print("\n".join(_dot_graph(session, poset, f"fiber_{key}", list(poset.fibers[key]))))
    else:
        _print_fiber_text(session, poset, key)
    return 0


# -- verify -------------------------------------------------------------------------


def cmd_verify(session: Session, args) -> int:
    axioms = None
    if args.axioms:
        axioms = tuple(a.strip() for a in args.axioms.split(",") if a.strip())
        unknown = set(axioms) - set(ALL_AXIOMS)
        if unknown:
            raise _UsageError(
                f"unknown axioms: {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(ALL_AXIOMS)}"
            )
    cfg = VerifyConfig(
        seed=session.config.seed, coinduce_cap=session.config.coinduce_cap, axioms=axioms
    )
    report = verify_axioms(session.system, cfg)
    if session.config.fmt == "json":
        _emit_json(report.to_json_dict())
        return 0 if report.ok else 1
    if session.config.fmt == "dot":
        raise _UsageError("dot format applies to spec, ring-spec, and fibers")
    for name in ALL_AXIOMS:
        if name in report.counts:
            status = "pass" if all(f.axiom != name for f in report.failures) else "FAIL"
            print(f"{name:30s} {report.counts[name]:8d} {status}")
    if report.ok:
        print(f"all axioms verified: {report.total_instances} instances")
        return 0
    for f in report.failures:
        print(f"VIOLATION {f.axiom} at {f.instance}: {f.detail}")
    if report.suppressed_failures:
        print(f"... and {report.suppressed_failures} more violations")
    return 1


# -- member --------------------------------------------------------------------------


def cmd_member(session: Session, args) -> int:
    ideal_text = args.ideal
    if "," not in ideal_text:
        raise _UsageError("--ideal must look like H,p (class label, prime or 0)")
    h_label, _, p_text = ideal_text.partition(",")
    try:
        p = validate_prime_or_zero(int(p_text.strip()))
    except ValueError as exc:
        raise _UsageError(str(exc))
    k_cls = session.class_by_label(h_label.strip())
    level_cls = session.class_by_label(args.level)
    level_idx = session.lattice.class_reps[level_cls]
    ring = session.system.level(level_idx)
    try:
        coeffs = [int(tok) for tok in args.element.split(",")]
    except ValueError:
        raise _UsageError("--element must be comma-separated integers")
    try:
        x = ring.element(coeffs)
    except ValueError as exc:
        raise _UsageError(str(exc))
    inside = burnside_ideal_membership(session.system, k_cls, p, x)
    if session.config.fmt == "json":
        _emit_json(
            {
                "group": session.group.name,
                "ideal": {"subgroup": session.labels[k_cls], "p": p},
                "level": args.level,
                "element": coeffs,
                "member": inside,
            }
        )
    else:
        verdict = "MEMBER" if inside else "NOT a member"
        print(
            f"element {coeffs} at level {args.level} is {verdict} of "
            f"p_{{{session.labels[k_cls]},{p}}}"
        )
    return 0


_COMMANDS = {
    "subgroups": cmd_subgroups,
    "marks": cmd_marks,
    "residual": cmd_residual,
    "spec": cmd_spec,
    "ring-spec": cmd_ring_spec,
    "fibers": cmd_fibers,
    "verify": cmd_verify,
    "member": cmd_member,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = Config(
        max_order=args.max_order,
        cache_dir=args.cache_dir if args.cache_dir is not None else cache_mod.default_cache_dir(),
        use_cache=not args.no_cache,
        seed=args.seed,
        coinduce_cap=args.coinduce_cap,
        fmt=args.fmt,
    )
    try:
        if config.max_order < 1:
            raise _UsageError(f"--max-order must be >= 1, got {config.max_order}")
        session = open_session(args.spec, config)
        return _COMMANDS[args.command](session, args)
    except (SpecParseError, SpecRangeError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BtspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush does not fail again (Python docs, SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
