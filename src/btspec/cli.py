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
from pathlib import Path

from . import cache as cache_mod
from .errors import BtspecError, UsageError
from .ghost import DEFAULT_SEED, GhostSystem, verify_axioms, ALL_AXIOMS
from .groups import DEFAULT_MAX_ORDER, MAX_ORDER, FiniteGroup, parse_group_spec, realize
from .lattice import subgroup_lattice
from .names import class_labels
from .spectrum import (
    GENERIC,
    SpectrumPoset,
    below_prime_limit,
    burnside_ring_spectrum,
    burnside_ideal_membership,
    check_extra_primes,
    enumerate_spectrum,
    is_prime,
    residual_class,
    validate_prime_or_zero,
)

GENERIC_NOTE = (
    "fibers over primes not dividing the group order are pairwise order-isomorphic; "
    "they are reported once under the key GENERIC"
)

# Error messages longer than this are cut to it, ending in "...": some echo
# their input (a spec, a label, a flag value), and the longest fixed one, for
# an unknown --axioms value, is about 300 characters.
MAX_MESSAGE = 400


class _Parser(argparse.ArgumentParser):
    # argparse would print its usage block and exit; report one line instead.
    def error(self, message):
        raise UsageError(message)


def integer(text: str) -> int:
    """An int written as any Python int literal (``12``, ``0x1f``, ``0b101``);
    argparse names this function in its error for a bad value."""
    return int(text, 0)


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Global options are accepted both before and after the subcommand; the
    # per-subcommand copies use SUPPRESS so they never clobber earlier values.
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--max-order", type=int, default=d(DEFAULT_MAX_ORDER))
    parser.add_argument("--cache-dir", type=Path, default=d(None))
    parser.add_argument("--no-cache", action="store_true", default=d(False))
    parser.add_argument("--seed", type=integer, default=d(DEFAULT_SEED))
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json", "dot"), default=d("text")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="btspec",
        description="Prime spectra of Burnside Tambara functors over finite groups.",
    )
    _add_global_options(parser, suppress=False)
    common = _Parser(add_help=False)
    _add_global_options(common, suppress=True)
    common.add_argument("spec")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("subgroups", parents=[common], help="conjugacy classes of subgroups")

    p = sub.add_parser("marks", parents=[common], help="table of marks at a level")
    p.add_argument("--level", default=None, help="class label of the level subgroup")

    p = sub.add_parser("residual", parents=[common], help="p-residual subgroups O^p per class")
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser(
        "spec", parents=[common], help="Nakaoka spectrum of the Burnside Tambara functor"
    )
    p.add_argument("--prime", type=int, action="append", default=[],
                   help="materialize the fiber over this prime as well")

    p = sub.add_parser("ring-spec", parents=[common], help="Zariski spectrum of the Burnside ring")
    p.add_argument("--prime", type=int, action="append", default=[])

    p = sub.add_parser("fibers", parents=[common], help="one fiber of the spectrum")
    p.add_argument("--prime", required=True,
                   help="0, a prime, or GENERIC")

    p = sub.add_parser("verify", parents=[common], help="machine-verify the ghost Tambara axioms")
    p.add_argument("--axioms", default=None, help="comma-separated subset to run")

    p = sub.add_parser("member", parents=[common], help="ideal membership of a Burnside element")
    p.add_argument("--ideal", required=True, help="H,p with H a class label")
    p.add_argument("--level", required=True, help="class label of the level")
    p.add_argument("--element", required=True, help="comma-separated orbit coefficients")
    return parser


class Session:
    """A group's ghost system and its class labels, as the commands read them."""

    def __init__(self, system: GhostSystem, labels: list[str]):
        self.system, self.labels = system, labels

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


def _below_limit(p: int, what: str = "--prime") -> int:
    try:
        return below_prime_limit(p, what)
    except ValueError as exc:
        raise UsageError(str(exc))


def check_args(args) -> None:
    """Refuse bad flags before any lattice work; ``run`` calls it after
    ``realize``, so spec-parse and realize errors keep precedence.

    Normalizes in place what the commands read: ``fibers --prime`` becomes an
    int or GENERIC, ``verify --axioms`` a non-empty tuple or None (all axioms),
    ``member --ideal`` a (label, prime) pair and ``member --element`` a list
    of ints.  Every prime flag must be below 2^64, and ``spec``/``ring-spec``
    take at most ``MAX_EXTRA_PRIMES`` distinct ``--prime`` values.
    """
    cmd = args.command
    if cmd == "residual" and not is_prime(_below_limit(args.prime)):
        raise UsageError(f"--prime must be a prime number, got {args.prime}")
    elif cmd in ("spec", "ring-spec"):
        check_extra_primes(args.prime)
        for q in args.prime:
            if not is_prime(_below_limit(q)):
                raise UsageError(f"--prime must be prime, got {q}")
    elif cmd == "fibers" and args.prime != GENERIC:
        try:
            p = int(args.prime)
        except ValueError:
            raise UsageError(f"--prime must be 0, a prime, or GENERIC, got {args.prime!r}")
        if p != 0 and not is_prime(_below_limit(p)):
            raise UsageError(f"--prime must be 0, a prime, or GENERIC, got {p}")
        args.prime = p
    elif cmd == "verify":
        if args.axioms is not None:
            args.axioms = tuple(a.strip() for a in args.axioms.split(",") if a.strip())
            choices = f"choose from {', '.join(ALL_AXIOMS)}"
            if not args.axioms:
                raise UsageError(f"--axioms names no axiom; {choices}")
            unknown = set(args.axioms) - set(ALL_AXIOMS)
            if unknown:
                raise UsageError(f"unknown axioms: {', '.join(sorted(unknown))}; {choices}")
    elif cmd == "member":
        h_label, _, p_text = args.ideal.partition(",")
        try:
            p = int(p_text)
        except ValueError:  # no comma, or no integer after it
            raise UsageError("--ideal must look like H,p (class label, prime or 0)")
        try:
            p = validate_prime_or_zero(_below_limit(p, "the prime of --ideal"))
        except ValueError as exc:
            raise UsageError(str(exc))
        args.ideal = (h_label.strip(), p)
        try:
            args.element = [int(tok) for tok in args.element.split(",")]
        except ValueError:
            raise UsageError("--element must be comma-separated integers")
    if args.fmt == "dot" and cmd not in ("spec", "ring-spec", "fibers"):
        raise UsageError("dot format applies to spec, ring-spec, and fibers")


def open_session(group: FiniteGroup, args) -> Session:
    """Build or load the lattice of a realized group."""
    lattice = None
    if not args.no_cache:
        key = cache_mod.spec_cache_key(group.name, args.max_order)
        path = cache_mod.cache_path(args.cache_dir or cache_mod.default_cache_dir(), key)
        lattice = cache_mod.cache_load(path, group, key)
    if lattice is None:
        lattice = subgroup_lattice(group)
        if not args.no_cache:
            try:
                cache_mod.cache_store(path, group, lattice, key)
            except OSError as exc:
                print(f"btspec: cache write failed: {exc}", file=sys.stderr)
    system = GhostSystem(group, lattice)
    return Session(system, class_labels(group, lattice))


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- subgroups ------------------------------------------------------------------


def cmd_subgroups(session: Session, args) -> int:
    lat = session.lattice
    rows = []
    for cls in range(lat.num_classes):
        rep = lat.subgroups[lat.class_reps[cls]]
        rows.append(
            {
                "label": session.labels[cls],
                "order": rep.order,
                "class_size": lat.class_size(cls),
                # Orbit-stabilizer: a class of subgroups H has [G : N_G(H)] members.
                "normalizer_order": session.group.order // lat.class_size(cls),
            }
        )
    if args.fmt == "json":
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
    matrix = ring.marks_matrix
    if args.fmt == "json":
        _emit_json(
            {"level_label": level_label, "class_labels": local_labels, "matrix": matrix}
        )
        return 0
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
    rows = [
        (session.labels[cls], session.labels[residual_class(session.system, cls, p)])
        for cls in range(session.lattice.num_classes)
    ]
    if args.fmt == "json":
        _emit_json({"group": session.group.name, "prime": p, "rows": rows})
        return 0
    print(f"p-residual subgroups O^{p} for {session.group.name}")
    width = max(len(l) for l, _ in rows) + 2
    for label, res in rows:
        print(f"{label:{width}s}-> {res}")
    return 0


# -- spectra ------------------------------------------------------------------------


def _poset_json(session: Session, poset: SpectrumPoset, labels, fibers, edges) -> dict:
    """The poset as JSON, cut down to the nodes of ``fibers`` and to ``edges``."""
    nodes = [poset.nodes[i] for ids in fibers.values() for i in ids]  # ids ascend across fibers
    return {
        "group": poset.group,
        "kind": poset.kind,
        "krull_dimension": poset.krull_dimension,
        "note": GENERIC_NOTE,
        "nodes": [
            {
                "id": n.node_id,
                "p": n.fiber,
                "label": labels[n.node_id],
                "residual_class_label": session.labels[n.residual_class],
                "member_subgroup_labels": [session.labels[c] for c in n.member_classes],
            }
            for n in nodes
        ],
        "edges": [[a, b] for a, b in edges],
        "fibers": fibers,
    }


def _dot_graph(name: str, ids, edges, labels) -> list[str]:
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    lines += [f'  n{i} [label="{labels[i]}"];' for i in ids]
    lines += [f"  n{a} -> n{b};" for a, b in edges]
    lines.append("}")
    return lines


def _emit_poset(session: Session, poset: SpectrumPoset, fmt: str, keys=None) -> int:
    """Print the whole poset, or with ``keys`` only those fibers and the edges
    inside them."""
    whole = keys is None
    fibers = poset.fibers if whole else {k: poset.fibers[k] for k in keys}
    labels = [  # one per node, in node id order
        "p_{%s,%s}" % (session.labels[n.residual_class], "q" if n.fiber == GENERIC else n.fiber)
        for n in poset.nodes
    ]
    if fmt == "json":
        edges = poset.edges if whole else [e for k in fibers for e in poset.fiber_edges[k]]
        _emit_json(_poset_json(session, poset, labels, fibers, edges))
    elif fmt == "dot":
        out: list[str] = []
        for key, ids in fibers.items():
            out += _dot_graph(f"fiber_{key}", ids, poset.fiber_edges[key], labels)
        if whole:
            out += _dot_graph("combined", range(len(poset.nodes)), poset.edges, labels)
        print("\n".join(out))
    else:
        edges_text = lambda edges: ", ".join(f"{labels[a]} < {labels[b]}" for a, b in edges)
        if whole:
            kind = "spectrum" if poset.kind == "tambara" else "ring spectrum"
            print(f"{kind} of {poset.group} (order {session.group.order})")
            print(f"krull dimension: {poset.krull_dimension}")
            print(f"note: {GENERIC_NOTE}")
        rank = poset.rank
        for key, ids in fibers.items():
            print(f"fiber {key} ({len(ids)} nodes)")
            for r in sorted({rank[i] for i in ids}):  # ids ascend, and so does each rank's list
                print("  " * (r + 1) + "  ".join(labels[i] for i in ids if rank[i] == r))
            if poset.fiber_edges[key]:
                print("  edges: " + edges_text(poset.fiber_edges[key]))
        if whole and poset.cross_edges:
            print("cross edges: " + edges_text(poset.cross_edges))
    return 0


def cmd_spec(session: Session, args) -> int:
    return _emit_poset(session, enumerate_spectrum(session.system, args.prime), args.fmt)


def cmd_ring_spec(session: Session, args) -> int:
    return _emit_poset(session, burnside_ring_spectrum(session.system, args.prime), args.fmt)


def cmd_fibers(session: Session, args) -> int:
    p = args.prime
    poset = enumerate_spectrum(session.system, [] if p in (0, GENERIC) else [p])
    return _emit_poset(session, poset, args.fmt, keys=[str(p)])


# -- verify -------------------------------------------------------------------------


def cmd_verify(session: Session, args) -> int:
    report = verify_axioms(session.system, seed=args.seed, axioms=args.axioms)
    if args.fmt == "json":
        _emit_json(report.to_json_dict())
        return 0 if report.ok else 1
    for name in ALL_AXIOMS:
        if name in report.counts:
            status = "FAIL" if name in report.failed else "pass"
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
    h_label, p = args.ideal
    k_cls = session.class_by_label(h_label)
    level_cls = session.class_by_label(args.level)
    level_idx = session.lattice.class_reps[level_cls]
    ring = session.system.level(level_idx)
    try:
        x = ring.element(args.element)
    except ValueError as exc:
        raise UsageError(str(exc))
    inside = burnside_ideal_membership(session.system, k_cls, p, x)
    if args.fmt == "json":
        _emit_json(
            {
                "group": session.group.name,
                "ideal": {"subgroup": session.labels[k_cls], "p": p},
                "level": args.level,
                "element": args.element,
                "member": inside,
            }
        )
    else:
        verdict = "MEMBER" if inside else "NOT a member"
        print(
            f"element {args.element} at level {args.level} is {verdict} of "
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


def _clip(exc: Exception) -> str:
    text = str(exc)
    return text if len(text) <= MAX_MESSAGE else text[: MAX_MESSAGE - 3] + "..."


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.max_order < 1:
            raise UsageError(f"--max-order must be >= 1, got {args.max_order}")
        if args.max_order > MAX_ORDER:
            raise UsageError(f"--max-order must be <= {MAX_ORDER}, got {args.max_order}")
        group = realize(parse_group_spec(args.spec), args.max_order)
        check_args(args)
        session = open_session(group, args)
        return _COMMANDS[args.command](session, args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {_clip(exc)}", file=sys.stderr)
        return 2
    except BtspecError as exc:
        print(f"error: {_clip(exc)}", file=sys.stderr)
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
