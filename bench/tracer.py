"""Run one btspec CLI command in this interpreter with per-layer tracing.

    python3 bench/tracer.py TRACE_OUT SPAWN_T -- ARGV...

Imports ``btspec.cli``, installs wrappers around the public functions of the
package modules (the layers), runs ``btspec.cli.run(ARGV)`` and exits with its
return code.  At exit it writes one JSON object to TRACE_OUT:

- ``spans``: one record per call at a layer boundary, with name, start, end
  and parent span index; all spans of one process belong to one command.
- ``counters``: ``[calls, seconds]`` for the hot inner functions
  (``lattice.closure``, the four ghost structure maps, ``gsets.fixed_points``
  and a few count-only ones).  A span per call on these would cost more than
  the work it measures.
- ``startup_s``: from SPAWN_T (``time.monotonic()`` in the parent just before
  it started this process) until ``btspec.cli`` is imported.
- ``facts``: sizes read off the results at the boundaries (subgroups
  enumerated, spectrum nodes and edges, verify instances, cache entry bytes,
  route tables compiled).

Modules bind imported names locally (``cli`` holds ``subgroup_lattice``,
``ghost`` holds ``fixed_points``), so each wrapper replaces the name in the
module that calls it; methods are replaced on their class.  Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import json
import sys
import time

import btspec.cli as cli
from btspec import burnside, cache, ghost, lattice, names, spectrum

_t_imported = time.monotonic()

spans: list[dict] = []
counters: dict[str, list] = {}
facts: dict[str, int] = {}
_stack: list[int] = []
_systems: list = []
_clock = time.perf_counter


def _bump(key: str, n: int = 1) -> None:
    facts[key] = facts.get(key, 0) + n


def _spanned(name: str, fn, after=None):
    """Wrap ``fn`` so each call records a span; ``after(result, args)`` may
    record facts from the result once the span has ended."""

    def wrapper(*args, **kwargs):
        span = {"name": name, "start": _clock(), "end": None,
                "parent": _stack[-1] if _stack else None}
        spans.append(span)
        _stack.append(len(spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = _clock()
            _stack.pop()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _timed_counter(name: str, fn):
    slot = counters.setdefault(name, [0, 0.0])

    def wrapper(*args, **kwargs):
        t = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            slot[0] += 1
            slot[1] += _clock() - t

    return wrapper


def _counter(name: str, fn):
    slot = counters.setdefault(name, [0, 0.0])

    def wrapper(*args, **kwargs):
        slot[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _after_enumerate(result, args):
    _bump("lattice.subgroups", len(result.subgroups))


def _after_load(result, args):
    path = args[0]
    if result is not None:
        _bump("cache.hits")
        _bump("cache.entry_bytes", path.stat().st_size)
    elif path.exists():
        _bump("cache.rejects")
    else:
        _bump("cache.misses")


def _after_store(result, args):
    _bump("cache.entry_bytes", args[0].stat().st_size)


def _after_assemble(result, args):
    _bump("spectrum.nodes", len(result.nodes))
    _bump("spectrum.edges", len(result.edges))


def _after_verify(result, args):
    _bump("ghost.verify_instances", result.total_instances)


def _enumerate_with_closure_delta(fn):
    """``lattice.closure`` is also reached through ``p_residual_bits``; count
    only the calls made while the lattice is being enumerated."""
    slot = counters.setdefault("lattice.closure", [0, 0.0])

    def wrapper(group):
        before = slot[0]
        result = fn(group)
        _bump("lattice.closure_calls", slot[0] - before)
        return result

    return wrapper


def install() -> None:
    lattice.closure = _counter("lattice.closure", lattice.closure)
    cli.subgroup_lattice = _spanned(
        "lattice.enumerate", _enumerate_with_closure_delta(lattice.subgroup_lattice),
        _after_enumerate,
    )

    cli.realize = _spanned("groups.realize", cli.realize)
    names.realize = _spanned("names.realize", names.realize)
    cli.class_labels = _spanned("names.class_labels", cli.class_labels)

    cache.cache_load = _spanned("cache.load", cache.cache_load, _after_load)
    cache.cache_store = _spanned("cache.store", cache.cache_store, _after_store)

    ring = burnside.LevelRing
    ring.__init__ = _spanned("burnside.level_init", ring.__init__)
    marks_getter = ring.marks_matrix.fget
    marks_span = _spanned("burnside.marks_matrix", marks_getter)
    ring.marks_matrix = property(
        lambda self: marks_getter(self) if self._marks_matrix is not None else marks_span(self)
    )
    burnside.conjugate_bits = _counter("burnside.conjugate_bits", burnside.conjugate_bits)

    for module in (burnside, ghost):
        module.fixed_points = _timed_counter("gsets.fixed_points", module.fixed_points)
        module.coset_space = _counter("gsets.coset_space", module.coset_space)
    ghost.coinduce = _counter("gsets.coinduce", ghost.coinduce)

    system = ghost.GhostSystem
    for name in ("ghost_res", "ghost_tr", "ghost_nm", "ghost_conj"):
        setattr(system, name, _timed_counter("ghost.map", getattr(system, name)))
    for name in ("res_route", "tr_route", "nm_route", "conj_route"):
        setattr(system, name, _counter("ghost.route", getattr(system, name)))
    system_init = system.__init__

    def init_and_register(self, *args, **kwargs):
        system_init(self, *args, **kwargs)
        _systems.append(self)

    system.__init__ = init_and_register
    cli.verify_axioms = _spanned("ghost.verify", cli.verify_axioms, _after_verify)

    spectrum.residual_class = _counter("spectrum.residual_class", spectrum.residual_class)
    cli.enumerate_spectrum = _spanned(
        "spectrum.assemble", cli.enumerate_spectrum, _after_assemble
    )
    cli.burnside_ring_spectrum = _spanned(
        "spectrum.assemble", cli.burnside_ring_spectrum, _after_assemble
    )


def main(argv: list[str]) -> int:
    trace_out, spawn_t, sep, *cli_argv = argv
    if sep != "--":
        print("usage: tracer.py TRACE_OUT SPAWN_T -- ARGV...", file=sys.stderr)
        return 2
    install()
    try:
        rc = _spanned("cli.run", cli.run)(cli_argv)
    finally:
        sys.stdout.flush()
        facts["ghost.routes_compiled"] = sum(
            len(s._res_routes) + len(s._tr_routes) + len(s._nm_routes) + len(s._conj_routes)
            for s in _systems
        )
        record = {
            "startup_s": _t_imported - float(spawn_t),
            "spans": spans,
            "counters": counters,
            "facts": facts,
        }
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
