"""btspec benchmark: one closed-loop client running btspec CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing but ``src/`` and this
directory.  Each command runs in a fresh interpreter (``python3 -m
btspec.cli``), and the next command starts only after the previous one has
exited, because per-process start-up work (``names`` fingerprinting, imports)
is paid by every real CLI call.  A pass runs every command of the workload
once, in an order drawn from ``--seed``; passes repeat while the median pass
so far still fits in ``--seconds`` (at least one pass).

Every command's exit code, stderr and stdout are checked: stdout must match
the sha256 in ``goldens.json``, and the facts below that do not depend on the
digests are cross-checked outside the timed commands.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes whose commands run under ``tracer.py`` and prints
the per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is a ``{"report": ...}`` object with sample counts, command-kind times,
``fail_ratio`` and machine facts.  The exit code is 0 only when every check
passed.  See README.md in this directory for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
CACHE = WORK / "cache"
SPANS = WORK / "spans.json"
GOLDENS = BENCH / "goldens.json"

C840 = "perm:(0 1);(2 3);(4 5);(6 7 8)(9 10 11 12 13)(14 15 16 17 18 19 20)"

# Known results, independent of the recorded digests.
LATTICE_FACTS = {"S5": (156, 19), "GL3_2": (179, 15), "A6": (501, 22), C840: (128, 128)}
VERIFY_FACTS = {"S4": 318837, "D6": 155511}

KIND_METRIC = {
    "spec": "spec_s",
    "ring-spec": "spec_s",
    "fibers": "spec_s",
    "marks": "marks_s",
    "verify": "verify_s",
}

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    cold: bool = False  # empty the lattice cache before every pass
    prefill: tuple[str, ...] = ()  # groups whose lattice set-up caches


WORKLOADS = {
    "cold-lattice": Workload((("spec", "S5"), ("spec", "GL3_2"), ("spec", "A6")), cold=True),
    "warm-manyclass": Workload(
        (
            ("spec", C840),
            ("ring-spec", C840, "--format", "json"),
            ("fibers", C840, "--prime", "3", "--format", "dot"),
            ("marks", C840),
            ("marks", "GL3_2"),
        ),
        prefill=(C840, "GL3_2"),
    ),
    "verify-sweep": Workload((("verify", "S4", "--no-cache"), ("verify", "D6", "--no-cache"))),
}


class SetupError(Exception):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), BTSPEC_CACHE=str(CACHE))


def command_argv(base: tuple[str, ...], seed: int) -> list[str]:
    """The seed reaches the program only as ``verify --seed``."""
    return [*base, "--seed", str(seed)] if base[0] == "verify" else list(base)


def golden_key(base: tuple[str, ...]) -> str:
    return " ".join(base)


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int
    trace: dict | None = None


def run_command(argv: list[str], traced: bool = False) -> Outcome:
    """Run one CLI command in a fresh interpreter and wait for it to exit."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path, trace_path = WORK / "stdout", WORK / "stderr", WORK / "trace.json"
    trace_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path),
                   repr(time.monotonic()), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "btspec.cli", *argv]
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return Outcome(seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                   usage.ru_maxrss, trace)


def cached_lattices() -> dict[str, tuple[int, int]]:
    """(subgroups, classes) per group spec, read from the lattice cache."""
    found = {}
    for path in CACHE.glob("lattice-*.json"):
        entry = json.loads(path.read_text(encoding="utf-8"))
        found[entry["spec"]] = (len(entry["subgroups"]), max(entry["class_of"]) + 1)
    return found


def check(base: tuple[str, ...], outcome: Outcome, goldens: dict, cold: bool) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    problems = []
    golden = goldens.get(golden_key(base), {})
    if outcome.exit_code != golden.get("exit_code", 0):
        problems.append(f"exit code {outcome.exit_code}")
    if b"Traceback" in outcome.stderr:
        problems.append("Traceback on stderr")
    if hashlib.sha256(outcome.stdout).hexdigest() != golden.get("stdout_sha256"):
        problems.append("stdout differs from the golden digest")
    group = base[1]
    text = outcome.stdout.decode("utf-8", "replace")
    if base[0] == "spec" and len(base) == 2:
        m = re.search(r"^fiber 0 \((\d+) nodes\)$", text, re.M)
        if m is None or int(m.group(1)) != LATTICE_FACTS[group][1]:
            problems.append(f"fiber 0 of {group} should have {LATTICE_FACTS[group][1]} nodes")
    if base[0] == "verify":
        m = re.search(r"^all axioms verified: (\d+) instances$", text, re.M)
        if m is None or int(m.group(1)) != VERIFY_FACTS[group]:
            problems.append(f"verify {group} should report {VERIFY_FACTS[group]} instances")
    if cold and cached_lattices().get(group) != LATTICE_FACTS[group]:
        problems.append(f"cached lattice of {group} should be {LATTICE_FACTS[group]}")
    return problems


PROBE = "import btspec.cli, sys; sys.stdout.write(btspec.cli.__file__)"


def empty_cache() -> None:
    shutil.rmtree(CACHE, ignore_errors=True)
    CACHE.mkdir(parents=True)


def setup(workload: Workload) -> None:
    """Check that btspec imports from ./src and fill the lattice cache."""
    if not (SRC / "btspec" / "cli.py").is_file():
        raise SetupError(f"no btspec sources under {SRC}")
    empty_cache()
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, env=child_env(),
                           cwd=ROOT, stdin=subprocess.DEVNULL)
    if probe.returncode != 0 or not Path(probe.stdout.decode()).is_relative_to(SRC):
        raise SetupError(f"btspec does not import from {SRC}: {probe.stderr.decode()[-500:]}")
    for spec in workload.prefill:
        outcome = run_command(["subgroups", spec])
        if outcome.exit_code != 0:
            raise SetupError(f"cache pre-fill for {spec} failed: {outcome.stderr.decode()[-500:]}")
    lattices = cached_lattices()
    for spec in workload.prefill:
        if lattices.get(spec) != LATTICE_FACTS[spec]:
            raise SetupError(f"cached lattice of {spec} is {lattices.get(spec)}, "
                             f"expected {LATTICE_FACTS[spec]}")


@dataclass
class PassResult:
    seconds: float = 0.0
    kinds: dict = field(default_factory=lambda: defaultdict(float))
    max_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)


def run_pass(workload: Workload, order: list, seed: int, goldens: dict, traced: bool) -> PassResult:
    if workload.cold:
        empty_cache()
    result = PassResult()
    for position, base in enumerate(order):
        outcome = run_command(command_argv(base, seed), traced)
        result.seconds += outcome.seconds
        result.kinds[KIND_METRIC[base[0]]] += outcome.seconds
        result.max_rss_kb = max(result.max_rss_kb, outcome.max_rss_kb)
        result.attempted += 1
        problems = check(base, outcome, goldens, workload.cold)
        if traced:
            if outcome.trace is None:
                problems.append("tracer wrote no trace")
            else:
                for name, value in command_layers(outcome.trace, len(outcome.stdout)).items():
                    result.layers[name] += value
                result.spans.extend(
                    dict(span, cmd=position, command=golden_key(base))
                    for span in outcome.trace["spans"]
                )
        if problems:
            result.failed += 1
            result.problems.append(f"{golden_key(base)}: {'; '.join(problems)}")
    return result


def command_layers(trace: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced command (see README.md for each)."""
    spans, counters, facts = trace["spans"], trace["counters"], trace["facts"]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
    run_idx = next(i for i, s in enumerate(spans) if s["name"] == "cli.run")
    run = spans[run_idx]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == run_idx)

    def count(name):
        return counters.get(name, [0, 0.0])[0]

    def busy(name):
        return counters.get(name, [0, 0.0])[1]

    return {
        "groups.realize_s": seconds["groups.realize"] + seconds["names.realize"],
        "groups.realize_calls": calls["groups.realize"] + calls["names.realize"],
        "lattice.enumerate_s": seconds["lattice.enumerate"],
        "lattice.closure_calls": facts.get("lattice.closure_calls", 0),
        "lattice.subgroups": facts.get("lattice.subgroups", 0),
        "cache.load_s": seconds["cache.load"],
        "cache.store_s": seconds["cache.store"],
        "cache.hits": facts.get("cache.hits", 0),
        "cache.misses": facts.get("cache.misses", 0),
        "cache.rejects": facts.get("cache.rejects", 0),
        "cache.entry_bytes": facts.get("cache.entry_bytes", 0),
        "names.class_labels_s": seconds["names.class_labels"],
        "names.candidate_realize_calls": calls["names.realize"],
        "names.candidate_realize_s": seconds["names.realize"],
        "burnside.level_init_s": seconds["burnside.level_init"],
        "burnside.levels_built": calls["burnside.level_init"],
        "burnside.level_conjugations": count("burnside.conjugate_bits"),
        "burnside.marks_matrix_s": seconds["burnside.marks_matrix"],
        "gsets.fixed_points_calls": count("gsets.fixed_points"),
        "gsets.fixed_points_s": busy("gsets.fixed_points"),
        "gsets.coset_space_calls": count("gsets.coset_space"),
        "gsets.coinduce_calls": count("gsets.coinduce"),
        "ghost.verify_s": seconds["ghost.verify"],
        "ghost.verify_instances": facts.get("ghost.verify_instances", 0),
        "ghost.map_calls": count("ghost.map"),
        "ghost.map_s": busy("ghost.map"),
        "ghost.routes_compiled": facts.get("ghost.routes_compiled", 0),
        "ghost.route_lookups": count("ghost.route"),
        "spectrum.assemble_s": seconds["spectrum.assemble"],
        "spectrum.nodes": facts.get("spectrum.nodes", 0),
        "spectrum.edges": facts.get("spectrum.edges", 0),
        "spectrum.residual_calls": count("spectrum.residual_class"),
        "cli.startup_s": trace["startup_s"],
        "cli.render_s": (run["end"] - run["start"]) - children,
        "cli.output_bytes": output_bytes,
    }


def pass_layers(layers: dict) -> dict:
    """Add the ratios, which are taken over a whole pass."""
    out = dict(layers)
    closures = out["lattice.closure_calls"]
    out["lattice.closure_yield"] = out["lattice.subgroups"] / closures if closures else 0.0
    lookups = out.pop("ghost.route_lookups")
    out["ghost.route_hit_ratio"] = (
        (lookups - out["ghost.routes_compiled"]) / lookups if lookups else 0.0
    )
    return out


UNITS = {"_s": "s", "_mb": "MB", "_bytes": "B", "_ratio": "ratio", "_yield": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def tail(values: list[float]) -> dict | None:
    """The highest percentile above the median with ten samples beyond it."""
    n = len(values)
    if n <= 20:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result, report)."""
    facts = machine()
    workload = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        setup(workload)
        setups.append(time.perf_counter() - t0)

    rng = random.Random(seed)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        run_traced = trace and len(traced) < len(untraced)
        done = untraced + traced
        if done and (not trace or traced):
            estimate = statistics.median(p.seconds for p in done)
            if time.perf_counter() - start + estimate > seconds:
                break
        order = list(workload.commands)
        rng.shuffle(order)
        result = run_pass(workload, order, seed, goldens, run_traced)
        (traced if run_traced else untraced).append(result)
    shutil.rmtree(CACHE, ignore_errors=True)

    done = untraced + traced
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    pass_times = [p.seconds for p in untraced]
    kinds = sorted({KIND_METRIC[base[0]] for base in workload.commands})
    measured = {
        "setup_s": {"samples": setups},
        "pass_s": {"samples": pass_times, "tail": tail(pass_times)},
        "peak_rss_mb": {"value": max(p.max_rss_kb for p in untraced) * 1024 / 1e6},
        "fail_ratio": {"value": failed / attempted},
        **{kind: {"samples": [p.kinds[kind] for p in untraced]} for kind in kinds},
    }
    for metric, entry in measured.items():
        if "samples" in entry:
            entry["value"] = statistics.median(entry["samples"])
        entry["unit"] = unit_of(metric)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": facts,
        **measured,
        "attempted": attempted,
        "failed": failed,
        "problems": [msg for p in done for msg in p.problems],
    }
    if trace:
        per_pass = [pass_layers(p.layers) for p in traced]
        metrics = {m: statistics.median(layers[m] for layers in per_pass) for m in per_pass[0]}
        metrics["trace.pass_s"] = statistics.median(p.seconds for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - measured["pass_s"]["value"]
        report["traced_passes"] = len(traced)
        spans = [dict(s, cmd=f"{i}.{s['cmd']}") for i, p in enumerate(traced) for s in p.spans]
        report["spans_file"] = str(SPANS.relative_to(ROOT))
        SPANS.write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = {m: measured[m]["value"] for m in ("setup_s", "pass_s", "peak_rss_mb")}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
