"""Self-check of the benchmark: a golden mismatch fails, traced counts repeat.

    python3 -m pytest bench/test_bench.py

Every test runs real btspec commands, about 90 s in all; do not run
it while a benchmark is measuring, since both use ``.bench_run/``.
"""

from __future__ import annotations

import json

import pytest

import run

# Traced per-layer counts that depend only on the workload, not on timing,
# command order or the verify seed.
DETERMINISTIC = (
    "lattice.closure_calls",
    "lattice.subgroups",
    "gsets.fixed_points_calls",
    "ghost.map_calls",
    "ghost.verify_instances",
    "spectrum.nodes",
    "spectrum.edges",
    "cache.hits",
    "cache.misses",
    "cache.rejects",
    "cache.entry_bytes",
)


def test_corrupted_golden_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    goldens["verify D6 --no-cache"]["stdout_sha256"] = "0" * 64
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(goldens), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDENS", corrupted)

    code = run.main(["--workload", "verify-sweep", "--seed", "1", "--seconds", "1"])

    lines = capsys.readouterr().out.splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert code != 0
    assert report["fail_ratio"]["value"] > 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2  # every verify D6, no verify S4


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = run.WORKLOADS[name]
    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    run.setup(workload)
    counts = []
    for seed, order in ((1, list(workload.commands)), (2, list(reversed(workload.commands)))):
        result = run.run_pass(workload, order, seed, goldens, traced=True)
        assert result.failed == 0, result.problems
        layers = run.pass_layers(result.layers)
        counts.append({key: layers[key] for key in DETERMINISTIC})
    assert counts[0] == counts[1]
