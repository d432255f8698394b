"""Write goldens.json: exit code and stdout sha256 of every workload command.

    python3 bench/record_goldens.py

btspec's output must not change by a byte, so record only at a commit whose
output is known good, and give a reason whenever the digests change.  Each
``verify`` command is run with two seeds and must print the same bytes for
both, because the benchmark passes its own seed to ``verify --seed``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

VERIFY_SEEDS = (1, 0x5EED)


def main() -> int:
    goldens = {}
    for workload in run.WORKLOADS.values():
        run.setup(workload)
        for base in workload.commands:
            seeds = VERIFY_SEEDS if base[0] == "verify" else VERIFY_SEEDS[:1]
            outcomes = [run.run_command(run.command_argv(base, seed)) for seed in seeds]
            digests = {hashlib.sha256(o.stdout).hexdigest() for o in outcomes}
            codes = {o.exit_code for o in outcomes}
            if len(digests) != 1 or codes != {0}:
                print(f"{run.golden_key(base)}: exit codes {codes}, {len(digests)} distinct "
                      "outputs across seeds", file=sys.stderr)
                return 1
            goldens[run.golden_key(base)] = {"exit_code": 0, "stdout_sha256": digests.pop()}
    run.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
