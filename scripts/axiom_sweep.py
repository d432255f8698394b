#!/usr/bin/env python3
"""Run the full ghost-Tambara axiom verification over a list of groups.

    python scripts/axiom_sweep.py [SPEC ...]

With no arguments, sweeps the standard corpus.  Prints one line per group
with instance counts and timing; exits nonzero on any violation.
"""

import sys
import time

from btspec.ghost import GhostSystem, verify_axioms
from btspec.groups import group_from_text

DEFAULT_CORPUS = [
    "C1", "C2", "C4", "C6", "perm:(0 1);(2 3)", "S3", "D4", "Q8",
    "perm:(0 1 2);(3 4 5)", "D6", "A4", "S4",
]


def main(argv) -> int:
    specs = argv or DEFAULT_CORPUS
    bad = 0
    grand_total = 0
    t_all = time.perf_counter()
    for text in specs:
        t0 = time.perf_counter()
        system = GhostSystem(group_from_text(text))
        report = verify_axioms(system)
        grand_total += report.total_instances
        status = "ok" if report.ok else f"{sum(report.failed.values())} VIOLATIONS"
        print(
            f"{text:24s} order {system.group.order:5d} "
            f"{report.total_instances:8d} instances  {time.perf_counter() - t0:6.2f}s  {status}"
        )
        for failure in report.failures[:5]:
            print(f"    {failure.axiom}: {failure.instance} {failure.detail}")
        if not report.ok:
            bad += 1
    print(f"total: {grand_total} instances in {time.perf_counter() - t_all:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
