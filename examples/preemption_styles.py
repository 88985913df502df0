#!/usr/bin/env python3
"""Three styles of preemption on one workload.

Compares the full scheduler zoo on the same trace:

* non-preemptive: FCFS, conservative backfilling, EASY (the paper's NS);
* indiscriminate preemption: gang scheduling (time-driven) and
  Immediate Service (arrival-driven);
* selective preemption: SS and TSS (priority-driven, the paper's
  contribution).

Prints one row per scheduler: overall and very-short-job slowdown, the
suspension bill, and utilisation -- the whole argument of the paper in
one table.  With --overhead, every suspension pays the disk-swap price,
which is where indiscriminate preemption stops being free.

Run:  python examples/preemption_styles.py [--overhead]
"""

import sys

from repro import generate_trace, make_scheduler, simulate
from repro.analysis.tables import render_table
from repro.core import DiskSwapOverheadModel
from repro.metrics.aggregate import overall_stats, per_category_stats
from repro.workload.archive import get_preset


def vs_mean(result) -> float:
    stats = per_category_stats(result.jobs)
    vals = [s.slowdown.mean for c, s in stats.items() if c[0] == "VS"]
    return sum(vals) / len(vals) if vals else float("nan")


def main() -> None:
    overhead = DiskSwapOverheadModel() if "--overhead" in sys.argv else None
    preset = get_preset("SDSC")
    jobs = generate_trace("SDSC", n_jobs=800, seed=21)

    zoo = [
        ("FCFS", make_scheduler("fcfs")),
        ("Conservative BF", make_scheduler("conservative")),
        ("EASY BF (NS)", make_scheduler("easy")),
        ("Gang (10 min)", make_scheduler("gang", quantum=600.0)),
        ("Immediate Service", make_scheduler("is")),
        ("SS (SF=2)", make_scheduler("ss", suspension_factor=2.0)),
        ("TSS (SF=2)", make_scheduler("tss", suspension_factor=2.0)),
    ]

    rows = []
    for label, sched in zoo:
        r = simulate(jobs, sched, preset.n_procs, overhead_model=overhead)
        rows.append(
            [
                label,
                overall_stats(r.jobs).slowdown.mean,
                vs_mean(r),
                r.total_suspensions,
                100 * r.utilization,
            ]
        )

    mode = "with disk-swap overhead" if overhead else "overhead-free"
    print(f"{preset.name}, {len(jobs)} jobs, {mode}\n")
    print(
        render_table(
            ["scheduler", "overall sd", "VS mean sd", "suspensions", "util %"],
            rows,
            precision=2,
        )
    )
    print(
        "\nReading: backfilling fixes FCFS's fragmentation; blind preemption\n"
        "(gang/IS) rescues short jobs at an enormous suspension bill; selective\n"
        "preemption gets the same rescue at two orders of magnitude fewer\n"
        "suspensions -- which is what makes it survive real overhead costs."
    )


if __name__ == "__main__":
    main()
