#!/usr/bin/env python3
"""Capacity planning: when does the machine saturate, and what does
preemption buy under pressure?

The scenario the paper's section VI motivates: a centre expects demand
to grow 10-60% and wants to know (a) where the current machine
saturates and (b) whether deploying preemptive scheduling defers the
pain.  Sweeps the load factor, reports steady-state utilisation and the
short-job experience for NS vs TSS, and locates the knee.

Run:  python examples/capacity_planning.py
"""

from repro import generate_trace, make_scheduler, simulate
from repro.analysis.tables import series_table
from repro.core import limits_from_result
from repro.metrics.aggregate import per_category_stats
from repro.workload.archive import get_preset
from repro.workload.categories import classify_four_way
from repro.workload.load import scale_load

LOADS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def short_job_slowdown(result) -> float:
    stats = per_category_stats(result.jobs, classifier=classify_four_way)
    vals = [s.slowdown.mean for c, s in stats.items() if c[0] == "S"]
    return sum(vals) / len(vals) if vals else float("nan")


def main() -> None:
    preset = get_preset("SDSC")
    base = generate_trace("SDSC", n_jobs=1200, seed=4)

    ns_util, tss_util, ns_short, tss_short = [], [], [], []
    for load in LOADS:
        jobs = scale_load(base, load)
        ns = simulate(jobs, make_scheduler("easy"), preset.n_procs)
        tss = simulate(
            jobs,
            make_scheduler("tss", suspension_factor=2.0, limits=limits_from_result(ns)),
            preset.n_procs,
        )
        ns_util.append(100 * ns.steady_utilization)
        tss_util.append(100 * tss.steady_utilization)
        ns_short.append(short_job_slowdown(ns))
        tss_short.append(short_job_slowdown(tss))

    print(
        series_table(
            "load",
            list(LOADS),
            {
                "NS util %": ns_util,
                "TSS util %": tss_util,
                "NS short-job sd": ns_short,
                "TSS short-job sd": tss_short,
            },
            title=f"{preset.name}: growth scenario on {preset.n_procs} processors",
            precision=1,
        )
    )

    # locate the knee: utilisation stops tracking offered load
    knee = None
    for i in range(1, len(LOADS)):
        expected = ns_util[0] * LOADS[i] / LOADS[0]
        if ns_util[i] < 0.93 * expected:
            knee = LOADS[i]
            break
    print(
        f"\nSaturation knee (NS): ~load {knee or '> ' + str(LOADS[-1])}"
        f" (paper reports {preset.saturation_load} for {preset.name})."
    )
    print(
        "Under pressure the short-job experience diverges: preemption keeps\n"
        "short jobs near slowdown 1-2 while the NS queue drags them with it."
    )


if __name__ == "__main__":
    main()
