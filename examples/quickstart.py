#!/usr/bin/env python3
"""Quickstart: simulate one scheduler over a synthetic workload.

Generates a small SDSC-shaped trace, runs the paper's Selective
Suspension scheme (SF = 2) against the non-preemptive EASY baseline,
and prints the per-category slowdown grids side by side -- the
60-second version of the paper's core result.

The two runs fan out over the parallel grid executor, so the PR-1
knobs apply: ``--workers 2`` simulates both schemes at once,
``--cache-dir`` makes reruns instant, and ``--trace-out`` streams the
SS run's decision trace to JSONL (see docs/TRACING.md), which is then
independently replayed and cross-checked.

Run:  python examples/quickstart.py [--workers 2] [--cache-dir cache]
                                    [--trace-out ss.jsonl]
"""

import argparse

from repro import generate_trace, make_scheduler, overall_stats, per_category_stats
from repro.analysis.tables import category_grid_table
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridCell, run_grid
from repro.workload.archive import get_preset


def main() -> None:
    parser = argparse.ArgumentParser(description="NS vs SS quickstart")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (0 = one per CPU, default serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the content-addressed result cache")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the SS run's JSONL decision trace here")
    args = parser.parse_args()

    preset = get_preset("SDSC")
    jobs = generate_trace("SDSC", n_jobs=1000, seed=42)
    print(f"workload: {len(jobs)} jobs on a {preset.n_procs}-processor machine\n")

    cells = [
        GridCell(key="ns", jobs=jobs, n_procs=preset.n_procs,
                 scheduler_config=make_scheduler("easy").config()),
        GridCell(key="ss", jobs=jobs, n_procs=preset.n_procs,
                 scheduler_config=make_scheduler("ss", suspension_factor=2.0).config(),
                 trace_path=args.trace_out),
    ]
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    outcome = run_grid(cells, workers=args.workers, cache=cache)
    print(f"(simulated {outcome.executed} cell(s), {outcome.cache_hits} from cache)\n")
    ns, ss = outcome.results["ns"], outcome.results["ss"]

    for label, result in (("No Suspension (EASY backfilling)", ns),
                          ("Selective Suspension, SF = 2", ss)):
        stats = per_category_stats(result.jobs)
        grid = {c: s.slowdown.mean for c, s in stats.items()}
        print(category_grid_table(grid, title=f"{label} -- mean bounded slowdown"))
        print(
            f"overall: {overall_stats(result.jobs).slowdown.mean:.2f}   "
            f"utilization: {result.utilization:.3f}   "
            f"suspensions: {result.total_suspensions}\n"
        )

    ns_sd = overall_stats(ns.jobs).slowdown.mean
    ss_sd = overall_stats(ss.jobs).slowdown.mean
    print(
        f"Selective suspension cut the overall mean slowdown from "
        f"{ns_sd:.2f} to {ss_sd:.2f} ({ns_sd / ss_sd:.1f}x) by suspending "
        f"{ss.total_suspensions} times."
    )

    if args.trace_out:
        from repro.obs import format_summary, read_trace, summarize_trace

        print(f"\nSS decision trace written to {args.trace_out}; replaying it:")
        print(format_summary(summarize_trace(read_trace(args.trace_out))))


if __name__ == "__main__":
    main()
