#!/usr/bin/env python3
"""Tuning the suspension factor.

Sweeps SF over [1.1, 5] on a CTC-shaped workload and shows the paper's
section IV trade-off in one table:

* low SF  -> short jobs rescued fastest, but long jobs suspended often
  (high suspension counts, worse VL slowdowns);
* SF = 2  -> the sweet spot the paper uses for its headline results;
* high SF -> approaches the non-preemptive baseline.

The sweep is an independent grid, so it fans out over the PR-1
executor: ``--workers 0`` runs every SF at once, ``--cache-dir`` makes
re-sweeps free, and ``--trace-out`` records the SF = 2 cell's decision
trace (docs/TRACING.md) -- each preemption behind the table's
suspension counts, with the xfactor that justified it.

Also prints the two-task theory thresholds so the simulated suspension
counts can be read against the analytical alternation regimes.

Run:  python examples/tuning_suspension_factor.py [--workers 0]
          [--cache-dir cache] [--trace-out sf2.jsonl]
"""

import argparse

from repro import generate_trace, make_scheduler, overall_stats, per_category_stats
from repro.analysis.tables import render_table
from repro.core.theory import threshold_for_max_suspensions
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridCell, run_grid
from repro.workload.archive import get_preset

SFS = (1.1, 1.5, 2.0, 3.0, 5.0)
TRACED_SF = 2.0


def mean_sd(result, predicate):
    stats = per_category_stats(result.jobs)
    vals = [s.slowdown.mean for c, s in stats.items() if predicate(c)]
    return sum(vals) / len(vals) if vals else float("nan")


def main() -> None:
    parser = argparse.ArgumentParser(description="SF trade-off sweep")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (0 = one per CPU, default serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the content-addressed result cache")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help=f"JSONL decision trace of the SF={TRACED_SF:g} cell")
    args = parser.parse_args()

    preset = get_preset("CTC")
    jobs = generate_trace("CTC", n_jobs=1200, seed=9)

    cells = [
        GridCell(key="ns", jobs=jobs, n_procs=preset.n_procs,
                 scheduler_config=make_scheduler("easy").config()),
    ]
    for sf in SFS:
        cells.append(
            GridCell(
                key=f"sf={sf:g}",
                jobs=jobs,
                n_procs=preset.n_procs,
                scheduler_config=make_scheduler("ss", suspension_factor=sf).config(),
                trace_path=args.trace_out if sf == TRACED_SF else None,
            )
        )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    outcome = run_grid(cells, workers=args.workers, cache=cache)
    print(f"(simulated {outcome.executed} cell(s), {outcome.cache_hits} from cache)\n")

    ns = outcome.results["ns"]
    rows = [
        [
            "NS (no susp.)",
            overall_stats(ns.jobs).slowdown.mean,
            mean_sd(ns, lambda c: c[0] == "VS"),
            mean_sd(ns, lambda c: c[0] == "VL"),
            0,
        ]
    ]
    for sf in SFS:
        r = outcome.results[f"sf={sf:g}"]
        rows.append(
            [
                f"SS SF={sf:g}",
                overall_stats(r.jobs).slowdown.mean,
                mean_sd(r, lambda c: c[0] == "VS"),
                mean_sd(r, lambda c: c[0] == "VL"),
                r.total_suspensions,
            ]
        )

    print(
        render_table(
            ["scheme", "overall sd", "VS mean sd", "VL mean sd", "suspensions"],
            rows,
        )
    )

    print("\nTwo-task alternation thresholds (frozen-priority semantics):")
    for n in range(3):
        print(
            f"  at most {n} suspension(s) between two equal jobs needs "
            f"SF >= {threshold_for_max_suspensions(n):.4f}"
        )
    print(
        "\nReading: below SF=2 the short categories improve further, but the\n"
        "suspension count (and VL disturbance) climbs -- the paper picks 1.5-5."
    )

    if args.trace_out:
        from repro.obs import read_trace, summarize_trace

        summary = summarize_trace(read_trace(args.trace_out))
        denials = sum(summary.preempt_denials.values())
        print(
            f"\nSF={TRACED_SF:g} decision trace -> {args.trace_out}: "
            f"{summary.preempt_grants} preemptions granted, {denials} denied "
            f"({'consistent' if summary.matches_run_end else 'INCONSISTENT'} "
            "with driver totals)"
        )


if __name__ == "__main__":
    main()
