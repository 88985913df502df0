#!/usr/bin/env python3
"""Replay a real Standard Workload Format log through the streaming pipeline.

The reproduction ships calibrated synthetic workloads, but the whole
point of the SWF layer is that a real Parallel Workloads Archive log
(CTC-SP2, SDSC-SP2, KTH-SP2, ...) drops straight in -- without ever
being materialised.  This example:

1. takes an SWF path on the command line (or synthesises a demo file
   so the example is runnable offline);
2. streams it through :func:`repro.workload.pipeline.open_workload`
   (constant-memory parse + hygiene filters + lazy transformations);
3. replays it in time-windowed shards through the crash-safe grid
   executor (:func:`repro.experiments.parallel.replay_sharded`) under
   NS, SS and IS, and prints the comparison plus each replay's outcome
   fingerprint (the byte-identity witness from docs/WORKLOADS.md).

Run:  python examples/replay_swf_log.py [path/to/log.swf] [window_hours]
"""

import sys
import tempfile
from pathlib import Path

from repro import make_scheduler
from repro.experiments.parallel import replay_sharded
from repro.metrics.aggregate import overall_stats
from repro.workload.pipeline import WorkloadPipeline, open_workload
from repro.workload.swf import jobs_to_swf_records, read_swf_header, write_swf
from repro.workload.synthetic import generate_trace

MACHINE_PROCS = 128  # SDSC SP2 size; overridden by the log's own header


def demo_swf() -> Path:
    """Write a synthetic SWF file so the example runs without a log."""
    jobs = generate_trace("SDSC", n_jobs=600, seed=100)
    path = Path(tempfile.gettempdir()) / "repro_demo_trace.swf"
    write_swf(
        path,
        jobs_to_swf_records(jobs),
        header={"Computer": "synthetic SDSC-shaped demo", "MaxProcs": "128"},
    )
    print(f"(no SWF given -- wrote a synthetic demo log to {path})\n")
    return path


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else demo_swf()
    window_hours = float(sys.argv[2]) if len(sys.argv) > 2 else 24.0

    header = read_swf_header(path)
    if header:
        print("log header:")
        for key, value in list(header.items())[:6]:
            print(f"  {key}: {value}")
        print()

    n_procs = MACHINE_PROCS
    if header and header.get("MaxProcs", "").isdigit():
        n_procs = int(header["MaxProcs"])

    pipeline = WorkloadPipeline()  # identity; add stages to rescale/re-estimate
    schemes = {
        "No Suspension": make_scheduler("easy"),
        "SS (SF=2)": make_scheduler("ss", suspension_factor=2.0),
        "IS": make_scheduler("is"),
    }

    print(f"replay of {path.name}  ({window_hours:g} h shards, {n_procs} procs)")
    print(f"{'scheme':<16} {'jobs':>6} {'shards':>6} {'mean slowdown':>14}  fingerprint")
    for label, scheduler in schemes.items():
        stream = open_workload(path, pipeline, max_procs=n_procs)
        outcome = replay_sharded(
            stream,
            n_procs,
            scheduler.config(),
            window=window_hours * 3600.0,
            provenance={"pipeline": pipeline.fingerprint(), "source": path.name},
        )
        stats = overall_stats(outcome.jobs)
        print(
            f"{label:<16} {len(outcome.jobs):>6} {outcome.shards:>6} "
            f"{stats.slowdown.mean:>14.2f}  {outcome.fingerprint()[:16]}"
        )


if __name__ == "__main__":
    main()
