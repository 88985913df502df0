#!/usr/bin/env python3
"""Tracked perf-regression gate over ``benchmarks/bench_micro.py``.

The micro-bench suite measures the simulation kernel's hot paths and
keeps the pre-optimisation implementations alive as in-run references
(``*_legacy`` twins), so every speedup ratio is computed inside one
process on one machine.  This script turns those measurements into a
*tracked* artifact:

``--write``
    Run the suite and write a schema-versioned baseline
    (``BENCH_PR13.json`` at the repo root) recording per-bench
    mean/stddev/rounds, end-to-end jobs/second, in-run speedup ratios,
    a machine-independent *trace fingerprint* (SHA-256 over the
    schedule signature each bench workload produces), the
    streaming-vs-eager ingestion RSS comparison, and the
    shared-memory dispatch bench (pickled bytes-per-cell, inline vs
    ``jobs_ref``, on a 120k-job x 24-cell grid).

``--check``
    Run the suite fresh, write the report to ``--out`` (a CI artifact),
    then compare against the newest committed ``BENCH_*.json``:

    * the trace fingerprints must match **exactly** -- a perf PR that
      changes any schedule is rejected outright, machine-independent;
    * the asserted speedup floors (SS vs the retained legacy kernel,
      >= 1.5x on both the SDSC-400 and congested traces) must hold;
    * the dispatch payload reduction (inline bytes-per-cell over ref
      bytes-per-cell) must stay >= 10x -- byte counts, so the floor is
      machine-independent;
    * no bench may regress by more than ``--threshold`` (default 25%)
      in *normalised* time -- each bench's per-round minimum is divided
      by the same run's event-queue minimum, so a slower CI machine
      does not fail the gate but a slower kernel does.  Minimums, not
      means: scheduler noise only ever adds time, so the min survives
      a busy single-vCPU runner that would wreck every mean.

Absolute wall-clock numbers are recorded for the human reading the
artifact; only normalised quantities, byte ratios and fingerprints gate.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import os
import pickle
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "repro.bench_gate/v1"

#: bench used as the machine-speed proxy for normalisation; pure-python
#: heap churn with no kernel code on the path
REFERENCE_BENCH = "test_event_queue_push_pop"

#: in-run speedup floors the ISSUE's acceptance criteria assert
SPEEDUP_FLOORS = {
    "ss_sdsc400_vs_legacy": 1.5,
    "ss_congested_vs_legacy": 1.5,
}

#: fast-kernel bench -> its retained legacy twin
SPEEDUP_PAIRS = {
    "ss_sdsc400_vs_legacy": (
        "test_simulation_rate_ss",
        "test_simulation_rate_ss_legacy_sweep",
    ),
    "ss_congested_vs_legacy": (
        "test_simulation_rate_ss_congested",
        "test_simulation_rate_ss_congested_legacy",
    ),
    "profile_vs_legacy": (
        "test_profile_claim_and_anchor",
        "test_profile_claim_and_anchor_legacy",
    ),
    "cluster_vs_legacy": (
        "test_cluster_allocate_release",
        "test_cluster_allocate_release_legacy",
    ),
}

#: simulation-rate bench -> number of jobs it schedules per round
JOBS_PER_ROUND = {
    "test_simulation_rate_easy": 400,
    "test_simulation_rate_ss": 400,
    "test_simulation_rate_ss_congested": 700,
    "test_simulation_rate_ss_load2": 400,
    "test_simulation_rate_is": 400,
    "test_swf_stream_parse": 20_000,
    "test_swf_stream_to_jobs": 20_000,
}

#: jobs in the generated log the peak-RSS ingestion gate streams
#: (the ISSUE's acceptance floor is >= 100k)
INGESTION_LOG_JOBS = 120_000

#: workload size / grid width of the shared-memory dispatch bench
DISPATCH_JOBS = 120_000
DISPATCH_CELLS = 24

#: an inline cell's pickle must be at least this many times larger than
#: a ``jobs_ref`` cell's -- the zero-copy plane's acceptance floor.
#: Byte counts are deterministic, so this gate is machine-independent.
DISPATCH_REDUCTION_MIN = 10.0

#: the streaming reader's peak RSS may be at most this fraction of the
#: eager reader's on the same log.  The eager path materialises every
#: SWFRecord and Job; the streaming path holds one of each, so its RSS
#: is the interpreter baseline -- in practice the ratio sits near 0.25.
#: Comparing two child processes on the same machine in the same run
#: makes the bound machine-independent, unlike an absolute RSS cap.
INGESTION_RSS_RATIO_MAX = 0.6

#: child measured for streaming ingestion: parse + convert the whole
#: log with the iterator API, count jobs, report peak RSS (ru_maxrss is
#: KB on Linux) and wall time
_INGEST_STREAM_CHILD = """
import json, resource, sys, time
from repro.workload.swf import stream_jobs, stream_swf
t0 = time.perf_counter()
n = sum(1 for _ in stream_jobs(stream_swf(sys.argv[1]), max_procs=128))
dt = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"jobs": n, "maxrss_kb": rss, "seconds": dt}))
"""

#: child measured for eager ingestion: same log, whole-list API
_INGEST_EAGER_CHILD = """
import json, resource, sys, time
from repro.workload.swf import jobs_from_swf_records, read_swf
t0 = time.perf_counter()
records = read_swf(sys.argv[1])
jobs = jobs_from_swf_records(records, max_procs=128)
dt = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"jobs": len(jobs), "maxrss_kb": rss, "seconds": dt}))
"""


def _run_ingest_child(code: str, log_path: Path) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(log_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"ingestion child failed:\n{proc.stderr[-2000:]}")
    result: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def ingestion_report() -> dict[str, Any]:
    """Measure streaming-vs-eager peak RSS on a generated >=100k-job log.

    Each reader runs in its own child process so ``ru_maxrss`` isolates
    exactly one strategy; the gate asserts the streaming reader's peak
    stays under :data:`INGESTION_RSS_RATIO_MAX` of the eager reader's --
    the O(chunk)-vs-O(log) memory claim of docs/WORKLOADS.md, enforced.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.workload.swf import write_synthetic_swf

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "ingest.swf"
        write_synthetic_swf(log, INGESTION_LOG_JOBS)
        streaming = _run_ingest_child(_INGEST_STREAM_CHILD, log)
        eager = _run_ingest_child(_INGEST_EAGER_CHILD, log)
    ratio = streaming["maxrss_kb"] / max(eager["maxrss_kb"], 1)
    return {
        "log_jobs": INGESTION_LOG_JOBS,
        "streaming": streaming,
        "eager": eager,
        "rss_ratio": ratio,
        "rss_ratio_max": INGESTION_RSS_RATIO_MAX,
    }


def check_ingestion(ingestion: dict[str, Any]) -> list[str]:
    """Gate violations of one :func:`ingestion_report` result (empty = pass)."""
    problems: list[str] = []
    streamed = ingestion["streaming"]["jobs"]
    if streamed != INGESTION_LOG_JOBS:
        problems.append(
            f"streaming reader returned {streamed} jobs, "
            f"expected {INGESTION_LOG_JOBS}"
        )
    if streamed != ingestion["eager"]["jobs"]:
        problems.append(
            f"streaming ({streamed}) and eager ({ingestion['eager']['jobs']}) "
            "readers disagree on job count"
        )
    if ingestion["rss_ratio"] > INGESTION_RSS_RATIO_MAX:
        problems.append(
            f"streaming peak RSS is {ingestion['rss_ratio']:.2f}x the eager "
            f"reader's (limit {INGESTION_RSS_RATIO_MAX}); the parser is no "
            "longer O(chunk) memory"
        )
    return problems


def dispatch_report() -> dict[str, Any]:
    """Measure dispatch payload: inline cells vs shared-memory refs.

    Builds one deterministic 120k-job workload (plain arithmetic, no
    RNG) and a 24-cell scheduler sweep over it, then compares what the
    grid executor would actually ship to workers: ``pickle.dumps`` of
    every inline cell vs every ``jobs_ref`` cell (after publishing the
    workload once to a :class:`~repro.experiments.shm.WorkloadPlane`).
    Wall-clock for both serialisation passes plus the one-time
    worker-side decode is recorded for the human; only the byte ratio
    gates.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.experiments.parallel import GridCell
    from repro.experiments.shm import WorkloadPlane, resolve_jobs
    from repro.workload.job import Job

    jobs = [
        Job(
            job_id=i,
            submit_time=float(i),
            run_time=300.0 + (i % 977),
            estimate=600.0 + (i % 977),
            procs=1 + (i % 64),
            memory_mb=float(i % 512),
            user=i % 100,
        )
        for i in range(DISPATCH_JOBS)
    ]
    configs = [
        SelectiveSuspensionScheduler(1.0 + 0.25 * k).config()
        for k in range(DISPATCH_CELLS)
    ]

    t0 = time.perf_counter()
    inline_blobs = [
        pickle.dumps(
            GridCell(key=f"inline{k}", jobs=jobs, n_procs=128, scheduler_config=cfg)
        )
        for k, cfg in enumerate(configs)
    ]
    inline_seconds = time.perf_counter() - t0

    plane = WorkloadPlane()
    try:
        t0 = time.perf_counter()
        ref = plane.publish(jobs)
        if ref is None:
            raise SystemExit("dispatch bench: shared memory unavailable")
        publish_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_blobs = [
            pickle.dumps(
                GridCell(key=f"ref{k}", jobs_ref=ref, n_procs=128, scheduler_config=cfg)
            )
            for k, cfg in enumerate(configs)
        ]
        ref_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        decoded = resolve_jobs(ref)  # cold: what one worker pays, once
        decode_seconds = time.perf_counter() - t0
        if len(decoded) != DISPATCH_JOBS:
            raise SystemExit(
                f"dispatch bench: decode returned {len(decoded)} jobs, "
                f"expected {DISPATCH_JOBS}"
            )
    finally:
        plane.close()

    inline_bytes = sum(map(len, inline_blobs)) / DISPATCH_CELLS
    ref_bytes = sum(map(len, ref_blobs)) / DISPATCH_CELLS
    return {
        "jobs": DISPATCH_JOBS,
        "cells": DISPATCH_CELLS,
        "inline_bytes_per_cell": inline_bytes,
        "ref_bytes_per_cell": ref_bytes,
        "payload_reduction": inline_bytes / ref_bytes,
        "payload_reduction_min": DISPATCH_REDUCTION_MIN,
        "inline_pickle_seconds": inline_seconds,
        "publish_seconds": publish_seconds,
        "ref_pickle_seconds": ref_seconds,
        "decode_seconds": decode_seconds,
    }


def check_dispatch(dispatch: dict[str, Any]) -> list[str]:
    """Gate violations of one :func:`dispatch_report` result (empty = pass)."""
    problems: list[str] = []
    reduction = dispatch.get("payload_reduction", 0.0)
    if reduction < DISPATCH_REDUCTION_MIN:
        problems.append(
            f"dispatch payload reduction {reduction:.1f}x fell below the "
            f"{DISPATCH_REDUCTION_MIN:.0f}x floor "
            f"({dispatch.get('inline_bytes_per_cell', 0):,.0f} B inline vs "
            f"{dispatch.get('ref_bytes_per_cell', 0):,.0f} B per ref cell)"
        )
    return problems


def run_bench_suite() -> dict[str, Any]:
    """Run bench_micro under pytest-benchmark, return the parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.setdefault("PYTHONHASHSEED", "0")
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_micro.py",
            "-q",
            "-p",
            "no:randomly",
            f"--benchmark-json={json_path}",
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"bench suite failed (exit {proc.returncode})")
        with open(json_path, encoding="utf-8") as fh:
            data: dict[str, Any] = json.load(fh)
        return data


def trace_fingerprints() -> dict[str, str]:
    """Machine-independent SHA-256 of each bench workload's schedule.

    Re-runs the optimised kernel on the exact workloads bench_micro
    times and hashes the externally observable per-job outcome
    (job id, first start, finish, suspension count).  Any divergence
    between two machines or two commits means the *schedule* changed,
    which a perf PR must never do.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.immediate_service import ImmediateServiceScheduler
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.sim.driver import SchedulingSimulation
    from repro.cluster.machine import Cluster
    from repro.schedulers.base import Scheduler
    from repro.workload.load import scale_load
    from repro.workload.synthetic import generate_trace

    def run_signature(jobs: list[Any], scheduler: Scheduler | None = None) -> str:
        driver = SchedulingSimulation(
            cluster=Cluster(128),
            scheduler=scheduler or SelectiveSuspensionScheduler(suspension_factor=2.0),
        )
        result = driver.run(jobs)
        sig = [
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ]
        blob = json.dumps(sig, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    return {
        "ss_sdsc400": run_signature(generate_trace("SDSC", n_jobs=400, seed=3)),
        "ss_congested700": run_signature(
            scale_load(generate_trace("SDSC", n_jobs=700, seed=5), 1.8)
        ),
        "is_sdsc400": run_signature(
            generate_trace("SDSC", n_jobs=400, seed=3), ImmediateServiceScheduler()
        ),
        "ss_load2_sdsc400": run_signature(
            scale_load(generate_trace("SDSC", n_jobs=400, seed=3), 2.0)
        ),
    }


def build_report(raw: dict[str, Any]) -> dict[str, Any]:
    """Distil the pytest-benchmark JSON into the gate's schema."""
    benches: dict[str, dict[str, Any]] = {}
    for b in raw.get("benchmarks", []):
        stats = b["stats"]
        benches[b["name"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "median_s": stats["median"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
        }

    ref = benches.get(REFERENCE_BENCH)
    if ref is None:
        raise SystemExit(f"reference bench {REFERENCE_BENCH!r} missing from run")
    # Gate on per-round *minimums*, not means: scheduler noise (CI
    # runners are often single-vCPU and share the core with the
    # harness) only ever adds time, so the min is the one statistic a
    # busy neighbour cannot inflate -- it needs just one quiet round.
    # Means are still recorded in "benches" for the human reader.
    ref_min = ref["min_s"]

    normalised = {
        name: stats["min_s"] / ref_min
        for name, stats in sorted(benches.items())
        if name != REFERENCE_BENCH
    }

    speedups: dict[str, float] = {}
    for label, (fast, slow) in SPEEDUP_PAIRS.items():
        if fast in benches and slow in benches:
            speedups[label] = benches[slow]["min_s"] / benches[fast]["min_s"]

    rates = {
        name: JOBS_PER_ROUND[name] / benches[name]["min_s"]
        for name in JOBS_PER_ROUND
        if name in benches
    }

    return {
        "schema": SCHEMA,
        "generated_utc": _dt.datetime.now(_dt.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine_dependent": ["benches", "jobs_per_second", "ingestion"],
        "machine_independent": ["normalised", "speedups", "trace_fingerprints"],
        # dispatch wall-clocks are machine-dependent; its gating ratio
        # (payload_reduction) is a byte count and machine-independent
        "benches": benches,
        "jobs_per_second": rates,
        "normalised": normalised,
        "speedups": speedups,
        "trace_fingerprints": trace_fingerprints(),
        "ingestion": ingestion_report(),
        "dispatch": dispatch_report(),
    }


def newest_baseline(exclude: Path | None = None) -> Path | None:
    """Newest committed ``BENCH_*.json`` at the repo root, by PR number."""

    def pr_key(p: Path) -> tuple[int, str]:
        m = re.search(r"(\d+)", p.stem)
        return (int(m.group(1)) if m else -1, p.name)

    candidates = [
        p
        for p in REPO_ROOT.glob("BENCH_*.json")
        if exclude is None or p.resolve() != exclude.resolve()
    ]
    return max(candidates, key=pr_key) if candidates else None


def check_report(
    report: dict[str, Any], baseline: dict[str, Any], threshold: float
) -> list[str]:
    """All gate violations of *report* against *baseline* (empty = pass)."""
    problems: list[str] = []

    for name, want in baseline.get("trace_fingerprints", {}).items():
        got = report["trace_fingerprints"].get(name)
        if got != want:
            problems.append(
                f"trace fingerprint {name!r} changed: {want} -> {got} "
                "(the schedule itself changed; a perf PR must not do that)"
            )

    for label, floor in SPEEDUP_FLOORS.items():
        got_speedup = report["speedups"].get(label, 0.0)
        if got_speedup < floor:
            problems.append(
                f"speedup {label!r} = {got_speedup:.2f}x fell below the "
                f"asserted floor {floor:.1f}x"
            )

    base_norm = baseline.get("normalised", {})
    for name, base_val in sorted(base_norm.items()):
        cur_val = report["normalised"].get(name)
        if cur_val is None:
            problems.append(f"bench {name!r} disappeared from the suite")
            continue
        if cur_val > base_val * (1.0 + threshold):
            problems.append(
                f"bench {name!r} regressed: normalised time "
                f"{base_val:.2f} -> {cur_val:.2f} "
                f"(> {threshold:.0%} threshold)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write",
        action="store_true",
        help="run the suite and write a new committed baseline",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="run the suite and gate against the newest BENCH_*.json",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report path (default: BENCH_PR13.json for --write, "
        "bench_report.json for --check)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max allowed normalised-time regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    out = args.out or (
        REPO_ROOT / ("BENCH_PR13.json" if args.write else "bench_report.json")
    )

    raw = run_bench_suite()
    report = build_report(raw)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"bench_gate: wrote {out}")
    for label, val in sorted(report["speedups"].items()):
        print(f"  speedup {label}: {val:.2f}x")
    for name, val in sorted(report["jobs_per_second"].items()):
        print(f"  rate {name}: {val:,.0f} jobs/s")
    ing = report["ingestion"]
    print(
        f"  ingestion RSS ({ing['log_jobs']:,} jobs): streaming "
        f"{ing['streaming']['maxrss_kb'] / 1024:.0f} MB vs eager "
        f"{ing['eager']['maxrss_kb'] / 1024:.0f} MB "
        f"(ratio {ing['rss_ratio']:.2f}, limit {INGESTION_RSS_RATIO_MAX})"
    )
    dsp = report["dispatch"]
    print(
        f"  dispatch payload ({dsp['jobs']:,} jobs x {dsp['cells']} cells): "
        f"{dsp['inline_bytes_per_cell'] / 1e6:.1f} MB inline vs "
        f"{dsp['ref_bytes_per_cell']:.0f} B per ref cell "
        f"({dsp['payload_reduction']:,.0f}x, floor {DISPATCH_REDUCTION_MIN:.0f}x)"
    )

    if args.write:
        # floors still apply when minting a baseline, and so do the
        # streaming-memory and dispatch-payload bounds
        bad = [
            f"speedup {label!r} = {report['speedups'].get(label, 0.0):.2f}x "
            f"below floor {floor:.1f}x"
            for label, floor in SPEEDUP_FLOORS.items()
            if report["speedups"].get(label, 0.0) < floor
        ]
        bad.extend(check_ingestion(report["ingestion"]))
        bad.extend(check_dispatch(report["dispatch"]))
        if bad:
            print("bench_gate: FAIL", file=sys.stderr)
            for line in bad:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("bench_gate: baseline written")
        return 0

    baseline_path = newest_baseline(exclude=out)
    if baseline_path is None:
        print("bench_gate: no committed BENCH_*.json baseline; nothing to gate")
        return 0
    print(f"bench_gate: gating against {baseline_path.name}")
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        print(
            f"bench_gate: baseline schema {baseline.get('schema')!r} != {SCHEMA!r}; "
            "refusing to compare",
            file=sys.stderr,
        )
        return 1

    problems = check_report(report, baseline, args.threshold)
    problems.extend(check_ingestion(report["ingestion"]))
    problems.extend(check_dispatch(report["dispatch"]))
    if problems:
        print("bench_gate: FAIL", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
