"""Regeneration benchmark: time to regenerate the paper's figure grids.

Run from the repository root::

    python3 perfbench/run.py --workload ss-ticks --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload load-grid --seed 11 --trace 1

``--trace 0`` regenerates the workload's grid with tracing off for
round after round of fresh synthetic traces (see :mod:`workloads`)
while another round fits in ``--seconds``, and reports the end-to-end
metrics as means over those rounds, with every time rescaled to a fixed
host speed (see :func:`reference_kernel`).  ``--trace 1`` runs the workload's
first ``fixed_rounds`` rounds once untraced and once under the layer
wrappers of :mod:`probes`, and reports the per-layer metrics plus the
tracing overhead (see :mod:`layers`).  Every simulated cell is audited
and, for the first ``fixed_rounds`` rounds, its outcome fingerprint is
compared with the pinned value in ``expected.json`` (seeds 7 and 11).
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``PREDICTIONS.md`` for what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 7  # paper.DEFAULT_SEED
SETUP_PROBES = 9
READY = "perfbench-setup-ready"
#: seconds one ``reference_kernel`` call takes on the reference host;
#: every end-to-end time is rescaled to a host of exactly that speed
REF_NOMINAL_S = 0.0125
#: between rounds, once this many seconds have passed since it was last
#: done, the measured run collects garbage and times the kernel, so the
#: kernel's samples spread evenly over the run
REF_EVERY_S = 0.5


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--jobs", type=int, default=None, help="jobs per synthetic trace (smoke runs)"
    )
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: run only the set-up, print a ready line, exit",
    )
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# outcome check
# ----------------------------------------------------------------------
class OutcomeCheck:
    """Audits every simulated cell and pins its outcome fingerprint.

    A cell fails when its run raised, when ``sim.audit.audit_result``
    rejects it, when it did not finish every job, or when its
    ``outcome_fingerprint`` differs from the pinned value (or, for
    seeds without one, from the first repetition of the same run).
    """

    def __init__(self, workload: str, seed: int, n_jobs: int) -> None:
        self.n_jobs = n_jobs
        self.pinned: dict[str, str] = {}
        pins = json.loads(EXPECTED.read_text()).get(workload, {}) if EXPECTED.is_file() else {}
        if pins.get("n_jobs") == n_jobs:
            self.pinned = dict(pins["seeds"].get(str(seed), {}))
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, key: str, why: str) -> None:
        self.failures.append(f"{key}: {why}")

    def fingerprint(self, key: str, result: Any) -> str | None:
        from repro.experiments.parallel import outcome_fingerprint
        from repro.sim.audit import AuditError, audit_result

        try:
            audit_result(result)
        except AuditError as exc:
            self.fail(key, f"audit: {exc.violations[0]}")
            return None
        if len(result.jobs) != self.n_jobs:
            self.fail(key, f"{len(result.jobs)} of {self.n_jobs} jobs finished")
            return None
        return outcome_fingerprint(result.jobs)

    def check_cell(self, key: str, result: Any) -> None:
        self.attempted += 1
        fp = self.fingerprint(key, result)
        if fp is None:
            return
        want = self.pinned.get(key) or self.seen.get(key)
        if want is not None and fp != want:
            self.fail(key, f"outcome fingerprint {fp[:12]} != expected {want[:12]}")
        self.seen.setdefault(key, fp)

    def check_iteration(self, it: Any) -> None:
        for cell in it.simulated:
            self.check_cell(cell.key, it.results[cell.key])
        for served, original in it.must_match:
            self.attempted += 1
            fp = self.fingerprint(served, it.results[served])
            if fp is None:
                continue
            if fp != self.seen.get(original):
                self.fail(served, f"outcome differs from {original}")
            self.seen.setdefault(served, fp)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def workdir(tag: str) -> Path:
    return WORK / f"{tag}-{os.getpid()}"


def prepare(workload: Any, args: argparse.Namespace, rounds: int, tag: str) -> Any:
    return workload.prepare(args.seed, args.jobs or workload.n_jobs, rounds, workdir(tag))


def setup_probe(args: argparse.Namespace, workload: Any) -> int:
    """Child side of ``setup_s``: imports and set-up, then a ready line."""
    prep = prepare(workload, args, 1, "probe")
    shutil.rmtree(prep.workdir, ignore_errors=True)
    print(READY, flush=True)
    print(reference_s(), flush=True)  # the host's speed, as this process saw it
    return 0


def measure_setup(args: argparse.Namespace) -> list[tuple[float, float]]:
    """Per fresh process: (seconds from its start to the end of set-up,
    seconds of a reference-kernel call in that process right after)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ] + (["--jobs", str(args.jobs)] if args.jobs else [])  # fmt: skip
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            ref = proc.stdout.read()
            code = proc.wait()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append((t1 - t0, float(ref)))
    return samples


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def reference_kernel() -> float:
    """A fixed slice of interpreter work: heap, dict and float operations.

    A shared virtual machine can change speed by 1.5x within a minute.
    On a 2-vCPU one, the simulator and this kernel slowed down together:
    over 10-s windows their time ratio had a coefficient of variation of
    0.024 to 0.07, each time alone 0.13 to 0.19.  Timing the kernel next to every
    measured round lets the end-to-end times be rescaled to a fixed host
    speed.  It uses nothing from ``src/``, so no change to the program
    can move it.
    """
    heap: list[int] = []
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(20000):
        heapq.heappush(heap, (i * 7919) % 10007)
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        total += i * 0.5
    while heap:
        total += heapq.heappop(heap)
    return total


def reference_s(calls: int = 3) -> float:
    """Median seconds of a ``reference_kernel`` call."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    #: CPU seconds of reaped children (pool workers) alone
    child_cpu_s: float
    jobs: int
    cells: int
    iteration: Any


def timed_iteration(
    workload: Any, prep: Any, index: int, rounds: list[Any], collect: bool = True, **kwargs: Any
) -> Sample:
    """The grid over *rounds*, from the first run_grid to the last stats."""
    if collect:
        gc.collect()
    own0, kids0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    it = workload.iterate(prep, index, rounds, **kwargs)
    t1 = time.perf_counter()
    own, kids = _cpu_s(resource.RUSAGE_SELF) - own0, _cpu_s(resource.RUSAGE_CHILDREN) - kids0
    jobs = sum(len(it.results[c.key].jobs) for c in it.simulated)
    return Sample(t1 - t0, own + kids, kids, jobs, it.cells, it)


def run_measured(
    workload: Any,
    prep: Any,
    check: OutcomeCheck,
    seconds: float,
    inspect_first: Callable[[Any], None],
) -> tuple[list[Sample], list[float]]:
    """Round 0, then each next round while another fits in *seconds*.

    Returns the rounds' samples and the reference-kernel times taken
    between rounds.  Each round's traces are generated outside its
    timed span.  A full garbage collection costs about a fifth of a
    small round, so it runs every ``REF_EVERY_S``, not before every
    round.  A round that raises counts as one failed operation and ends
    the run.
    """
    samples: list[Sample] = []
    refs: list[float] = []
    start = last_ref = time.perf_counter()
    while True:
        index = len(samples)
        try:
            sample = timed_iteration(workload, prep, index, [prep.round(index)], collect=False)
        except Exception as exc:  # a crashed cell is a result to report
            check.attempted += 1
            check.fail(f"round {index}", f"raised {type(exc).__name__}: {exc}")
            return samples, refs
        check.check_iteration(sample.iteration)
        if not samples:
            inspect_first(sample.iteration)
        sample.iteration = None  # free the results before the next round
        samples.append(sample)
        if not refs or time.perf_counter() - last_ref >= REF_EVERY_S:
            gc.collect()
            refs.append(reference_s(calls=1))
            last_ref = time.perf_counter()
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples, refs


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def emit(check: OutcomeCheck, metrics: dict[str, tuple[float, str]], notes: dict[str, Any]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, value in notes.items():
        print(f"{name:36s} {value}")
    for failure in check.failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": check.failed == 0,
                "attempted": max(check.attempted, 1),
                "failed": check.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def end_to_end(args: argparse.Namespace, workload: Any) -> int:
    setup = measure_setup(args)
    import layers

    prep = prepare(workload, args, 1, "run")
    try:
        check = OutcomeCheck(workload.name, args.seed, prep.n_jobs)
        ns_err: list[float] = []
        samples, refs = run_measured(
            workload,
            prep,
            check,
            args.seconds,
            lambda it: ns_err.append(layers.ns_slowdown_err(workload, it)),
        )
    finally:
        shutil.rmtree(prep.workdir, ignore_errors=True)
    if not samples:
        # nothing measured; correct is false
        samples, refs = [Sample(0.0, 0.0, 0.0, 0, 0, None)], [REF_NOMINAL_S]
    n = len(samples)
    wall = sum(s.wall_s for s in samples)
    # host seconds -> seconds at the reference speed, over the whole run
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    setup_ref = [t * REF_NOMINAL_S / ref for t, ref in setup]
    metrics = {
        "wall_s": (scale * wall / n, "s"),
        "jobs_per_s": (sum(s.jobs for s in samples) / (scale * wall) if wall else 0.0, "1/s"),
        "cpu_s": (scale * sum(s.cpu_s for s in samples) / n, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_ref), "s"),
    }
    walls = sorted(s.wall_s for s in samples)
    notes = {
        "rounds": f"{n}, one trace per family each, {prep.n_jobs} jobs per trace",
        "cells": sum(s.cells for s in samples),
        "cells_failed": check.failed,
        "host.ref_ratio": f"{1 / scale:.4f} (reference-kernel time over nominal; "
        "times above are divided by it)",
        "host.wall_s.rounds": f"min {walls[0]:.3f} median {statistics.median(walls):.3f} "
        f"max {walls[-1]:.3f} total {wall:.3f}",
        "host.setup_s.samples": " ".join(f"{t:.3f}" for t, _ in setup),
        "metrics.ns_slowdown_err": f"{ns_err[0] if ns_err else 0.0:.6f} ratio (not a speed)",
    }
    emit(check, metrics, notes)
    return 0


def traced(args: argparse.Namespace, workload: Any) -> int:
    import layers

    prep = prepare(workload, args, workload.fixed_rounds, "trace")
    try:
        check = OutcomeCheck(workload.name, args.seed, prep.n_jobs)
        metrics, recorders = layers.traced_run(workload, prep, check, timed_iteration)
        for tag, recorder in recorders.items():
            recorder.write(WORK / f"spans-{workload.name}-{tag}")
    finally:
        shutil.rmtree(prep.workdir, ignore_errors=True)
    emit(check, metrics, {"cells_failed": check.failed})
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return setup_probe(args, workload)
    if args.trace:
        return traced(args, workload)
    return end_to_end(args, workload)


if __name__ == "__main__":
    sys.exit(main())
