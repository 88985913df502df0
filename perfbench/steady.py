"""Steadiness self-check for the benchmark.

Run from the repository root::

    python3 perfbench/steady.py --workloads ss-ticks --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --exact-seed 7

For each workload it runs ``run.py --trace 0`` once per seed and reports,
for every end-to-end metric of ``BENCHMARK.json``, the spread between
the first and third quartile of the values (``statistics.quantiles``,
n=4) as a share of their median, next to the metric's bound.  With
``--exact-seed`` it also runs ``run.py --trace 1`` twice on that seed and
requires every count in ``EXACT_COUNTS`` to repeat exactly.

Exits 1 when a run fails its outcome check, a spread other than
``setup_s``'s exceeds its bound, or an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: per-layer counts that must be identical across runs of one seed
EXACT_COUNTS = (
    "sim.events",
    "sim.timer_ticks",
    "sim.ticks_empty_queue",
    "sim.ticks_useful",
    "sim.running_jobs.calls",
    "cluster.owners_overlapping.calls",
    "policy.suspensions",
    "experiments.cache.hits",
    "experiments.cache.misses",
    "experiments.shm.segments",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outcome check failed\n{out.stdout}")
    return result["metrics"]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--exact-seed", type=int, default=None)
    args = p.parse_args()

    ok = True
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            rows.append(run(workload, seed, args.seconds, 0))
            print(
                f"{workload} seed {seed}: "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in rows[-1].items()),
                flush=True,
            )
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in rows]
            s = spread(values)
            within = s <= metric["bound"] or metric["name"] == "setup_s"
            ok &= within
            print(
                f"{workload} {metric['name']}: median {statistics.median(values):.4g} "
                f"spread {s:.3f} bound {metric['bound']} "
                f"{'ok' if s <= metric['bound'] / 3 else 'WITHIN BOUND' if within else 'TOO WIDE'}",
                flush=True,
            )
        if args.exact_seed is not None:
            first, second = (run(workload, args.exact_seed, args.seconds, 1) for _ in range(2))
            for name in EXACT_COUNTS:
                same = first[name]["value"] == second[name]["value"]
                ok &= same
                print(
                    f"{workload} {name}: {first[name]['value']} / {second[name]['value']} "
                    f"{'exact' if same else 'DIFFERS'}",
                    flush=True,
                )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
