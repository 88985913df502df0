"""Self-test of the benchmark: span bookkeeping, probe hygiene, smoke runs.

Run from the repository root::

    python3 perfbench/selftest.py            # bookkeeping + smoke runs
    python3 perfbench/selftest.py --no-smoke # bookkeeping only (seconds)

The smoke runs use small traces on every workload of ``workloads.py``
(``load-grid`` included), traced and untraced, and require every metric
of ``BENCHMARK.json`` to be emitted with its unit and the outcome check
to pass.  Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402

SMOKE_JOBS = 60


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_span_bookkeeping() -> None:
    """Nested spans under a fake clock that ticks 1.0 per reading."""
    ticks = itertools.count()
    real_clock = spans.time.perf_counter
    spans.time.perf_counter = lambda: float(next(ticks))
    try:
        rec = spans.SpanRecorder()

        def leaf() -> None:
            pass

        def boom() -> None:
            raise ValueError("boom")

        c = rec.wrap(leaf, "c")
        failing = rec.wrap(boom, "failing")

        def middle() -> None:
            c()

        b = rec.wrap(middle, "b")

        def top() -> None:
            b()
            b()
            try:
                failing()
            except ValueError:
                pass

        rec.wrap(top, "a")()
    finally:
        spans.time.perf_counter = real_clock

    names = [rec.names[i] for i in rec.name]
    expect(names == ["a", "b", "c", "b", "c", "failing"], f"span order {names}")
    expect(list(rec.parent) == [-1, 0, 1, 0, 3, 0], f"parent links {list(rec.parent)}")
    # a: [0, 11]; b: [1, 4], [5, 8]; c: [2, 3], [6, 7]; failing: [9, 10]
    expect(list(rec.start) == [0, 1, 2, 5, 6, 9], f"starts {list(rec.start)}")
    expect(list(rec.end) == [11, 4, 3, 8, 7, 10], f"ends {list(rec.end)}")
    expect(list(rec.self_times()) == [4, 2, 1, 2, 1, 1], f"self {list(rec.self_times())}")
    summary = rec.summary()
    expect(summary["a"] == {"calls": 1, "total_s": 11.0, "self_s": 4.0}, f"a {summary['a']}")
    expect(summary["b"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}, f"b {summary['b']}")
    expect(summary["c"]["self_s"] == 2.0 and summary["c"]["calls"] == 2, f"c {summary['c']}")
    expect(rec._open == [spans.NO_PARENT], "open-span stack not unwound after a raise")
    print("span bookkeeping: ok")


def check_probe_hygiene() -> None:
    """Installing then uninstalling probes leaves every target untouched."""
    import probes

    def snapshot() -> dict[tuple[int, str], object]:
        out = {}
        for owner, attr, _, _ in probes.TARGETS:
            for cls in probes._owners(owner, attr):
                out[id(cls), attr] = vars(cls)[attr]
        out[id(probes.EventLoop), "step"] = vars(probes.EventLoop)["step"]
        return out

    before = snapshot()
    p = probes.Probes(spans.SpanRecorder())
    p.install(probes.ALL)
    expect(snapshot() != before, "install wrapped nothing")
    p.uninstall()
    expect(snapshot() == before, "uninstall did not restore the originals")
    print("probe hygiene: ok")


def run_smoke() -> None:
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--jobs", str(SMOKE_JOBS),
            ]  # fmt: skip
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            tag = f"{name} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0, f"{tag}: outcome check failed")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            expect(got == want, f"{tag}: metrics {sorted(set(got) ^ set(want))} differ")
            expect(
                all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                f"{tag}: non-numeric value",
            )
            print(f"smoke {tag}: {len(got)} metrics ok")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--no-smoke", action="store_true")
    args = p.parse_args()
    check_span_bookkeeping()
    check_probe_hygiene()
    if not args.no_smoke:
        run_smoke()
    return 0


if __name__ == "__main__":
    sys.exit(main())
