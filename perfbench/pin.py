"""Record the expected outcome fingerprints that ``run.py`` checks against.

Run from the repository root::

    python3 perfbench/pin.py            # seeds 7 and 11, the first fixed_rounds rounds

A moved schedule is a bug, so re-pinning is a deliberate change of its
own: run this only when a schedule is meant to change, and say why in
the change that updates ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import EXPECTED, OutcomeCheck, workdir  # noqa: E402


def pin(seeds: list[int]) -> dict[str, object]:
    """workload -> {"n_jobs", "seeds": seed -> cell key -> fingerprint}."""
    table: dict[str, object] = {}
    for name, workload in workloads.WORKLOADS.items():
        pins: dict[str, dict[str, str]] = {}
        for seed in seeds:
            prep = workload.prepare(seed, workload.n_jobs, workload.fixed_rounds, workdir("pin"))
            check = OutcomeCheck(name, seed, workload.n_jobs)
            check.pinned = {}
            try:
                check.check_iteration(workload.iterate(prep, 0, prep.rounds))
            finally:
                shutil.rmtree(prep.workdir, ignore_errors=True)
            if check.failures:
                raise SystemExit(f"seed {seed} {name}: {check.failures}")
            pins[str(seed)] = {k: v for k, v in check.seen.items() if not k.startswith("replay:")}
            print(f"seed {seed} {name}: {len(pins[str(seed)])} cells", file=sys.stderr)
        table[name] = {"n_jobs": workload.n_jobs, "seeds": pins}
    return table


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = p.parse_args()
    EXPECTED.write_text(json.dumps(pin(args.seeds), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
