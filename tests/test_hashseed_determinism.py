"""Hash-seed invariance: traces are byte-identical across PYTHONHASHSEED.

The whole point of the RPR001 rule (and the PR-2 ``_try_resume`` fix it
generalises) is that no scheduling decision may depend on hash order.
``PYTHONHASHSEED`` is fixed at interpreter start, so the only honest
probe is to run the same small grid -- SS, TSS, EASY and conservative
backfill, covering every scheduler family the paper compares -- in two
sub-interpreters with *different* hash seeds and require the JSONL
decision traces -- the complete record of every dispatch, suspension
and decision -- to match byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: runs a tiny SS + TSS grid (parallel workers included) and streams
#: each cell's decision trace to <out>/<scheme>.jsonl
GRID_SCRIPT = """
import sys
from pathlib import Path

from repro.experiments.parallel import GridCell, run_grid
from repro.schedulers.registry import make_scheduler
from repro.workload.archive import get_preset
from repro.workload.synthetic import generate_trace

out = Path(sys.argv[1])
n_procs = get_preset("CTC").n_procs
schemes = [
    ("ss", make_scheduler("ss")),
    ("tss", make_scheduler("tss", suspension_factor=2.0)),
    ("easy", make_scheduler("easy")),
    ("conservative", make_scheduler("conservative")),
    ("ss-easy", make_scheduler("ss-easy")),
    ("tss-conservative", make_scheduler("tss-conservative", suspension_factor=2.0)),
]
cells = [
    GridCell(
        key=label,
        # fresh pristine jobs per cell: Job objects are stateful
        jobs=generate_trace("CTC", n_jobs=30, seed=11),
        n_procs=n_procs,
        scheduler_config=sched.config(),
        trace_path=str(out / (label + ".jsonl")),
    )
    for label, sched in schemes
]
outcome = run_grid(cells, workers=2)
assert outcome.executed == len(cells)
"""


def _run_grid_under(hash_seed: int, tmp_path: Path) -> dict[str, bytes]:
    out = tmp_path / f"hashseed-{hash_seed}"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", GRID_SCRIPT, str(out)],
        check=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.jsonl"))}


def test_traces_byte_identical_across_hash_seeds(tmp_path: Path) -> None:
    first = _run_grid_under(0, tmp_path)
    second = _run_grid_under(42, tmp_path)

    assert set(first) == {
        "ss.jsonl",
        "tss.jsonl",
        "easy.jsonl",
        "conservative.jsonl",
        "ss-easy.jsonl",
        "tss-conservative.jsonl",
    }
    assert set(second) == set(first)
    for name in first:
        assert first[name], f"{name}: empty trace"
        assert first[name] == second[name], (
            f"{name}: decision trace differs between PYTHONHASHSEED=0 and "
            "PYTHONHASHSEED=42 -- a scheduling decision leaked hash order"
        )
