"""Tables IV / V: per-category average slowdown under NS backfilling.

The calibration anchor of the whole reproduction: the synthetic CTC and
SDSC workloads are tuned so the non-preemptive baseline reproduces the
paper's per-category slowdown structure (overall 3.58 / 14.13; VS-VW
34 / 113; monotone growth with width, decay with length).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper
from repro.experiments.reference import (
    PAPER_OVERALL_NS_SLOWDOWN,
    PAPER_TABLE_4_CTC_NS_SLOWDOWN,
    PAPER_TABLE_5_SDSC_NS_SLOWDOWN,
)

REFERENCE = {
    "CTC": PAPER_TABLE_4_CTC_NS_SLOWDOWN,
    "SDSC": PAPER_TABLE_5_SDSC_NS_SLOWDOWN,
}


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_tables_4_5_ns_slowdown(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "tables-4-5", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    ref = REFERENCE[trace]
    grid = out.data["grid"]

    # overall lands within a factor band of the paper's number
    paper_overall = PAPER_OVERALL_NS_SLOWDOWN[trace]
    assert out.data["overall"] < 3.0 * paper_overall
    assert out.data["overall"] > paper_overall / 3.0

    # shape: VS row dominates, slowdown grows with width within VS
    vs_row = [grid.get(("VS", w)) for w in ("Seq", "N", "W", "VW")]
    vs_row = [v for v in vs_row if v is not None]
    assert vs_row == sorted(vs_row), "VS slowdown must grow with width"

    # shape: VL jobs are barely slowed anywhere
    for w in ("Seq", "N", "W", "VW"):
        val = grid.get(("VL", w))
        if val is not None:
            assert val < 4.0, f"VL {w} too slow: {val}"

    # the worst category is the paper's worst category (VS VW)
    worst = max(grid, key=lambda c: grid[c])
    assert worst == ("VS", "VW")
    # and lands within a factor-3 band of the published value
    assert grid[worst] < 3.0 * ref[("VS", "VW")]
    assert grid[worst] > ref[("VS", "VW")] / 3.0
