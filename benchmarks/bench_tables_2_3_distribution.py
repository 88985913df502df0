"""Tables II / III / VII / VIII: job distribution by category.

Regenerates the synthetic workload's category shares and checks them
against the paper's published distribution tables (the generator is a
multinomial draw over exactly those tables, so this also validates the
calibration end of the substitution described in DESIGN.md section 3).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper
from repro.experiments.reference import (
    PAPER_TABLE_2_CTC_SHARES,
    PAPER_TABLE_3_SDSC_SHARES,
)

REFERENCE = {"CTC": PAPER_TABLE_2_CTC_SHARES, "SDSC": PAPER_TABLE_3_SDSC_SHARES}


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_tables_2_3_distribution(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "distribution", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    shares = out.data["shares16"]
    for cat, expected in REFERENCE[trace].items():
        got = shares.get(cat, 0.0)
        assert abs(got - expected) < 0.03, f"{trace} {cat}: {got:.3f} vs {expected}"
    # 4-way shares are the 16-way shares folded (Tables VII/VIII)
    four = out.data["shares4"]
    assert abs(sum(four.values()) - 1.0) < 1e-9


def test_table_7_ctc_four_way(benchmark):
    """Table VII's published CTC 4-way split: 44/30/13/13 percent."""
    out = run_once(
        benchmark, paper.run, "distribution", trace="CTC", n_jobs=N_JOBS, seed=SEED
    )
    four = out.data["shares4"]
    expected = {("S", "N"): 0.44, ("S", "W"): 0.30, ("L", "N"): 0.13, ("L", "W"): 0.13}
    for cat, val in expected.items():
        assert abs(four.get(cat, 0.0) - val) < 0.04, (cat, four.get(cat))
