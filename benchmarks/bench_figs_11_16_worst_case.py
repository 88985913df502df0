"""Figs 11/12 (CTC) and 15/16 (SDSC): worst-case metrics under SS.

Section IV-E's motivation: SS improves worst cases for most categories
but can worsen some long categories -- which is what TSS then repairs
(bench_figs_13_18).  Checks: SS's worst-case slowdown beats NS for the
majority of short categories; IS's worst case on long jobs is bad.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_figs_11_16_worst_case(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "figs-11-16", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    worst_sd = out.data["slowdown"]
    ns = worst_sd["No Suspension"]
    sf2 = worst_sd["SF = 2"]
    is_ = worst_sd["IS"]

    # SS beats NS's worst case on most short categories it helps
    improved = 0
    considered = 0
    for c in ns:
        if c[0] in ("VS", "S") and c in sf2 and ns[c] > 3.0:
            considered += 1
            if sf2[c] < ns[c]:
                improved += 1
    if considered:
        assert improved >= considered / 2, (improved, considered)

    # IS's worst case on some long category exceeds SS's
    long_cats = [c for c in is_ if c[0] in ("L", "VL") and c in sf2]
    assert any(is_[c] > sf2[c] for c in long_cats)

    # worst-case turnaround is reported for the same scheme set
    assert set(out.data["turnaround"]) == {"SF = 2", "No Suspension", "IS"}
