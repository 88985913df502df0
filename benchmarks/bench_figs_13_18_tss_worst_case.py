"""Figs 13/14 (CTC) and 17/18 (SDSC): TSS repairs the worst cases.

Section IV-E: adding per-category preemption limits (1.5x the
category's average slowdown) improves worst-case slowdown/turnaround
for many categories without affecting the others.  Checks:

* TSS's worst-case turnaround is <= plain SS's for a clear majority of
  categories (within a tolerance band for the rest);
* TSS does not destroy the average-slowdown win over NS.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_figs_13_18_tss_worst_case(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "figs-13-18", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    worst_tat = out.data["turnaround"]
    ss = worst_tat["SF = 2"]
    tss = worst_tat["SF = 2 Tuned"]

    not_worse = 0
    total = 0
    for c in ss:
        if c in tss:
            total += 1
            if tss[c] <= ss[c] * 1.25:
                not_worse += 1
    assert total >= 8
    assert not_worse >= total * 0.6, f"TSS degraded too many categories: {not_worse}/{total}"

    # TSS remains a preemptive scheme: it still beats NS's worst case
    # on the very short wide categories where SS shines
    worst_sd = out.data["slowdown"]
    ns = worst_sd["No Suspension"]
    for c in (("VS", "VW"), ("VS", "W")):
        if c in ns and c in worst_sd["SF = 2 Tuned"] and ns[c] > 5.0:
            assert worst_sd["SF = 2 Tuned"][c] < ns[c]
