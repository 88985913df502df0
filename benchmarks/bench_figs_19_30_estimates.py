"""Figs 19-30: impact of inaccurate user estimates (section V).

Runs the tuned schemes under the two-population over-estimation model
and reports averages for all jobs and the well/badly estimated groups
separately (the paper's 12 figures collapse into these six matrices).

Shape checks (section V's conclusions):

* SS still improves most categories over NS despite bad estimates;
* the VS categories' residual pain under SS comes from the *badly*
  estimated jobs (they look long to the xfactor and cannot preempt);
* IS's 10-minute timeslice makes it insensitive to estimates for VS.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CACHE, N_JOBS, POLICY, SEED, WORKERS, run_once
from repro.experiments import paper

#: this bench simulates 6 schemes per trace under heavy over-estimation
#: (long queues), so it caps the workload to keep the harness quick
N_JOBS = min(N_JOBS, 1200)


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_figs_19_30_estimate_impact(benchmark, trace):
    out = run_once(
        benchmark,
        paper.run,
        "figs-19-30",
        trace=trace,
        n_jobs=N_JOBS,
        seed=SEED,
        workers=WORKERS,
        cache=CACHE,
        policy=POLICY,
    )
    print()
    print(out.report)

    all_sd = out.data["all"]["slowdown"]
    well_sd = out.data["well"]["slowdown"]
    badly_sd = out.data["badly"]["slowdown"]
    ns = all_sd["No Suspension"]
    tss2 = all_sd["SF = 2 Tuned"]

    # SS/TSS still wins broadly with inaccurate estimates
    improved = sum(
        1 for c in ns if c in tss2 and ns[c] > 2.0 and tss2[c] < ns[c]
    )
    contested = sum(1 for c in ns if c in tss2 and ns[c] > 2.0)
    if contested:
        assert improved >= contested / 2, (improved, contested)

    # the badly estimated short jobs fare worse than the well estimated
    # ones under the xfactor-driven schemes
    worse = 0
    compared = 0
    for c in (("VS", "Seq"), ("VS", "N"), ("VS", "W"), ("VS", "VW")):
        w = well_sd["SF = 2 Tuned"].get(c)
        b = badly_sd["SF = 2 Tuned"].get(c)
        if w is not None and b is not None:
            compared += 1
            if b >= w:
                worse += 1
    if compared:
        assert worse >= compared / 2, (worse, compared)

    # estimate split is exhaustive: every category population in "all"
    # appears in at least one of the two groups
    for c in tss2:
        assert c in well_sd["SF = 2 Tuned"] or c in badly_sd["SF = 2 Tuned"]
