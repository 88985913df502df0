"""Figs 31-34: suspension/restart overhead (section V-A).

Prices every suspend/resume cycle with the disk-swap model (memory
U(100 MB, 1 GB), 2 MB/s per processor) and compares TSS with overhead
("SF = 2 OH") against the overhead-free run, NS and IS.

Shape check = the section's one-line conclusion: "overhead does not
significantly affect the performance of the SS scheme" -- the
with-overhead run stays much closer to the overhead-free run than to
NS on the categories SS improves.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import N_JOBS, SEED, run_once
from repro.experiments import paper

#: simulates 6 runs per trace under over-estimation; capped like the
#: estimates bench to keep the harness quick
N_JOBS = min(N_JOBS, 1200)


@pytest.mark.parametrize("trace", ["CTC", "SDSC"])
def test_figs_31_34_overhead_impact(benchmark, trace):
    out = run_once(
        benchmark, paper.run, "figs-31-34", trace=trace, n_jobs=N_JOBS, seed=SEED
    )
    print()
    print(out.report)
    sd = out.data["slowdown"]
    free = sd["SF = 2"]
    priced = sd["SF = 2 OH"]
    ns = sd["No Suspension"]

    # overhead cannot help; but its damage is small relative to the
    # SS-vs-NS improvement on the short/wide categories
    for c in (("VS", "W"), ("VS", "VW"), ("S", "W"), ("S", "VW")):
        if c in free and c in priced and c in ns and ns[c] > 3.0:
            gain = ns[c] - free[c]
            loss = priced[c] - free[c]
            assert loss < gain, f"{c}: overhead ate the whole SS gain"

    # overall: priced SS still beats NS
    mean_priced = sum(priced.values()) / len(priced)
    mean_ns = sum(ns[c] for c in priced if c in ns) / len(priced)
    assert mean_priced < mean_ns
