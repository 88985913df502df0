"""Cross-module integration: every scheduler over real-shaped traces.

These are the "does the whole system behave like the paper's system"
tests; the per-figure *numbers* live in the benchmark harness, but the
qualitative shape claims (PAPER_CLAIMS in repro.experiments.reference)
are asserted here so a regression that flips a conclusion fails CI.
"""

from __future__ import annotations

import pytest

from repro.core.overhead import DiskSwapOverheadModel
from repro.core.tss import limits_from_result
from repro.metrics.aggregate import overall_stats, per_category_stats
from repro.schedulers.registry import make_scheduler
from repro.workload.archive import CTC, SDSC
from repro.workload.estimates import InaccurateEstimates
from repro.workload.job import JobState, fresh_copies
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace
from tests.conftest import run_sim

ALL_SCHEDULERS = [
    lambda: make_scheduler("fcfs"),
    lambda: make_scheduler("easy"),
    lambda: make_scheduler("conservative"),
    lambda: make_scheduler("ss", suspension_factor=2.0),
    lambda: make_scheduler("tss", suspension_factor=2.0),
    lambda: make_scheduler("is"),
]


@pytest.fixture(scope="module")
def sdsc_jobs():
    return generate_trace("SDSC", n_jobs=350, seed=23)


@pytest.fixture(scope="module")
def sdsc_runs(sdsc_jobs):
    """One run of every scheduler over the same trace."""
    out = {}
    for factory in ALL_SCHEDULERS:
        sched = factory()
        result = run_sim(fresh_copies(sdsc_jobs), sched, n_procs=SDSC.n_procs)
        out[result.scheduler] = result
    return out


def test_every_scheduler_drains(sdsc_runs, sdsc_jobs):
    for name, result in sdsc_runs.items():
        assert len(result.jobs) == len(sdsc_jobs), name
        assert all(j.state is JobState.FINISHED for j in result.jobs), name


def test_work_conservation_across_schedulers(sdsc_runs):
    """Same trace => identical total useful processor-seconds."""
    areas = {
        name: sum(j.procs * j.run_time for j in r.jobs)
        for name, r in sdsc_runs.items()
    }
    values = {round(a, 6) for a in areas.values()}
    assert len(values) == 1


def test_nonpreemptive_schedulers_never_suspend(sdsc_runs):
    for name in ("FCFS", "EASY", "CONS"):
        assert sdsc_runs[name].total_suspensions == 0


def test_preemptive_schedulers_do_suspend(sdsc_runs):
    assert sdsc_runs["SS(SF=2)"].total_suspensions > 0
    assert sdsc_runs["IS"].total_suspensions > 0


def test_backfilling_beats_fcfs(sdsc_runs):
    fcfs = overall_stats(sdsc_runs["FCFS"].jobs).slowdown.mean
    easy = overall_stats(sdsc_runs["EASY"].jobs).slowdown.mean
    assert easy < fcfs


def test_ss_beats_ns_overall(sdsc_runs):
    ns = overall_stats(sdsc_runs["EASY"].jobs).slowdown.mean
    ss = overall_stats(sdsc_runs["SS(SF=2)"].jobs).slowdown.mean
    assert ss < ns


def test_is_thrashes_hardest(sdsc_runs):
    """Claim VI-2 precursor: IS suspends at least an order of magnitude
    more than SS on the same trace."""
    assert (
        sdsc_runs["IS"].total_suspensions
        > 5 * sdsc_runs["SS(SF=2)"].total_suspensions
    )


def test_makespans_comparable(sdsc_runs):
    """No scheduler should blow the schedule up by large factors."""
    spans = {name: r.makespan for name, r in sdsc_runs.items()}
    best = min(spans.values())
    for name, span in spans.items():
        assert span <= 2.5 * best, (name, spans)


# ----------------------------------------------------------------------
# paper claims (reference.PAPER_CLAIMS) at integration scale
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ctc_runs():
    jobs = generate_trace("CTC", n_jobs=900, seed=5)
    ns = run_sim(fresh_copies(jobs), make_scheduler("easy"), n_procs=CTC.n_procs)
    ss = run_sim(
        fresh_copies(jobs),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=CTC.n_procs,
    )
    is_run = run_sim(
        fresh_copies(jobs), make_scheduler("is"), n_procs=CTC.n_procs
    )
    return {"NS": ns, "SS": ss, "IS": is_run}


def _mean_sd(result, cat):
    stats = per_category_stats(result.jobs)
    return stats[cat].slowdown.mean if cat in stats else None


def test_claim_ss_helps_short_categories(ctc_runs):
    """IV-D-1: significant benefit for VS/S wide categories."""
    helped = 0
    for cat in (("VS", "W"), ("VS", "VW"), ("S", "W"), ("S", "VW")):
        ns, ss = _mean_sd(ctc_runs["NS"], cat), _mean_sd(ctc_runs["SS"], cat)
        if ns is not None and ss is not None and ns > 1.5:
            assert ss < ns, cat
            helped += 1
    assert helped >= 2


def test_claim_ss_costs_very_long_little(ctc_runs):
    """IV-D-2: VL degradation exists but is slight (bounded factor)."""
    for cat in (("VL", "Seq"), ("VL", "N"), ("VL", "W"), ("VL", "VW")):
        ns, ss = _mean_sd(ctc_runs["NS"], cat), _mean_sd(ctc_runs["SS"], cat)
        if ns is not None and ss is not None:
            assert ss <= ns * 3.0 + 1.0, cat


def test_claim_is_wins_only_very_short(ctc_runs):
    """IV-D-4: IS beats SS on VS, loses on longer categories overall."""
    ss_long = [
        _mean_sd(ctc_runs["SS"], c)
        for c in (("L", "W"), ("L", "N"), ("VL", "N"), ("VL", "W"))
    ]
    is_long = [
        _mean_sd(ctc_runs["IS"], c)
        for c in (("L", "W"), ("L", "N"), ("VL", "N"), ("VL", "W"))
    ]
    pairs = [(s, i) for s, i in zip(ss_long, is_long, strict=True) if s is not None and i is not None]
    assert pairs
    assert sum(1 for s, i in pairs if i > s) >= len(pairs) / 2


def test_claim_overhead_is_minor():
    """V-A-1: adding the disk-swap overhead model changes SS's overall
    slowdown by far less than the SS-vs-NS gap."""
    jobs = generate_trace("SDSC", n_jobs=350, seed=31)
    free = run_sim(
        fresh_copies(jobs),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    priced = run_sim(
        fresh_copies(jobs),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
        overhead_model=DiskSwapOverheadModel(),
    )
    ns = run_sim(fresh_copies(jobs), make_scheduler("easy"), n_procs=SDSC.n_procs)
    sd_free = overall_stats(free.jobs).slowdown.mean
    sd_priced = overall_stats(priced.jobs).slowdown.mean
    sd_ns = overall_stats(ns.jobs).slowdown.mean
    assert sd_priced < sd_ns  # still clearly better than NS
    assert abs(sd_priced - sd_free) < (sd_ns - sd_free) / 2


def test_claim_ss_advantage_grows_with_load():
    """VI-1: the NS-to-SS gap at load 1.3 exceeds the gap at load 1.0."""
    jobs = generate_trace("SDSC", n_jobs=400, seed=13)
    gaps = {}
    for load in (1.0, 1.3):
        scaled = scale_load(jobs, load)
        ns = run_sim(
            fresh_copies(scaled), make_scheduler("easy"), n_procs=SDSC.n_procs
        )
        ss = run_sim(
            fresh_copies(scaled),
            make_scheduler("ss", suspension_factor=2.0),
            n_procs=SDSC.n_procs,
        )
        gaps[load] = (
            overall_stats(ns.jobs).slowdown.mean
            - overall_stats(ss.jobs).slowdown.mean
        )
    assert gaps[1.3] > gaps[1.0]


def test_claim_is_utilization_lower_under_load():
    """VI-2: IS steady-state utilisation trails SS under load (the
    paper's Fig 35/38 claim; measured over the arrival window because a
    finite trace's drain tail otherwise dominates -- see
    SimulationResult.steady_utilization)."""
    jobs = scale_load(generate_trace("CTC", n_jobs=700, seed=13), 1.6)
    ss = run_sim(
        fresh_copies(jobs),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=CTC.n_procs,
    )
    is_run = run_sim(
        fresh_copies(jobs), make_scheduler("is"), n_procs=CTC.n_procs
    )
    assert is_run.steady_utilization < ss.steady_utilization


def test_claim_badly_estimated_short_jobs_penalised():
    """V-1: with inaccurate estimates, badly estimated jobs in the VS
    categories do worse under SS than well estimated ones."""
    jobs = generate_trace(
        "SDSC", n_jobs=600, seed=17, estimate_model=InaccurateEstimates()
    )
    ss = run_sim(
        fresh_copies(jobs),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    well = per_category_stats(ss.jobs, quality="well")
    badly = per_category_stats(ss.jobs, quality="badly")
    worse = 0
    compared = 0
    for cat in (("VS", "Seq"), ("VS", "N"), ("VS", "W"), ("VS", "VW")):
        if cat in well and cat in badly and well[cat].count >= 3 and badly[cat].count >= 3:
            compared += 1
            if badly[cat].slowdown.mean >= well[cat].slowdown.mean:
                worse += 1
    assert compared >= 1
    assert worse >= compared / 2


def test_tss_calibration_pipeline():
    """NS -> limits -> TSS round trip at integration scale."""
    jobs = generate_trace("CTC", n_jobs=400, seed=29)
    ns = run_sim(fresh_copies(jobs), make_scheduler("easy"), n_procs=CTC.n_procs)
    limits = limits_from_result(ns)
    assert limits.table  # every populated category got a limit
    tss = run_sim(
        fresh_copies(jobs),
        make_scheduler("tss", suspension_factor=2.0, limits=limits),
        n_procs=CTC.n_procs,
    )
    assert len(tss.jobs) == len(jobs)
