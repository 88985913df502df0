"""Tunable Selective Suspension: per-category preemption limits."""

from __future__ import annotations

import pytest

from repro.cluster.bitset import mask_from_ids
from repro.core.tss import (
    CategoryLimits,
    TunableSelectiveSuspensionScheduler,
    limits_from_result,
)
from repro.metrics.aggregate import per_category_worst
from repro.schedulers.easy import EasyBackfillScheduler
from repro.workload.categories import classify_sixteen_way
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def test_limit_protects_high_xfactor_victim():
    """A victim whose xfactor exceeds its category limit cannot be
    suspended, even if the SF threshold is met."""
    # victim waits 4000 s behind a protected blocker, so it starts with
    # a frozen xfactor ~ 11 -- far above its category limit of 2.
    victim = make_job(job_id=0, submit=0.0, run=400.0, procs=4)  # (VS, N)
    blocker = make_job(job_id=1, submit=0.0, run=4000.0, procs=4)  # (L, N)
    preemptor = make_job(job_id=2, submit=4100.0, run=10.0, procs=4)
    limits = CategoryLimits(
        table={
            classify_sixteen_way(victim): 2.0,
            classify_sixteen_way(blocker): 0.5,  # blocker always protected
        }
    )
    sched = TunableSelectiveSuspensionScheduler(
        suspension_factor=1.0, limits=limits, preemption_interval=10.0
    )
    run_sim([blocker, victim, preemptor], sched, n_procs=4)
    # victim started at 4000 with xfactor ~11 > limit 2 => protected
    assert blocker.suspension_count == 0
    assert victim.first_start_time == pytest.approx(4000.0)
    assert victim.suspension_count == 0
    assert preemptor.first_start_time >= victim.finish_time


def test_unprotected_victim_still_suspended():
    victim = make_job(job_id=0, submit=0.0, run=4000.0, procs=4)
    preemptor = make_job(job_id=1, submit=1.0, run=10.0, procs=4)
    limits = CategoryLimits(table={classify_sixteen_way(victim): 100.0})
    sched = TunableSelectiveSuspensionScheduler(
        suspension_factor=1.5, limits=limits, preemption_interval=10.0
    )
    run_sim([victim, preemptor], sched, n_procs=4)
    assert victim.suspension_count == 1


def test_missing_category_means_unprotected():
    limits = CategoryLimits(table={})
    job = make_job(run=100.0, procs=1)
    assert limits.limit_for(job) == float("inf")


def test_online_limits_learn_from_finished_jobs():
    limits = CategoryLimits(online=True, margin=1.5)
    j = make_job(job_id=0, submit=0.0, run=100.0, procs=1)
    j.mark_submitted(0.0)
    j.mark_started(100.0, mask_from_ids({0}))  # waited 100 => slowdown 2
    j.mark_finished(200.0)
    limits.observe(j)
    same_cat = make_job(job_id=1, run=100.0, procs=1)
    assert limits.limit_for(same_cat) == pytest.approx(3.0)  # 1.5 x 2.0


def test_online_fallback_to_overall_average():
    limits = CategoryLimits(online=True, margin=1.5)
    j = make_job(job_id=0, submit=0.0, run=100.0, procs=1)
    j.mark_submitted(0.0)
    j.mark_started(100.0, mask_from_ids({0}))
    j.mark_finished(200.0)
    limits.observe(j)
    other_cat = make_job(job_id=1, run=30_000.0, procs=64)
    assert limits.limit_for(other_cat) == pytest.approx(3.0)


def test_offline_observe_is_noop():
    limits = CategoryLimits(table={("VS", "Seq"): 5.0})
    j = make_job(job_id=0, submit=0.0, run=100.0, procs=1)
    j.mark_submitted(0.0)
    j.mark_started(0.0, mask_from_ids({0}))
    j.mark_finished(100.0)
    limits.observe(j)
    assert limits.table == {("VS", "Seq"): 5.0}


def test_limits_from_result_margin():
    jobs = []
    for i in range(4):
        j = make_job(job_id=i, submit=0.0, run=100.0, procs=1)
        j.mark_submitted(0.0)
        j.mark_started(100.0, mask_from_ids({i}))  # slowdown 2 for all
        j.mark_finished(200.0)
        jobs.append(j)
    from repro.sim.driver import SimulationResult

    baseline = SimulationResult(
        jobs=jobs,
        n_procs=8,
        scheduler="NS",
        busy_proc_seconds=400.0,
        makespan=200.0,
        total_suspensions=0,
    )
    limits = limits_from_result(baseline, margin=1.5)
    assert limits.table[("VS", "Seq")] == pytest.approx(3.0)
    assert not limits.online


def test_tss_drains_real_mix(sdsc_trace_small):
    from repro.workload.archive import SDSC

    jobs = [j.copy_static() for j in sdsc_trace_small]
    sched = TunableSelectiveSuspensionScheduler(suspension_factor=2.0)
    result = run_sim(jobs, sched, n_procs=SDSC.n_procs)
    assert all(j.state is JobState.FINISHED for j in result.jobs)


def test_tss_suspends_no_more_than_ss(sdsc_trace_small):
    """Limits can only remove preemption opportunities."""
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.workload.archive import SDSC

    plain = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    ns = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        EasyBackfillScheduler(),
        n_procs=SDSC.n_procs,
    )
    tuned = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        TunableSelectiveSuspensionScheduler(
            suspension_factor=2.0, limits=limits_from_result(ns)
        ),
        n_procs=SDSC.n_procs,
    )
    assert tuned.total_suspensions <= plain.total_suspensions


def test_tss_calibrated_improves_some_worst_case(sdsc_trace_small):
    """Section IV-E: TSS improves worst-case metrics for several
    categories without (much) hurting the rest."""
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.workload.archive import SDSC

    ns = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        EasyBackfillScheduler(),
        n_procs=SDSC.n_procs,
    )
    plain = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    tuned = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        TunableSelectiveSuspensionScheduler(
            suspension_factor=2.0, limits=limits_from_result(ns)
        ),
        n_procs=SDSC.n_procs,
    )
    plain_worst = per_category_worst(plain.jobs)
    tuned_worst = per_category_worst(tuned.jobs)
    improved = sum(
        1
        for cat in tuned_worst
        if cat in plain_worst and tuned_worst[cat][1] <= plain_worst[cat][1] * 1.05
    )
    # "improves ... without affecting the others": most categories no worse
    assert improved >= len(tuned_worst) * 0.6


def test_tss_name_reflects_mode():
    assert "online" in TunableSelectiveSuspensionScheduler().name
    tuned = TunableSelectiveSuspensionScheduler(limits=CategoryLimits(table={}))
    assert "calibrated" in tuned.name
