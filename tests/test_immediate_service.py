"""Immediate Service comparator: timeslices and instantaneous xfactor."""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_scheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def is_sched(timeslice=600.0, sweep=60.0):
    return make_scheduler("is", timeslice=timeslice, sweep_interval=sweep)


def test_arrival_gets_immediate_service_by_preemption():
    """An arriving job preempts instantly, without waiting for a sweep."""
    runner = make_job(job_id=0, submit=0.0, run=10_000.0, procs=4)
    arrival = make_job(job_id=1, submit=700.0, run=60.0, procs=4)
    run_sim([runner, arrival], is_sched(), n_procs=4)
    # runner past its 600 s protection window at t=700 => suspended at once
    assert arrival.first_start_time == pytest.approx(700.0)
    assert runner.suspension_count >= 1


def test_protection_window_blocks_preemption():
    runner = make_job(job_id=0, submit=0.0, run=10_000.0, procs=4)
    arrival = make_job(job_id=1, submit=100.0, run=60.0, procs=4)
    run_sim([runner, arrival], is_sched(), n_procs=4)
    # runner still protected at t=100; the arrival waits for the window
    assert arrival.first_start_time >= 600.0


def test_victims_chosen_by_lowest_instantaneous_xfactor():
    """The job with the most service relative to its wait goes first."""
    served = make_job(job_id=0, submit=0.0, run=50_000.0, procs=2)
    starved = make_job(job_id=1, submit=20_000.0, run=50_000.0, procs=2)
    arrival = make_job(job_id=2, submit=41_000.0, run=60.0, procs=2)
    run_sim([served, starved, arrival], is_sched(), n_procs=4)
    # at t=41_000: served ixf = 41000/41000-ish ~ 1.0;
    # starved started at 20000, ixf = 21000/21000 ~ 1.0 too... both ran
    # since their submit; served accrued more => lower ixf; it is chosen.
    assert served.suspension_count >= 1
    assert arrival.first_start_time == pytest.approx(41_000.0)


def test_free_processors_used_before_preemption():
    runner = make_job(job_id=0, submit=0.0, run=5_000.0, procs=2)
    arrival = make_job(job_id=1, submit=700.0, run=60.0, procs=2)
    run_sim([runner, arrival], is_sched(), n_procs=4)
    assert runner.suspension_count == 0  # 2 procs were free
    assert arrival.first_start_time == pytest.approx(700.0)


def test_timeslice_parameter_validated():
    with pytest.raises(ValueError):
        make_scheduler("is", timeslice=0.0)


def test_suspended_job_resumes_and_finishes():
    runner = make_job(job_id=0, submit=0.0, run=2_000.0, procs=4)
    arrival = make_job(job_id=1, submit=700.0, run=60.0, procs=4)
    run_sim([runner, arrival], is_sched(), n_procs=4)
    assert runner.state is JobState.FINISHED
    assert runner.finish_time >= 2_000.0


def test_very_short_jobs_do_well_on_mix(sdsc_trace_small):
    """The paper: IS is excellent for the VS categories."""
    from repro.metrics.aggregate import per_category_stats
    from repro.workload.archive import SDSC

    ns = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        make_scheduler("easy"),
        n_procs=SDSC.n_procs,
    )
    is_run = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        is_sched(),
        n_procs=SDSC.n_procs,
    )
    ns_stats = per_category_stats(ns.jobs)
    is_stats = per_category_stats(is_run.jobs)
    for cat in (("VS", "N"), ("VS", "W")):
        if cat in ns_stats and cat in is_stats and ns_stats[cat].count >= 5:
            assert is_stats[cat].slowdown.mean <= ns_stats[cat].slowdown.mean


def test_long_jobs_suffer_on_mix(sdsc_trace_small):
    """The paper: IS severely degrades long jobs vs SS."""
    from repro.metrics.aggregate import per_category_stats
    from repro.workload.archive import SDSC

    ss = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    is_run = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        is_sched(),
        n_procs=SDSC.n_procs,
    )
    ss_long = per_category_stats(ss.jobs)
    is_long = per_category_stats(is_run.jobs)
    degraded = 0
    compared = 0
    for cat in (("L", "Seq"), ("L", "N"), ("L", "W"), ("VL", "N"), ("VL", "W")):
        if cat in ss_long and cat in is_long and ss_long[cat].count >= 3:
            compared += 1
            if is_long[cat].slowdown.mean > ss_long[cat].slowdown.mean:
                degraded += 1
    assert compared >= 2
    assert degraded >= compared / 2


def test_is_suspends_far_more_than_ss(sdsc_trace_small):
    from repro.workload.archive import SDSC

    ss = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    is_run = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        is_sched(),
        n_procs=SDSC.n_procs,
    )
    assert is_run.total_suspensions > ss.total_suspensions


def test_drains_everything(ctc_trace_small):
    from repro.workload.archive import CTC

    result = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        is_sched(),
        n_procs=CTC.n_procs,
    )
    assert len(result.jobs) == len(ctc_trace_small)
