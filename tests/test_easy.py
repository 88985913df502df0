"""EASY/aggressive backfilling (the paper's NS baseline)."""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_scheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def test_backfills_past_blocked_head():
    """A short narrow job jumps the wide blocked head (section II-A-2)."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=200.0, procs=8),  # blocked head
        make_job(job_id=2, submit=2.0, run=50.0, procs=2),  # terminates before head
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert jobs[2].first_start_time == pytest.approx(2.0)
    assert jobs[1].first_start_time == pytest.approx(100.0)


def test_backfill_must_not_delay_head():
    """A backfill candidate that would overrun the head's reservation
    and use its processors must wait."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=200.0, procs=8),  # head, reserved at 100
        make_job(job_id=2, submit=2.0, run=300.0, procs=3),  # would delay head
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert jobs[1].first_start_time == pytest.approx(100.0)  # not delayed
    assert jobs[2].first_start_time >= 300.0  # behind the head


def test_backfill_on_spare_processors_beyond_head_need():
    """Paper's second condition: a job on processors the head will not
    need may run past the head's start time."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=4),
        make_job(job_id=1, submit=1.0, run=100.0, procs=6),  # head: starts at 100
        make_job(job_id=2, submit=2.0, run=500.0, procs=2),  # spare: 8-6=2 free at 100
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert jobs[2].first_start_time == pytest.approx(2.0)
    assert jobs[1].first_start_time == pytest.approx(100.0)


def test_fig2_scenario():
    """The paper's Fig 2: job 3 backfills ahead of 1 and 2."""
    # running jobs occupy the machine such that queued job 1 (wide) waits;
    # queued job 3 (small, short) fits the hole before job 1's reservation.
    jobs = [
        make_job(job_id=10, submit=0.0, run=100.0, procs=6),  # running long
        make_job(job_id=11, submit=0.0, run=40.0, procs=4),  # running short
        make_job(job_id=1, submit=1.0, run=100.0, procs=8),  # queued wide (head)
        make_job(job_id=2, submit=2.0, run=100.0, procs=6),  # queued
        make_job(job_id=3, submit=3.0, run=30.0, procs=4),  # backfill candidate
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=10)
    # job 3 backfills into the hole left by the short runner (t=40),
    # finishing at 70 -- before the head's reservation at t=100
    assert jobs[4].first_start_time == pytest.approx(40.0)
    assert jobs[4].finish_time == pytest.approx(70.0)
    assert jobs[2].first_start_time == pytest.approx(100.0)  # head not delayed
    # job 2 (6 procs) queued behind the head could not backfill at 40
    assert jobs[3].first_start_time >= 100.0


def test_uses_estimates_not_actuals_for_planning():
    """With an over-estimated running job, the head's reservation is
    pessimistic; when the job ends early the head starts immediately."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=50.0, procs=8, estimate=500.0),
        make_job(job_id=1, submit=1.0, run=10.0, procs=8),
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert jobs[1].first_start_time == pytest.approx(50.0)  # early completion used


def test_short_job_backfills_thanks_to_estimate():
    """Backfill eligibility is judged on the estimate: an overestimated
    short job cannot sneak into a hole its estimate does not fit."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=200.0, procs=8),  # head at t=100
        # actual 50 fits the 99s hole, but estimate 400 does not:
        make_job(job_id=2, submit=2.0, run=50.0, procs=3, estimate=400.0),
    ]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert jobs[2].first_start_time >= 300.0


def test_fifo_when_everything_fits():
    jobs = [make_job(job_id=i, submit=float(i), run=10.0, procs=1) for i in range(6)]
    run_sim(jobs, make_scheduler("easy"), n_procs=8)
    assert all(j.first_start_time == pytest.approx(j.submit_time) for j in jobs)


def test_drains_mixed_workload(ctc_trace_small):
    from repro.workload.archive import CTC

    result = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        make_scheduler("easy"),
        n_procs=CTC.n_procs,
    )
    assert len(result.jobs) == len(ctc_trace_small)
    assert all(j.state is JobState.FINISHED for j in result.jobs)


def test_no_suspensions_ever(ctc_trace_small):
    from repro.workload.archive import CTC

    result = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        make_scheduler("easy"),
        n_procs=CTC.n_procs,
    )
    assert result.total_suspensions == 0
    assert all(j.suspension_count == 0 for j in result.jobs)


def test_beats_fcfs_on_average_wait(ctc_trace_small):
    """Backfilling exists to beat FCFS on responsiveness."""
    from repro.metrics.aggregate import overall_stats
    from repro.workload.archive import CTC

    easy = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        make_scheduler("easy"),
        n_procs=CTC.n_procs,
    )
    fcfs = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        make_scheduler("fcfs"),
        n_procs=CTC.n_procs,
    )
    assert (
        overall_stats(easy.jobs).slowdown.mean
        <= overall_stats(fcfs.jobs).slowdown.mean
    )
