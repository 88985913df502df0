"""FCFS: strict arrival order, head-of-line blocking."""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_scheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def test_strict_arrival_order():
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=8),
        make_job(job_id=1, submit=1.0, run=10.0, procs=8),
        make_job(job_id=2, submit=2.0, run=10.0, procs=8),
    ]
    run_sim(jobs, make_scheduler("fcfs"), n_procs=8)
    assert jobs[0].first_start_time == 0.0
    assert jobs[1].first_start_time == 100.0
    assert jobs[2].first_start_time == 110.0


def test_head_of_line_blocking_leaves_processors_idle():
    """The fragmentation pathology of section II: a wide head blocks
    narrow jobs even though processors are free."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=10.0, procs=8),  # blocked head
        make_job(job_id=2, submit=2.0, run=10.0, procs=1),  # would fit now
    ]
    run_sim(jobs, make_scheduler("fcfs"), n_procs=8)
    assert jobs[1].first_start_time == 100.0
    assert jobs[2].first_start_time == pytest.approx(110.0)  # waits behind head


def test_parallel_starts_when_they_fit():
    jobs = [
        make_job(job_id=0, submit=0.0, run=50.0, procs=3),
        make_job(job_id=1, submit=0.0, run=50.0, procs=3),
        make_job(job_id=2, submit=0.0, run=50.0, procs=2),
    ]
    run_sim(jobs, make_scheduler("fcfs"), n_procs=8)
    assert all(j.first_start_time == 0.0 for j in jobs)


def test_all_jobs_finish():
    jobs = [make_job(job_id=i, submit=float(i), run=20.0, procs=(i % 4) + 1) for i in range(20)]
    result = run_sim(jobs, make_scheduler("fcfs"), n_procs=6)
    assert all(j.state is JobState.FINISHED for j in jobs)
    assert result.total_suspensions == 0


def test_never_reorders_even_same_size():
    jobs = [
        make_job(job_id=0, submit=0.0, run=30.0, procs=4),
        make_job(job_id=1, submit=1.0, run=5.0, procs=4),
        make_job(job_id=2, submit=2.0, run=5.0, procs=4),
    ]
    run_sim(jobs, make_scheduler("fcfs"), n_procs=4)
    starts = [j.first_start_time for j in jobs]
    assert starts == sorted(starts)
    assert starts == [0.0, 30.0, 35.0]
