"""Relaxed backfilling: bounded head delay."""

from __future__ import annotations

import pytest

from repro.metrics.aggregate import overall_stats
from repro.schedulers.registry import make_scheduler
from repro.sim.audit import audit_result
from repro.workload.job import JobState, fresh_copies
from tests.conftest import make_job, run_sim


def test_relaxation_validated():
    with pytest.raises(ValueError):
        make_scheduler("relaxed", relaxation=-0.1)


def test_zero_relaxation_matches_easy(sdsc_trace_small):
    from repro.workload.archive import SDSC

    easy = run_sim(
        fresh_copies(sdsc_trace_small), make_scheduler("easy"), n_procs=SDSC.n_procs
    )
    relaxed = run_sim(
        fresh_copies(sdsc_trace_small),
        make_scheduler("relaxed", relaxation=0.0),
        n_procs=SDSC.n_procs,
    )
    a = sorted((j.job_id, j.first_start_time, j.finish_time) for j in easy.jobs)
    b = sorted((j.job_id, j.first_start_time, j.finish_time) for j in relaxed.jobs)
    assert a == b


def test_positive_relaxation_admits_blocked_backfill():
    """A candidate that EASY rejects (would delay the head) is admitted
    when the delay fits the allowance."""
    jobs_spec = [
        dict(job_id=0, submit=0.0, run=100.0, procs=5),
        dict(job_id=1, submit=1.0, run=200.0, procs=8),  # head, anchor 100
        # fits the 3 free procs now but would push the head to 152;
        # EASY says no, relaxation 0.5 allows up to 100 + 100:
        dict(job_id=2, submit=2.0, run=150.0, procs=3),
    ]

    easy_jobs = [make_job(**s) for s in jobs_spec]
    run_sim(easy_jobs, make_scheduler("easy"), n_procs=8)
    assert easy_jobs[2].first_start_time > 2.0

    relaxed_jobs = [make_job(**s) for s in jobs_spec]
    run_sim(relaxed_jobs, make_scheduler("relaxed", relaxation=0.5), n_procs=8)
    assert relaxed_jobs[2].first_start_time == pytest.approx(2.0)
    # head slipped, but within 0.5 x 200 = 100 of its anchor
    assert relaxed_jobs[1].first_start_time <= 100.0 + 100.0 + 1e-6


def test_delay_beyond_allowance_rejected():
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=200.0, procs=8),  # head
        make_job(job_id=2, submit=2.0, run=5000.0, procs=3),  # way too long
    ]
    run_sim(jobs, make_scheduler("relaxed", relaxation=0.5), n_procs=8)
    assert jobs[2].first_start_time > 2.0
    assert jobs[1].first_start_time <= 100.0 + 100.0 + 1e-6


def test_head_never_delayed_beyond_allowance(sdsc_trace_small):
    """Global property at trace scale: audit passes and everything drains."""
    from repro.workload.archive import SDSC

    result = run_sim(
        fresh_copies(sdsc_trace_small),
        make_scheduler("relaxed", relaxation=0.5),
        n_procs=SDSC.n_procs,
    )
    audit_result(result, expect_preemption=False)
    assert all(j.state is JobState.FINISHED for j in result.jobs)


def test_relaxation_does_not_explode_slowdowns(sdsc_trace_small):
    from repro.workload.archive import SDSC

    easy = run_sim(
        fresh_copies(sdsc_trace_small), make_scheduler("easy"), n_procs=SDSC.n_procs
    )
    relaxed = run_sim(
        fresh_copies(sdsc_trace_small),
        make_scheduler("relaxed", relaxation=0.5),
        n_procs=SDSC.n_procs,
    )
    sd_e = overall_stats(easy.jobs).slowdown.mean
    sd_r = overall_stats(relaxed.jobs).slowdown.mean
    assert sd_r <= sd_e * 1.5  # bounded slip, bounded damage
