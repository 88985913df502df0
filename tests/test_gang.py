"""Gang scheduling: matrix admission, rotation, coordinated switches."""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_scheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def test_quantum_validated():
    with pytest.raises(ValueError):
        make_scheduler("gang", quantum=0.0)


def test_single_job_runs_without_switching():
    job = make_job(submit=0.0, run=1000.0, procs=4)
    result = run_sim([job], make_scheduler("gang", quantum=100.0), n_procs=4)
    assert job.finish_time == pytest.approx(1000.0)
    assert result.total_suspensions == 0


def test_two_whole_machine_jobs_time_share():
    a = make_job(job_id=0, submit=0.0, run=300.0, procs=4)
    b = make_job(job_id=1, submit=0.0, run=300.0, procs=4)
    result = run_sim([a, b], make_scheduler("gang", quantum=100.0), n_procs=4)
    # b starts within roughly one quantum (it gets its own slot)
    assert b.first_start_time <= 200.0
    assert result.total_suspensions >= 2  # alternation happened
    # both complete; combined makespan is the serial sum (work conserved)
    assert result.makespan == pytest.approx(600.0, rel=0.01)


def test_same_slot_jobs_run_together():
    a = make_job(job_id=0, submit=0.0, run=200.0, procs=2)
    b = make_job(job_id=1, submit=0.0, run=200.0, procs=2)
    result = run_sim([a, b], make_scheduler("gang", quantum=100.0), n_procs=4)
    # both fit one slot: truly parallel, no suspensions
    assert a.first_start_time == 0.0
    assert b.first_start_time == 0.0
    assert result.total_suspensions == 0


def test_columns_are_stable_across_switches():
    """Local restart falls out of fixed columns: a job suspended by a
    gang switch resumes on the same processors."""
    a = make_job(job_id=0, submit=0.0, run=500.0, procs=3)
    b = make_job(job_id=1, submit=0.0, run=500.0, procs=3)
    run_sim([a, b], make_scheduler("gang", quantum=100.0), n_procs=4)
    assert a.state is JobState.FINISHED and b.state is JobState.FINISHED
    assert a.suspension_count >= 1 or b.suspension_count >= 1
    # mark_started() would have raised on any column change


def test_short_quantum_means_more_switches():
    def switches(quantum):
        jobs = [
            make_job(job_id=0, submit=0.0, run=400.0, procs=4),
            make_job(job_id=1, submit=0.0, run=400.0, procs=4),
        ]
        return run_sim(jobs, make_scheduler("gang", quantum=quantum), n_procs=4).total_suspensions

    assert switches(50.0) > switches(200.0)


def test_drains_real_mix(sdsc_trace_small):
    from repro.workload.archive import SDSC

    result = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        make_scheduler("gang", quantum=600.0),
        n_procs=SDSC.n_procs,
    )
    assert len(result.jobs) == len(sdsc_trace_small)


def test_gang_improves_short_jobs_over_fcfs():
    """Time slicing gives newly arrived jobs service within ~a quantum
    even when a long job hogs the machine."""
    hog = make_job(job_id=0, submit=0.0, run=10_000.0, procs=4)
    shorty = make_job(job_id=1, submit=10.0, run=50.0, procs=4)
    run_sim([hog, shorty], make_scheduler("gang", quantum=100.0), n_procs=4)
    assert shorty.first_start_time <= 300.0
    assert shorty.finish_time < 1000.0


def test_gang_pays_overhead_per_switch():
    from repro.core.overhead import FixedOverheadModel

    a = make_job(job_id=0, submit=0.0, run=300.0, procs=4)
    b = make_job(job_id=1, submit=0.0, run=300.0, procs=4)
    result = run_sim(
        [a, b],
        make_scheduler("gang", quantum=100.0),
        n_procs=4,
        overhead_model=FixedOverheadModel(10.0),
    )
    assert result.makespan > 600.0  # switches are no longer free
    assert a.total_overhead + b.total_overhead > 0
