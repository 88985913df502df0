"""The independent schedule auditor."""

from __future__ import annotations

import pytest

from repro.core.overhead import DiskSwapOverheadModel
from repro.schedulers.registry import make_scheduler
from repro.sim.audit import AuditError, audit_result
from repro.workload.job import fresh_copies
from tests.conftest import run_sim


def test_audit_passes_every_scheduler(sdsc_trace_small):
    from repro.workload.archive import SDSC

    for factory, preemptive in [
        (lambda: make_scheduler("fcfs"), False),
        (lambda: make_scheduler("easy"), False),
        (lambda: make_scheduler("conservative"), False),
        (lambda: make_scheduler("ss", suspension_factor=2.0), None),
        (lambda: make_scheduler("is"), None),
        (lambda: make_scheduler("gang", quantum=600.0), None),
    ]:
        result = run_sim(
            fresh_copies(sdsc_trace_small), factory(), n_procs=SDSC.n_procs
        )
        audit_result(result, expect_preemption=preemptive)


def test_audit_passes_with_overhead(sdsc_trace_small):
    from repro.workload.archive import SDSC

    result = run_sim(
        fresh_copies(sdsc_trace_small),
        make_scheduler("ss", suspension_factor=2.0),
        n_procs=SDSC.n_procs,
        overhead_model=DiskSwapOverheadModel(),
    )
    audit_result(result)


def _clean_result():
    from tests.conftest import make_job

    job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    return run_sim([job], make_scheduler("fcfs"), n_procs=4)


def test_audit_detects_duplicate_jobs():
    result = _clean_result()
    result.jobs.append(result.jobs[0])
    with pytest.raises(AuditError, match="twice"):
        audit_result(result)


def test_audit_detects_area_mismatch():
    result = _clean_result()
    result.busy_proc_seconds += 50.0
    with pytest.raises(AuditError, match="conservation"):
        audit_result(result)


def test_audit_detects_makespan_mismatch():
    result = _clean_result()
    result.makespan += 10.0
    with pytest.raises(AuditError, match="makespan"):
        audit_result(result)


def test_audit_detects_suspension_miscount():
    result = _clean_result()
    result.total_suspensions = 5
    with pytest.raises(AuditError, match="disagree"):
        audit_result(result)


def test_audit_detects_time_travel():
    result = _clean_result()
    job = result.jobs[0]
    job.first_start_time = job.submit_time - 5.0
    with pytest.raises(AuditError, match="before submission"):
        audit_result(result)


def test_audit_detects_unpaid_overhead():
    result = _clean_result()
    result.jobs[0].pending_overhead = 7.0
    with pytest.raises(AuditError, match="unpaid overhead"):
        audit_result(result)


def test_audit_detects_processors_held_after_finish():
    result = _clean_result()
    result.jobs[0].allocated_mask = 0b11
    with pytest.raises(AuditError, match="still holds processors"):
        audit_result(result)


def test_audit_detects_pin_left_after_finish():
    result = _clean_result()
    result.jobs[0].suspended_mask = 0b11
    with pytest.raises(AuditError, match="still pinned"):
        audit_result(result)


def test_audit_detects_phantom_preemption():
    result = _clean_result()
    with pytest.raises(AuditError) as err:
        result.jobs[0].suspension_count = 1
        result.total_suspensions = 1
        audit_result(result, expect_preemption=False)
    assert "non-preemptive" in str(err.value)


def test_audit_reports_multiple_violations():
    result = _clean_result()
    result.busy_proc_seconds += 1.0
    result.makespan += 1.0
    with pytest.raises(AuditError) as err:
        audit_result(result)
    assert len(err.value.violations) >= 2
