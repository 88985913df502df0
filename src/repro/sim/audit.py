"""Independent schedule auditing.

The driver enforces its invariants while simulating; this module
re-checks a *finished* simulation from the outside, using only the
per-job records (states, timestamps, counters) and the run's summary.
It shares no bookkeeping with the driver, so a bug that corrupts the
driver's internal state and its metrics *consistently* still gets
caught here.

Checks (each corresponds to an invariant in DESIGN.md §5):

* every job finished, exactly once, with sane timestamps
  (submit <= first start <= finish; turnaround >= run time + overhead);
* conservation: the busy-processor integral equals the sum of job
  areas (procs x (run time + paid overhead));
* utilisation within [0, 1]; makespan equals the last completion;
* suspension accounting: zero suspensions implies zero overhead and
  turnaround == wait + run time exactly; the run's total suspensions
  equals the sum of per-job counts;
* non-preemptive runs: no job was ever suspended;
* clock closure: no pending overhead or residual useful work remains,
  and no finished job still holds or is pinned to processors.

:func:`audit_result` raises :class:`AuditError` with every violation
listed (not just the first), so a failing audit reads like a report.
"""

from __future__ import annotations

from repro.sim.driver import SimulationResult
from repro.workload.job import JobState

#: numeric slack for float comparisons (seconds / processor-seconds)
_EPS = 1e-6


class AuditError(AssertionError):
    """A finished simulation violated one or more schedule invariants."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        preview = "\n  - ".join(violations[:20])
        more = f"\n  (+{len(violations) - 20} more)" if len(violations) > 20 else ""
        super().__init__(f"{len(violations)} audit violation(s):\n  - {preview}{more}")


def audit_result(
    result: SimulationResult,
    expect_preemption: bool | None = None,
) -> None:
    """Audit a finished run; raise :class:`AuditError` on any violation.

    Parameters
    ----------
    result:
        The run to check.
    expect_preemption:
        ``False`` asserts no job was ever suspended (for non-preemptive
        policies); ``True`` asserts the counters are consistent with at
        least the recorded suspensions; ``None`` skips the policy check.
    """
    v: list[str] = []
    area = 0.0
    last_finish = 0.0
    suspension_total = 0

    seen_ids: set[int] = set()
    for job in result.jobs:
        jid = job.job_id
        if jid in seen_ids:
            v.append(f"job {jid}: appears twice in the result")
            continue
        seen_ids.add(jid)

        if job.state is not JobState.FINISHED:
            v.append(f"job {jid}: state {job.state.value}, expected finished")
            continue
        if job.finish_time is None or job.first_start_time is None:
            v.append(f"job {jid}: missing timestamps")
            continue

        if job.first_start_time < job.submit_time - _EPS:
            v.append(f"job {jid}: started before submission")
        if job.finish_time < job.first_start_time - _EPS:
            v.append(f"job {jid}: finished before starting")

        turnaround = job.finish_time - job.submit_time
        floor = job.run_time + job.total_overhead + job.wasted_time
        if turnaround < floor - _EPS:
            v.append(
                f"job {jid}: turnaround {turnaround:.3f} below "
                f"run+overhead {floor:.3f}"
            )

        if job.pending_overhead > _EPS:
            v.append(f"job {jid}: unpaid overhead {job.pending_overhead:.3f}")
        if job.remaining_useful > _EPS:
            v.append(f"job {jid}: unfinished work {job.remaining_useful:.3f}")
        if job.suspension_count == 0 and job.kill_count == 0:
            if job.total_overhead > _EPS:
                v.append(f"job {jid}: overhead without suspension")
            slack = turnaround - (job.finish_time - job.first_start_time) - (
                job.first_start_time - job.submit_time
            )
            if abs(slack) > _EPS:  # pragma: no cover - arithmetic identity
                v.append(f"job {jid}: time accounting broken")
            run_span = job.finish_time - job.first_start_time
            if abs(run_span - job.run_time) > _EPS:
                v.append(
                    f"job {jid}: ran {run_span:.3f}s uninterrupted but "
                    f"run_time is {job.run_time:.3f}s"
                )
        if job.suspension_count < 0:
            v.append(f"job {jid}: negative suspension count")
        if job.allocated_mask:
            v.append(f"job {jid}: still holds processors after finishing")
        if job.suspended_mask:
            v.append(f"job {jid}: still pinned to processors after finishing")

        area += job.procs * (job.run_time + job.total_overhead + job.wasted_time)
        last_finish = max(last_finish, job.finish_time)
        suspension_total += job.suspension_count

    # run-level checks
    if abs(area - result.busy_proc_seconds) > max(_EPS, 1e-9 * area):
        v.append(
            f"conservation: job areas {area:.3f} != busy integral "
            f"{result.busy_proc_seconds:.3f}"
        )
    if abs(last_finish - result.makespan) > _EPS:
        v.append(
            f"makespan {result.makespan:.3f} != last completion {last_finish:.3f}"
        )
    if not (0.0 - _EPS <= result.utilization <= 1.0 + _EPS):
        v.append(f"utilization {result.utilization:.4f} out of [0, 1]")
    if suspension_total != result.total_suspensions:
        v.append(
            f"suspension totals disagree: jobs say {suspension_total}, "
            f"run says {result.total_suspensions}"
        )
    if expect_preemption is False and suspension_total:
        v.append(
            f"non-preemptive policy performed {suspension_total} suspensions"
        )
    if expect_preemption is True and result.total_suspensions < 0:
        v.append("negative run-level suspension count")  # pragma: no cover

    if v:
        raise AuditError(v)
