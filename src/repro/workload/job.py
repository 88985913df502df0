"""The job lifecycle object.

A :class:`Job` is a *rigid* parallel job: it needs exactly ``procs``
processors for ``run_time`` seconds of useful work.  The scheduler sees
only the user's ``estimate``; the simulator knows the truth.

Clock separation
----------------

The paper's suspension priority (the xfactor, eq. 2) is

    xfactor = (wait time + estimated run time) / estimated run time

where *wait time* accrues **only while the job is not running** -- "the
suspension priority of a task remains constant when the task executes and
increases when the task waits" (section IV-A).  :class:`Job` therefore
maintains two clocks:

* :meth:`Job.waited` -- total queued + suspended time up to ``now``;
* :meth:`Job.accrued` -- total useful run time up to ``now``.

Both are integrals over state intervals, updated lazily from the
timestamps of the last state change, so they are exact regardless of how
often the simulator samples them.

Processor sets
--------------

A job's processors are integer bitmasks (bit ``p`` set = processor
``p``; see :mod:`repro.cluster.bitset`), the same representation the
cluster and the schedulers use, so a dispatch or a suspension moves one
int.  :attr:`Job.allocated_mask` holds the processors of the current
run period and :attr:`Job.suspended_mask` the ones a local resume must
reacquire; :attr:`Job.allocated_procs` and :attr:`Job.suspended_procs`
are read-only id-set views for tests and interactive use.

Overhead accounting
-------------------

Suspension/restart overhead (section V-A of the paper) is charged to the
*suspended* job: each suspend/resume cycle adds ``pending_overhead``
seconds that the job must spend on the processors before its remaining
useful work completes.  Overhead time is *not* useful work: it extends
occupancy (and therefore turnaround) without advancing :meth:`accrued`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.cluster.bitset import iter_bits


class JobState(Enum):
    """Lifecycle states of a job."""

    #: Known to the workload, not yet submitted (before its arrival event).
    PENDING = "pending"
    #: Submitted and waiting in the queue (never run, or between runs
    #: after being suspended -- see :attr:`Job.suspended_mask`).
    QUEUED = "queued"
    #: Holding processors and making progress (or paying overhead).
    RUNNING = "running"
    #: Completed all useful work; terminal.
    FINISHED = "finished"


@dataclass(eq=False)  # identity semantics: a job is a stateful entity
class Job:
    """One rigid parallel job.

    Static fields come from the trace; dynamic fields are owned by the
    simulation driver.  User code should treat a finished job as
    immutable and read results through :mod:`repro.metrics`.

    Parameters
    ----------
    job_id:
        Unique nonnegative id (SWF job number or generator index).
    submit_time:
        Arrival time, seconds from trace start.
    run_time:
        Actual useful run time, seconds (> 0).
    estimate:
        User-estimated run time, seconds; schedulers plan with this.
        Clamped to at least ``run_time``'s floor of 1 s by the loaders.
    procs:
        Number of processors requested (rigid).
    memory_mb:
        Resident set per processor in MB; drives the suspension-overhead
        model.  ``0`` means "unknown" (overhead model substitutes its
        default distribution).
    """

    job_id: int
    submit_time: float
    run_time: float
    estimate: float
    procs: int
    memory_mb: float = 0.0
    user: int = -1

    # ------------------------------------------------------------------
    # dynamic state -- owned by the simulation driver
    # ------------------------------------------------------------------
    state: JobState = field(default=JobState.PENDING, repr=False)
    #: first time the job ever started running (None until then)
    first_start_time: float | None = field(default=None, repr=False)
    #: completion time (None until finished)
    finish_time: float | None = field(default=None, repr=False)
    #: mask of the processors held while RUNNING (0 otherwise)
    allocated_mask: int = field(default=0, repr=False)
    #: mask of the processors held at the last suspension; a resume must
    #: reacquire exactly these (local preemption).  0 if never suspended,
    #: currently running, or free to restart anywhere (migratable runs)
    suspended_mask: int = field(default=0, repr=False)
    #: number of times the job has been suspended
    suspension_count: int = field(default=0, repr=False)
    #: number of times a speculative run of the job was killed
    kill_count: int = field(default=0, repr=False)
    #: processor-time wasted by killed speculative runs (seconds of
    #: occupancy that produced no retained progress)
    wasted_time: float = field(default=0.0, repr=False)
    #: overhead seconds still to be paid on the processors (suspend cost
    #: of past suspensions plus resume cost), excluded from useful work.
    #: Overhead is paid *first* after a resume (the image must be read
    #: back from disk before progress), so a re-suspension during the
    #: overhead window does zero useful work.
    pending_overhead: float = field(default=0.0, repr=False)
    #: total overhead seconds actually paid over the job's lifetime
    total_overhead: float = field(default=0.0, repr=False)
    #: useful work still to do, seconds; driver-managed (initialised to
    #: ``run_time``, decremented by useful running time only)
    remaining_useful: float = field(default=-1.0, repr=False)
    #: guard for lazily cancelled finish events; bumped on every
    #: suspend/resume so stale events can be recognised
    epoch: int = field(default=0, repr=False)
    #: when the current run period began (driver-managed)
    last_dispatch_time: float = field(default=-1.0, repr=False)
    #: estimate-based completion time of the current run period, used by
    #: backfilling profiles (driver-managed; meaningless unless RUNNING)
    expected_end: float = field(default=float("inf"), repr=False)

    # lazy clock integrals
    _wait_accrued: float = field(default=0.0, repr=False)
    _run_accrued: float = field(default=0.0, repr=False)
    _clock_mark: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError(f"job_id must be nonnegative, got {self.job_id}")
        if self.run_time <= 0:
            raise ValueError(f"job {self.job_id}: run_time must be > 0")
        if self.procs <= 0:
            raise ValueError(f"job {self.job_id}: procs must be > 0")
        if self.estimate <= 0:
            raise ValueError(f"job {self.job_id}: estimate must be > 0")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: negative submit time")
        self._clock_mark = self.submit_time
        if self.remaining_useful < 0:
            self.remaining_useful = self.run_time

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def _advance_clocks(self, now: float) -> None:
        """Fold the interval since the last state change into the clocks."""
        dt = now - self._clock_mark
        if dt < -1e-9:
            raise ValueError(
                f"job {self.job_id}: clock moved backwards "
                f"({self._clock_mark} -> {now})"
            )
        dt = max(dt, 0.0)
        if self.state is JobState.QUEUED:
            self._wait_accrued += dt
        elif self.state is JobState.RUNNING:
            self._run_accrued += dt
        self._clock_mark = now

    def waited(self, now: float) -> float:
        """Total non-running time accumulated up to *now* (seconds)."""
        extra = 0.0
        if self.state is JobState.QUEUED:
            extra = max(now - self._clock_mark, 0.0)
        return self._wait_accrued + extra

    def accrued(self, now: float) -> float:
        """Total occupancy time accumulated up to *now* (seconds).

        Includes overhead seconds; useful progress is
        ``min(accrued - total_overhead_paid, run_time)`` but the driver
        tracks completion through scheduled finish events, so callers
        normally only need this for the instantaneous xfactor.
        """
        extra = 0.0
        if self.state is JobState.RUNNING:
            extra = max(now - self._clock_mark, 0.0)
        return self._run_accrued + extra

    @property
    def useful_done(self) -> float:
        """Useful work completed so far (seconds); excludes overhead."""
        return self.run_time - self.remaining_useful

    def remaining_estimate(self) -> float:
        """Scheduler-visible remaining occupancy, from the user estimate.

        ``max(estimate - useful_done, 0) + pending_overhead`` -- what a
        backfilling profile should budget for this job if (re)started now.
        A small floor keeps profiles sane when a job outlives its estimate
        (possible with real, under-estimated traces).
        """
        rem = max(self.estimate - self.useful_done, 1.0)
        return rem + self.pending_overhead

    # ------------------------------------------------------------------
    # state transitions (driver-only API)
    # ------------------------------------------------------------------
    def mark_submitted(self, now: float) -> None:
        """PENDING -> QUEUED at arrival."""
        self._require_state(JobState.PENDING, "submit")
        self._advance_clocks(now)
        self.state = JobState.QUEUED

    def mark_started(self, now: float, mask: int) -> None:
        """QUEUED -> RUNNING on the processors in *mask*."""
        self._require_state(JobState.QUEUED, "start")
        width = mask.bit_count()
        if width != self.procs:
            raise ValueError(
                f"job {self.job_id}: started on {width} processors, "
                f"requested {self.procs}"
            )
        if self.suspended_mask and mask != self.suspended_mask:
            raise ValueError(
                f"job {self.job_id}: resume on a different processor set "
                "(local preemption requires the original processors)"
            )
        self._advance_clocks(now)
        self.state = JobState.RUNNING
        self.allocated_mask = mask
        self.suspended_mask = 0
        if self.first_start_time is None:
            self.first_start_time = now

    def mark_suspended(self, now: float) -> None:
        """RUNNING -> QUEUED, remembering the processor set for resume."""
        self._require_state(JobState.RUNNING, "suspend")
        self._advance_clocks(now)
        self.state = JobState.QUEUED
        self.suspended_mask = self.allocated_mask
        self.allocated_mask = 0
        self.suspension_count += 1
        self.epoch += 1

    def mark_killed(self, now: float) -> None:
        """RUNNING -> QUEUED with all progress discarded.

        Models *speculative* execution (Perkovic & Keleher): a job run
        in a hole shorter than its estimate is killed when the hole
        closes and must later restart **from scratch** -- no checkpoint
        is taken, so unlike :meth:`mark_suspended` nothing pins it to
        its processors and ``remaining_useful`` resets to the full run
        time.  The wasted occupancy stays in the run clock (the machine
        really was busy), so the xfactor still treats it as service.
        """
        self._require_state(JobState.RUNNING, "kill")
        self._advance_clocks(now)
        if self.last_dispatch_time >= 0:
            self.wasted_time += max(now - self.last_dispatch_time, 0.0)
        self.state = JobState.QUEUED
        self.allocated_mask = 0
        self.suspended_mask = 0
        self.remaining_useful = self.run_time
        self.pending_overhead = 0.0
        self.kill_count += 1
        self.epoch += 1

    def mark_finished(self, now: float) -> None:
        """RUNNING -> FINISHED; terminal."""
        self._require_state(JobState.RUNNING, "finish")
        self._advance_clocks(now)
        self.state = JobState.FINISHED
        self.allocated_mask = 0
        self.finish_time = now
        self.epoch += 1

    def _require_state(self, expected: JobState, action: str) -> None:
        if self.state is not expected:
            raise ValueError(
                f"job {self.job_id}: cannot {action} from state {self.state.value}"
            )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def was_suspended(self) -> bool:
        """Whether the job has ever been suspended."""
        return self.suspension_count > 0

    @property
    def needs_specific_procs(self) -> bool:
        """True when the job may only (re)start on ``suspended_mask``."""
        return bool(self.suspended_mask)

    @property
    def allocated_procs(self) -> frozenset[int]:
        """Ids of the processors held while RUNNING (empty otherwise)."""
        return frozenset(iter_bits(self.allocated_mask))

    @property
    def suspended_procs(self) -> frozenset[int]:
        """Ids of the processors a local resume must reacquire."""
        return frozenset(iter_bits(self.suspended_mask))

    def turnaround(self) -> float:
        """Finish minus submit; only valid once finished."""
        if self.finish_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time

    def xfactor(self, now: float) -> float:
        """The paper's suspension priority (eq. 2).

        ``(wait time + estimated run time) / estimated run time`` -- grows
        while the job waits, constant while it runs, and >= 1 always.
        """
        return (self.waited(now) + self.estimate) / self.estimate

    def instantaneous_xfactor(self, now: float) -> float:
        """The IS scheme's priority (Chiang & Vernon).

        ``(wait + total accrued run) / total accrued run``.  Diverges for
        jobs that have not yet run; the IS scheduler treats never-run jobs
        as maximally entitled, so this returns ``inf`` when accrued is 0.
        """
        acc = self.accrued(now)
        if acc <= 0.0:
            return float("inf")
        return (self.waited(now) + acc) / acc

    def copy_static(self) -> "Job":
        """Fresh Job with the same static fields and pristine state.

        Simulations mutate jobs; replicating an experiment with a second
        scheduler requires a clean copy of the trace.
        """
        return Job(
            job_id=self.job_id,
            submit_time=self.submit_time,
            run_time=self.run_time,
            estimate=self.estimate,
            procs=self.procs,
            memory_mb=self.memory_mb,
            user=self.user,
        )


def fresh_copies(jobs: list[Job]) -> list[Job]:
    """Clean, unsimulated copies of *jobs* (see :meth:`Job.copy_static`)."""
    return [j.copy_static() for j in jobs]
