"""The job-scheduling simulation driver.

:class:`SchedulingSimulation` binds together a cluster, a scheduler
policy and a workload, and owns every piece of *mechanism*:

* arrival / finish / timer event handling;
* job state transitions and the wait/run clock bookkeeping;
* processor allocation and release (through the cluster);
* suspension-overhead charging (pay-on-resume model, see below);
* utilisation accounting and the finished-job record.

Schedulers (policy) interact with the driver exclusively through
:meth:`start_job` and :meth:`suspend_job` -- see
:mod:`repro.schedulers.base` for the contract.

Overhead model
--------------

Suspension overhead (paper section V-A) is charged to the suspended job
as *pending overhead*: at suspension we add the cost of writing the
job's memory image to disk plus the cost of reading it back, and the job
pays that time at the start of its next run period, before any useful
progress.  Consequences, all intentional:

* turnaround and slowdown of suspended jobs inflate by the overhead;
* the preempting job starts immediately (we do not model the victim's
  write-back blocking its processors -- the paper's conclusion that
  overhead barely affects SS is insensitive to this, and we verify that
  with an ablation that doubles the charge);
* a job re-suspended while still paying overhead has made zero useful
  progress, so repeated thrashing is maximally punished, which is the
  conservative direction for evaluating a preemptive scheme.

Quiet ticks
-----------

After each timer tick the driver asks the scheduler for
:meth:`~repro.schedulers.base.Scheduler.quiet_until`: a lower bound on
the earliest time a tick could change state if no other event happens
first.  When that bound lies beyond the next grid tick, the timer chain
is *parked* (:meth:`~repro.sim.engine.EventLoop.park_timer`) instead of
posting the next tick: the event loop counts the ticks it skips as
dispatched and posts the last grid tick before the (margin-reduced)
bound as a real wake tick, which runs and asks again.  An infinite
bound (an empty queue, or no job able to act before an event) parks
without a wake.  After the first non-timer event that leaves the queue
non-empty or no work remaining, the driver posts the pending grid tick
again (:meth:`~repro.sim.engine.EventLoop.resume_timer`).  Schedules,
``events_dispatched`` and the final clock are those of the full chain.

The timer is never parked while a state probe is attached, because the
probe samples after every event, ticks included.  While a tracer is
attached only empty-queue ticks are parked: a traced tick on a busy
queue records its sweep's decisions.

Determinism
-----------

All event ordering is deterministic (see :mod:`repro.sim.events`); the
driver adds no randomness.  Two runs over the same workload and policy
produce identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.cluster.machine import Cluster
from repro.obs.events import Tracer
from repro.sim.engine import EventLoop, SimulationError
from repro.sim.events import Event, EventKind
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.counters import TraceCounters
    from repro.obs.recorder import TraceRecorder
    from repro.schedulers.base import Scheduler


class SuspensionOverheadModel(Protocol):
    """Anything that can price a suspend/resume cycle for a job."""

    def suspend_resume_cost(self, job: Job) -> float:
        """Total overhead seconds charged for one suspension of *job*."""
        ...


class StateProbeLike(Protocol):
    """Anything that can sample driver state (see metrics.timeseries)."""

    def maybe_sample(self, driver: "SchedulingSimulation") -> None: ...


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    All derived metrics (slowdowns, per-category tables, ...) are
    computed by :mod:`repro.metrics` from the finished jobs here.
    """

    #: all jobs, finished, in completion order
    jobs: list[Job]
    #: machine size
    n_procs: int
    #: scheduler policy name
    scheduler: str
    #: integral of busy processors over time (processor-seconds)
    busy_proc_seconds: float
    #: time of the last completion (trace starts at its first submit)
    makespan: float
    #: total suspension operations performed
    total_suspensions: int
    #: events dispatched (diagnostics)
    events_dispatched: int = 0
    #: speculative runs killed at their deadline (speculative backfilling)
    total_kills: int = 0
    #: time of the last job arrival
    last_arrival: float = 0.0
    #: busy processor-seconds accumulated up to the last arrival
    busy_in_arrival_window: float = 0.0
    #: whether the arrival window was actually recorded (the last arrival
    #: event was dispatched).  ``False`` for results built by hand or for
    #: runs aborted before the final arrival; distinguishes "no window"
    #: from "window closed at t = 0" (a burst trace), which
    #: ``last_arrival == 0`` alone cannot.
    arrival_window_closed: bool = False
    #: trace counters maintained by the :class:`~repro.obs.events.Tracer`
    #: during the run; ``None`` for untraced runs.  See
    #: :mod:`repro.obs.counters` and ``docs/TRACING.md``.
    counters: "TraceCounters | None" = None

    @property
    def utilization(self) -> float:
        """Overall system utilisation in [0, 1] (busy / capacity).

        Computed over the whole schedule, including the drain tail after
        the last arrival.  For load studies on finite traces prefer
        :attr:`steady_utilization` -- see its docstring.
        """
        if self.makespan <= 0:
            return 0.0
        return self.busy_proc_seconds / (self.n_procs * self.makespan)

    @property
    def steady_utilization(self) -> float:
        """Utilisation over the arrival window only.

        A finite trace ends with a drain: after the last submission the
        queue empties and the machine winds down, which depresses the
        whole-run ratio by an amount that scales with (drain length /
        trace length).  The paper's traces span months, so its "overall
        system utilization" is effectively the steady-state value; our
        shorter synthetic traces make the tail artefact significant --
        especially for preemptive schemes, whose suspended long jobs
        serialise during the drain.  This metric reproduces what the
        paper measured (see EXPERIMENTS.md, Figs 35/38).

        Falls back to whole-run :attr:`utilization` only when the window
        was never recorded (:attr:`arrival_window_closed` is false).  A
        window that *closed at t = 0* -- every arrival in one burst at
        trace start -- has zero length, so no steady-state utilisation
        exists and this returns 0.0 rather than silently substituting
        the drain-tail-depressed whole-run figure.
        """
        if not self.arrival_window_closed:
            return self.utilization
        if self.last_arrival <= 0:
            return 0.0
        return self.busy_in_arrival_window / (self.n_procs * self.last_arrival)


class SchedulingSimulation:
    """Drives one scheduler policy over one workload on one cluster.

    Parameters
    ----------
    cluster:
        The machine; must be fresh (all processors free).
    scheduler:
        The policy object; bound to this driver for the run.
    overhead_model:
        Optional suspension-overhead pricing; ``None`` means free
        suspension (the paper's sections III-IV assumption).
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving
        the run's event stream.  ``None`` (or a recorder whose
        ``enabled`` flag is false, e.g. the shared
        :data:`~repro.obs.recorder.NULL_RECORDER`) disables tracing
        entirely: :attr:`tracer` stays ``None`` and every emission site
        reduces to a single ``is not None`` check -- the
        zero-overhead-when-off contract pinned by
        ``benchmarks/bench_micro.py``.  Tracing never changes the
        schedule; traced and untraced runs are event-for-event
        identical.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "Scheduler",
        overhead_model: SuspensionOverheadModel | None = None,
        migratable: bool = False,
        probe: "StateProbeLike | None" = None,
        recorder: "TraceRecorder | None" = None,
    ) -> None:
        if cluster.busy_count:
            raise ValueError("cluster must start empty")
        self.cluster = cluster
        self.scheduler = scheduler
        self.overhead_model = overhead_model
        #: optional time-series probe (see repro.metrics.timeseries)
        self.probe = probe
        #: the recorder handed in at construction (``None`` if untraced)
        self.recorder = recorder
        #: emission facade; ``None`` unless a recorder with
        #: ``enabled=True`` was supplied (the single guard every
        #: emission site checks)
        self.tracer: Tracer | None = (
            Tracer(recorder) if recorder is not None and recorder.enabled else None
        )
        #: Parsons & Sevcik's *migratable* model: a suspended job may
        #: restart on any processors.  The paper's machines do not
        #: support migration (local restart is the defining constraint);
        #: this switch exists to quantify that constraint's cost in the
        #: ablation benches.
        self.migratable = migratable
        self.loop = EventLoop()
        self.loop.on(EventKind.JOB_ARRIVAL, self._handle_arrival)
        self.loop.on(EventKind.JOB_FINISH, self._handle_finish)
        self.loop.on(EventKind.TIMER, self._handle_timer)
        self.loop.on(EventKind.JOB_KILL, self._handle_kill)

        self._queued: dict[int, Job] = {}
        # keyed by job_id, insertion-ordered by dispatch time: iteration
        # order is part of the schedule, so hash order must never be
        self._running: dict[int, Job] = {}
        self._finished: list[Job] = []
        self._finish_events: dict[int, Event] = {}
        self._arrivals_pending = 0
        self.total_suspensions = 0
        self.total_kills = 0

        # utilisation integral
        self._busy_seconds = 0.0
        self._busy_mark = 0.0
        self._window_busy = 0.0
        self._window_end = 0.0
        self._window_closed = False

    # ------------------------------------------------------------------
    # read-only views for schedulers & tests
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.loop.now

    def queued_jobs(self) -> list[Job]:
        """Queued jobs in queue-entry order (arrivals and re-queues)."""
        # repro-lint: disable=RPR001 -- int-keyed dict filled in event order; insertion order IS the queue discipline
        return list(self._queued.values())

    def running_jobs(self) -> list[Job]:
        """Currently running jobs in dispatch order (oldest first)."""
        # repro-lint: disable=RPR001 -- int-keyed dict filled at dispatch; insertion order is deterministic by construction
        return list(self._running.values())

    def running_job(self, job_id: int) -> Job | None:
        """The running job with *job_id*, or ``None`` -- O(1) lookup so
        schedulers can resolve processor owners without scanning."""
        return self._running.get(job_id)

    @property
    def queue_length(self) -> int:
        return len(self._queued)

    @property
    def running_count(self) -> int:
        return len(self._running)

    # ------------------------------------------------------------------
    # scheduler services
    # ------------------------------------------------------------------
    def can_start(self, job: Job) -> bool:
        """Whether *job* could start right now on free processors."""
        if job.needs_specific_procs:
            return self.cluster.can_allocate_mask(job.suspended_mask)
        return self.cluster.can_allocate(job.procs)

    def start_job(self, job: Job, mask: int | None = None, via: str | None = None) -> int:
        """(Re)start a queued job immediately; returns its processor mask.

        Resumed jobs receive exactly their original processors (local
        preemption).  For fresh starts, *mask* lets the scheduler place
        the job explicitly (the SS pseudocode schedules a preemptor on
        its victims' processors so they unpin when it finishes);
        otherwise the cluster's allocation policy chooses.  Raises on any
        precondition violation -- a scheduler asking to start an
        unstartable job is a policy bug worth crashing on.

        *via* is a trace-only annotation of the dispatch path
        (``"backfill"``, ``"speculative"``, ``None`` for a plain start);
        it has no scheduling effect and is ignored when tracing is off.
        """
        if job.job_id not in self._queued:
            raise SimulationError(f"start_job: job {job.job_id} is not queued")
        resumed = job.needs_specific_procs or (self.migratable and job.was_suspended)
        self._account_busy()  # close the interval at the old busy level
        if job.needs_specific_procs:
            if mask is not None and mask != job.suspended_mask:
                raise SimulationError(
                    f"start_job: job {job.job_id} must resume on its "
                    "original processors"
                )
            mask = self.cluster.allocate_mask(job.suspended_mask, job.job_id)
        elif mask is not None:
            width = mask.bit_count()
            if width != job.procs:
                raise SimulationError(
                    f"start_job: job {job.job_id} given {width} "
                    f"processors, requests {job.procs}"
                )
            mask = self.cluster.allocate_mask(mask, job.job_id)
        else:
            mask = self.cluster.allocate(job.procs, job.job_id)
        job.mark_started(self.now, mask)
        job.last_dispatch_time = self.now
        job.expected_end = self.now + job.remaining_estimate()
        occupancy = max(job.remaining_useful + job.pending_overhead, 0.0)
        ev = self.loop.at(
            self.now + occupancy, EventKind.JOB_FINISH, job, epoch=job.epoch
        )
        self._finish_events[job.job_id] = ev
        del self._queued[job.job_id]
        self._running[job.job_id] = job
        if self.tracer is not None:
            self.tracer.dispatch(self.now, job, mask, resumed, via)
        return mask

    def suspend_job(self, job: Job, preemptor: int | None = None) -> None:
        """Suspend a running job; it re-enters the queue tail.

        Charges the overhead model's suspend+resume cost as pending
        overhead (paid at the next dispatch, before useful progress).

        *preemptor* is a trace-only annotation: the id of the idle job
        on whose behalf this victim is being suspended (``None`` when
        unknown).  It has no scheduling effect.
        """
        if job.job_id not in self._running:
            raise SimulationError(f"suspend_job: job {job.job_id} is not running")
        ran = self.now - job.last_dispatch_time
        if ran < -1e-9:
            raise SimulationError(f"job {job.job_id}: negative run period {ran}")
        paid = min(max(ran, 0.0), job.pending_overhead)
        useful = max(ran, 0.0) - paid
        job.total_overhead += paid
        job.pending_overhead -= paid
        job.remaining_useful = max(job.remaining_useful - useful, 0.0)
        overhead_added = 0.0
        if self.overhead_model is not None:
            overhead_added = self.overhead_model.suspend_resume_cost(job)
            job.pending_overhead += overhead_added

        ev = self._finish_events.pop(job.job_id, None)
        if ev is not None:
            self.loop.cancel(ev)
        self._account_busy()
        released = job.allocated_mask
        self.cluster.release(released, job.job_id)
        job.mark_suspended(self.now)
        if self.migratable:
            job.suspended_mask = 0  # may restart anywhere
        del self._running[job.job_id]
        self._queued[job.job_id] = job
        self.total_suspensions += 1
        if self.tracer is not None:
            self.tracer.suspend(self.now, job, released, preemptor, overhead_added)

    def start_speculative(
        self, job: Job, deadline: float, mask: int | None = None
    ) -> int:
        """Start *job* now, to be killed-and-requeued at *deadline*.

        Speculative backfilling (Perkovic & Keleher): the job gets a
        hole shorter than its estimate; if it completes within the hole
        (finish fires before the deadline) the speculation won, else
        the kill event discards its progress and requeues it.  Only
        fresh (never-suspended) jobs may speculate -- killing a job
        that holds a checkpoint would silently drop the checkpoint.
        """
        if job.needs_specific_procs:
            raise SimulationError(
                f"start_speculative: job {job.job_id} holds a suspension "
                "checkpoint and cannot be run speculatively"
            )
        if deadline <= self.now:
            raise SimulationError("start_speculative: deadline not in the future")
        got = self.start_job(job, mask=mask, via="speculative")
        self.loop.at(deadline, EventKind.JOB_KILL, job, epoch=job.epoch)
        return got

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _handle_kill(self, event: Event) -> None:
        job: Job = event.payload
        if event.epoch != job.epoch or job.state is not JobState.RUNNING:
            return  # the speculation won (finished) or was re-dispatched
        ev = self._finish_events.pop(job.job_id, None)
        if ev is not None:
            self.loop.cancel(ev)
        self._account_busy()
        released = job.allocated_mask
        wasted = max(self.now - job.last_dispatch_time, 0.0)
        self.cluster.release(released, job.job_id)
        job.mark_killed(self.now)
        del self._running[job.job_id]
        self._queued[job.job_id] = job
        self.total_kills += 1
        if self.tracer is not None:
            self.tracer.kill(self.now, job, released, wasted)
        self.scheduler.on_kill(job)
        self._after_event()

    def _handle_arrival(self, event: Event) -> None:
        job: Job = event.payload
        self._arrivals_pending -= 1
        if self._arrivals_pending == 0:
            # snapshot the busy integral at the end of the arrival
            # window, before this arrival's scheduling side effects
            self._account_busy()
            self._window_busy = self._busy_seconds
            self._window_end = self.now
            self._window_closed = True
        job.mark_submitted(self.now)
        self._queued[job.job_id] = job
        if self.tracer is not None:
            self.tracer.arrival(self.now, job)
        self.scheduler.on_arrival(job)
        self._after_event()

    def _handle_finish(self, event: Event) -> None:
        job: Job = event.payload
        if event.epoch != job.epoch or job.state is not JobState.RUNNING:
            return  # stale: the job was suspended after this was scheduled
        self._finish_events.pop(job.job_id, None)
        job.total_overhead += job.pending_overhead
        job.pending_overhead = 0.0
        job.remaining_useful = 0.0
        self._account_busy()
        self.cluster.release(job.allocated_mask, job.job_id)
        job.mark_finished(self.now)
        del self._running[job.job_id]
        self._finished.append(job)
        if self.tracer is not None:
            self.tracer.finish(self.now, job)
        self.scheduler.on_finish(job)
        self._after_event()

    def _handle_timer(self, event: Event) -> None:
        if self._work_remains():
            self.scheduler.on_timer()
            interval = self.scheduler.timer_interval
            if interval and self._work_remains():
                self._post_next_tick(interval)
        self._sample()

    def _post_next_tick(self, interval: float) -> None:
        """Post the chain's next tick, or park it up to the quiet bound."""
        now = self.now
        bound = now
        # a probe samples after every tick, and a traced tick on a busy
        # queue records its sweep's decisions: neither may be skipped
        if self.probe is None and (self.tracer is None or not self._queued):
            bound = self.scheduler.quiet_until(now)
        nxt = now + interval
        if bound > nxt:
            self.loop.park_timer(nxt, interval, bound)
        else:
            self.loop.at(nxt, EventKind.TIMER)

    def _work_remains(self) -> bool:
        return bool(self._queued or self._running or self._arrivals_pending > 0)

    def _account_busy(self) -> None:
        self._busy_seconds += self.cluster.busy_count * (self.now - self._busy_mark)
        self._busy_mark = self.now

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        if self.loop.timer_parked and (self._queued or not self._work_remains()):
            # the event invalidated the quiet bound (or ends the chain):
            # post the next grid tick
            self.loop.resume_timer()
        self._sample()

    def _sample(self) -> None:
        if self.probe is not None:
            self.probe.maybe_sample(self)

    def run(self, jobs: list[Job], require_drain: bool = True) -> SimulationResult:
        """Simulate *jobs* to completion and return the result record.

        Parameters
        ----------
        jobs:
            Fresh (unsimulated) jobs; scheduled as arrival events.
        require_drain:
            If true (default), raise :class:`SimulationError` when any
            job fails to finish -- starvation or a scheduler deadlock.
        """
        if not jobs:
            raise ValueError("empty workload")
        for job in jobs:
            if job.state is not JobState.PENDING:
                raise ValueError(
                    f"job {job.job_id} is {job.state.value}, need a fresh copy "
                    "(use repro.workload.job.fresh_copies)"
                )
        self.scheduler.bind(self)
        if self.tracer is not None:
            self.tracer.run_begin(
                self.now,
                self.scheduler.name,
                self.scheduler.config(),
                self.cluster.n_procs,
                len(jobs),
            )
        self.scheduler.on_begin()
        self._arrivals_pending = len(jobs)
        for job in jobs:
            self.loop.at(job.submit_time, EventKind.JOB_ARRIVAL, job)
        interval = self.scheduler.timer_interval
        if interval:
            self.loop.at(min(j.submit_time for j in jobs) + interval, EventKind.TIMER)

        self.loop.run()
        self.scheduler.on_end()
        self._account_busy()

        if require_drain and len(self._finished) != len(jobs):
            unfinished = sorted(
                {j.job_id for j in jobs} - {j.job_id for j in self._finished}
            )
            raise SimulationError(
                f"{len(unfinished)} job(s) never finished "
                f"(first few ids: {unfinished[:10]}) -- scheduler "
                f"{self.scheduler.name!r} starved or deadlocked them"
            )
        makespan = max((j.finish_time or 0.0) for j in self._finished) if self._finished else 0.0
        if self.tracer is not None:
            self.tracer.run_end(
                self.now,
                finished=len(self._finished),
                total_suspensions=self.total_suspensions,
                total_kills=self.total_kills,
                busy_proc_seconds=self._busy_seconds,
                makespan=makespan,
                events_dispatched=self.loop.dispatched,
            )
        return SimulationResult(
            jobs=list(self._finished),
            n_procs=self.cluster.n_procs,
            scheduler=self.scheduler.name,
            busy_proc_seconds=self._busy_seconds,
            makespan=makespan,
            total_suspensions=self.total_suspensions,
            events_dispatched=self.loop.dispatched,
            total_kills=self.total_kills,
            last_arrival=self._window_end,
            busy_in_arrival_window=self._window_busy,
            arrival_window_closed=self._window_closed,
            counters=self.tracer.counters if self.tracer is not None else None,
        )
