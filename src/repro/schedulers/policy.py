"""The composable policy kernel.

The paper's scheme family is a cross product: NS (EASY), conservative,
SS, TSS and IS differ only in which **queue ordering**, **reservation
discipline**, **backfill rule** and **preemption rule** they combine.
This module expresses each axis as a narrow policy class and composes
them under one dispatch loop:

* :class:`QueuePolicy` -- how waiting jobs are ordered for service
  (FIFO for the backfilling family, descending suspension priority for
  the SS family, descending instantaneous priority for IS).
* :class:`ReservationPolicy` -- which start-time guarantees exist and
  who owns the :class:`~repro.schedulers.profiles.AvailabilityProfile`
  lifecycle (none / single head reservation / per-job guarantees with
  compression).
* :class:`BackfillPolicy` -- how jobs behind the head are admitted
  (profile admission, relaxed what-if admission, speculative test runs,
  or greedy free-processor starts inside the sweep).
* :class:`PreemptionPolicy` -- whether and how running jobs are
  suspended (never / the SS sweep engine / IS timeslices).  The sweep
  engine is the former ``SelectiveSuspensionScheduler`` body, lifted
  here and *parameterised*: TSS's category limits and the hybrids'
  reservation guard are constructor arguments, not subclass overrides.

:class:`PolicyKernel` is the single :class:`Scheduler` that drives any
composition from the :mod:`repro.sim.driver` hooks; a composition is a
declarative :class:`SchedulerSpec`.  Every legacy scheme class
(``SelectiveSuspensionScheduler``, ``EasyBackfillScheduler``, ...) is
now a thin spec-building subclass, and the specs serialise through
:meth:`SchedulerSpec.config` into exactly the ``config()`` mappings the
registry, the result cache and the golden traces already pin --
the refactor is byte-identical on all eight committed golden traces
(``tests/test_kernel_equivalence.py``).

The decomposition also unlocks hybrids the sealed classes could not
express (see :mod:`repro.schedulers.hybrids`): ``ss-easy`` gives the
queue head an EASY-style reservation that the preemption sweep must
honor, and ``tss-conservative`` combines per-job guarantees with
category-limited preemption -- the paper's open question of selective
preemption *under start-time guarantees*.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from repro.cluster.bitset import iter_bits, mask_from_ids, take_lowest
from repro.core.priorities import (
    PreemptionCriteria,
    instantaneous_priority,
    suspension_priority,
)
from repro.obs.events import victim_verdict
from repro.schedulers.base import Scheduler
from repro.schedulers.profiles import AvailabilityProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.driver import SchedulingSimulation
    from repro.workload.job import Job

#: Tie-break order when several rejection causes block one decision.
_CAUSE_PREFERENCE = {
    "sf_threshold": 0,
    "category_limit": 1,
    "width_rule": 2,
    "protected": 3,
    "priority": 4,
    "reservation_guard": 5,
}


def primary_denial_cause(verdicts: list[dict[str, Any]] | None) -> str:
    """The headline ``cause`` of a denied preemption decision.

    The most frequent non-``candidate`` verdict wins (ties broken by a
    fixed preference order); an empty or all-candidate list means the
    eligible victims simply did not cover the request --
    ``"insufficient"``.
    """
    counts: dict[str, int] = {}
    for v in verdicts or ():
        cause = v["verdict"]
        if cause != "candidate":
            counts[cause] = counts.get(cause, 0) + 1
    if not counts:
        return "insufficient"
    return min(counts, key=lambda c: (-counts[c], _CAUSE_PREFERENCE.get(c, 99)))


class PreemptionLimits(Protocol):
    """What the sweep engine needs from a per-victim protection table.

    :class:`repro.core.tss.CategoryLimits` is the canonical
    implementation; the engine only depends on this structural shape so
    the policy layer stays import-free of the TSS module.
    """

    def limit_for(self, job: Job) -> float: ...

    def observe(self, job: Job) -> None: ...

    def to_config(self) -> dict[str, object]: ...


# ======================================================================
# policy protocol roots
# ======================================================================
class Policy(ABC):
    """Shared base for all four policy axes.

    A policy is bound to exactly one :class:`PolicyKernel` (policies are
    stateful and single-use, like the schedulers they compose into) and
    reaches the simulation through it.
    """

    def __init__(self) -> None:
        self._kernel: PolicyKernel | None = None

    def bind_kernel(self, kernel: "PolicyKernel") -> None:
        self._kernel = kernel

    @property
    def kernel(self) -> "PolicyKernel":
        assert self._kernel is not None, "policy used before kernel binding"
        return self._kernel

    @property
    def driver(self) -> "SchedulingSimulation":
        driver = self.kernel.driver
        assert driver is not None, "kernel used before driver binding"
        return driver

    def on_begin(self) -> None:
        """Reset run-scoped state; called once at simulation start."""

    def config_fragment(self) -> dict[str, object]:
        """This policy's knobs, merged into :meth:`SchedulerSpec.config`.

        Every behavioural constructor knob must surface here (or be
        fully determined by the composition's ``scheme_id``) so cache
        fingerprints compose correctly -- enforced by RPR004.
        """
        return {}


class QueuePolicy(Policy):
    """Ordering of waiting jobs for one service pass."""

    @abstractmethod
    def priority(self, job: Job, now: float) -> float:
        """The job's service priority at *now* (higher serves earlier)."""

    def order(
        self,
        queued: list[Job],
        now: float,
        priorities: dict[int, float] | None = None,
    ) -> list[Job]:
        """Waiting jobs in service order (priority desc, then FIFO).

        *priorities* lets sweep engines pass their once-per-sweep
        snapshot instead of recomputing the priority inside the sort.
        """
        if priorities is None:
            return sorted(
                queued,
                key=lambda j: (-self.priority(j, now), j.submit_time, j.job_id),
            )
        snapshot = priorities
        return sorted(
            queued,
            key=lambda j: (-snapshot[j.job_id], j.submit_time, j.job_id),
        )


class ReservationPolicy(Policy):
    """Start-time-guarantee discipline; owns the planning profiles."""

    #: True when the policy serves arrivals itself (per-job guarantees
    #: anchor each arrival individually instead of running a pass)
    handles_arrival = False
    #: True when the policy serves completions itself (compression)
    handles_finish = False
    #: True when a preemption sweep must honor this policy's guarantee
    #: (consulted by :class:`SweepPreemption`)
    guards_preemption = False

    def on_arrival(self, job: Job) -> None:
        """Serve one arrival (only called when :attr:`handles_arrival`)."""
        raise NotImplementedError

    def on_finish(self, job: Job) -> None:
        """Serve one completion (only called when :attr:`handles_finish`)."""
        raise NotImplementedError

    def plan_head(self, head: Job) -> "HeadPlan | None":
        """Plan the queue head's reservation for a backfill pass.

        ``None`` means no reservation exists and the pass ends after its
        FIFO phase (FCFS, and the per-job discipline which never runs a
        backfill pass at all).
        """
        return None

    def sweep_guard(self, head: Job) -> float:
        """The head's guaranteed start, for a preemption sweep to honor
        (only called when :attr:`guards_preemption`)."""
        raise NotImplementedError


@dataclass
class HeadPlan:
    """One backfill pass's planning state, produced by ``plan_head``."""

    #: availability profile over running jobs (and the head's claim,
    #: when the reservation discipline claims it)
    profile: AvailabilityProfile
    #: the reserved queue head
    head: Job
    #: earliest forecast start of the head
    anchor: float
    #: the head's remaining estimate used for the anchor
    duration: float


class BackfillPolicy(Policy):
    """Admission of jobs behind the reserved head."""

    #: True when a killed speculative run must trigger a new pass
    resched_on_kill = False

    @abstractmethod
    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        """Admit whatever fits behind the head without breaking *plan*."""


class PreemptionPolicy(Policy):
    """Whether and how running jobs are suspended."""

    #: the kernel's periodic-tick interval (``None`` = no timer)
    timer_interval: float | None = None

    def on_arrival(self, job: Job) -> None:
        """Arrival-time action before the service pass (IS grants the
        arriving job its immediate timeslice here)."""

    def observe_finish(self, job: Job) -> None:
        """Fold one completion into policy state (TSS online limits,
        IS protection windows) before the completion's service pass."""

    def service_pass(self, allow_suspension: bool) -> None:
        """Serve the queue once.  The default is the non-preemptive
        backfill pass; sweep engines override with their own walk."""
        self.kernel.backfill_pass()

    def quiet_until(self, now: float) -> float:
        """A lower bound on the earliest time a timer pass over the
        (non-empty) queue could change state, if no other event happens
        first (see :meth:`Scheduler.quiet_until`).  The default, *now*,
        proves nothing."""
        return now


# ======================================================================
# queue orderings
# ======================================================================
class FifoOrder(QueuePolicy):
    """Strict arrival order (the backfilling family)."""

    def priority(self, job: Job, now: float) -> float:
        return 0.0

    def order(
        self,
        queued: list[Job],
        now: float,
        priorities: dict[int, float] | None = None,
    ) -> list[Job]:
        return list(queued)


class SuspensionPriorityOrder(QueuePolicy):
    """Descending xfactor -- the SS/TSS suspension priority (section IV)."""

    def priority(self, job: Job, now: float) -> float:
        return suspension_priority(job, now)


class InstantaneousPriorityOrder(QueuePolicy):
    """Descending instantaneous xfactor -- the IS victim/service order."""

    def priority(self, job: Job, now: float) -> float:
        return instantaneous_priority(job, now)


# ======================================================================
# reservation disciplines
# ======================================================================
class NoReservations(ReservationPolicy):
    """No start-time guarantees at all (FCFS, SS, TSS, IS)."""


class HeadReservation(ReservationPolicy):
    """The single EASY-style reservation for the first blocked job.

    Parameters
    ----------
    claim_head:
        Claim the head's slot in the planning profile (EASY,
        speculative).  Relaxed backfilling plans the head's anchor
        *without* claiming it -- the anchor is re-derived per candidate.
    announce:
        Emit the ``reservation`` decision record.  Relaxed backfilling
        treats the anchor as an internal allowance and stays silent.

    Both knobs are fully determined by the composing ``scheme_id``
    (they are what distinguishes EASY from relaxed), so they add no
    :meth:`config_fragment` keys.
    """

    guards_preemption = True

    def __init__(self, claim_head: bool = True, announce: bool = True) -> None:
        super().__init__()
        self.claim_head = claim_head
        self.announce = announce

    def config_fragment(self) -> dict[str, object]:
        # scheme-id-determined knobs: nothing to serialise (see class doc)
        return {}

    def _running_profile(self) -> AvailabilityProfile:
        driver = self.driver
        profile = AvailabilityProfile(driver.cluster.n_procs, driver.now)
        for running in driver.running_jobs():
            profile.claim_running(len(running.allocated_procs), running.expected_end)
        return profile

    def plan_head(self, head: Job) -> HeadPlan:
        driver = self.driver
        profile = self._running_profile()
        duration = head.remaining_estimate()
        anchor = profile.find_anchor(duration, head.procs)
        if self.claim_head:
            profile.claim(anchor, duration, head.procs)
        if self.announce and driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "reservation",
                head.job_id,
                anchor=anchor,
                requested=head.procs,
                duration=duration,
            )
        return HeadPlan(profile=profile, head=head, anchor=anchor, duration=duration)

    def sweep_guard(self, head: Job) -> float:
        """The head's anchor for a preemption sweep to honor.

        Planned against running jobs only (suspended jobs hold no
        processors, so their pinned sets are counted as free -- the
        guarantee is an estimate re-derived every sweep, exactly as
        EASY re-plans on every pass).
        """
        driver = self.driver
        profile = self._running_profile()
        duration = head.remaining_estimate()
        anchor = profile.find_anchor(duration, head.procs)
        if self.announce and driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "reservation",
                head.job_id,
                anchor=anchor,
                requested=head.procs,
                duration=duration,
            )
        return anchor


class PerJobReservations(ReservationPolicy):
    """Conservative backfilling: every job gets a guarantee; early
    completions compress the schedule (section II-A-1).

    This is the former ``ConservativeBackfillScheduler`` body.  As a
    policy it also composes with a preemption sweep
    (``tss-conservative``): jobs the sweep starts or suspends simply
    drop out of / re-enter the anchor table at the next compression --
    ``_profile_with_reservations`` already filters anchors against the
    live queue, so stale entries self-correct.
    """

    handles_arrival = True
    handles_finish = True

    def __init__(self) -> None:
        super().__init__()
        #: job_id -> guaranteed start time, for every queued job
        self._anchors: dict[int, float] = {}

    def on_begin(self) -> None:
        self._anchors.clear()

    def on_arrival(self, job: Job) -> None:
        """Anchor the new job behind all existing reservations."""
        driver = self.driver
        profile = self._profile_with_reservations(exclude=job.job_id)
        anchor = profile.find_anchor(job.remaining_estimate(), job.procs)
        self._anchors[job.job_id] = anchor
        if anchor <= driver.now and driver.can_start(job):
            del self._anchors[job.job_id]
            driver.start_job(job)
        elif driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "reservation",
                job.job_id,
                anchor=anchor,
                requested=job.procs,
                duration=job.remaining_estimate(),
            )

    def on_finish(self, job: Job) -> None:
        """Compress: re-anchor every queued job in guarantee order."""
        driver = self.driver
        tracer = driver.tracer
        old_anchors = dict(self._anchors) if tracer is not None else {}
        queue = sorted(
            driver.queued_jobs(),
            key=lambda j: (self._anchors.get(j.job_id, float("inf")), j.job_id),
        )
        # Rebuild from running jobs only, then re-admit reservations in
        # guarantee order; each job's new anchor is <= its old one
        # because the profile it sees is a subset of the old claims.
        profile = self._running_profile()
        self._anchors.clear()
        for queued in queue:
            duration = queued.remaining_estimate()
            anchor = profile.find_anchor(duration, queued.procs)
            if anchor <= driver.now and driver.can_start(queued):
                driver.start_job(queued)
                profile.claim(driver.now, duration, queued.procs)
            else:
                self._anchors[queued.job_id] = anchor
                profile.claim(anchor, duration, queued.procs)
                # compression moved the guarantee: record the new anchor
                # (unchanged reservations are not re-emitted)
                if tracer is not None and old_anchors.get(queued.job_id) != anchor:
                    tracer.decision(
                        driver.now,
                        "reservation",
                        queued.job_id,
                        anchor=anchor,
                        requested=queued.procs,
                        duration=duration,
                        compressed_from=old_anchors.get(queued.job_id),
                    )

    # ------------------------------------------------------------------
    def _running_profile(self) -> AvailabilityProfile:
        driver = self.driver
        profile = AvailabilityProfile(driver.cluster.n_procs, driver.now)
        for running in driver.running_jobs():
            profile.claim_running(len(running.allocated_procs), running.expected_end)
        return profile

    def _profile_with_reservations(self, exclude: int) -> AvailabilityProfile:
        driver = self.driver
        profile = self._running_profile()
        by_anchor = sorted(
            (anchor, jid) for jid, anchor in self._anchors.items() if jid != exclude
        )
        queued_by_id = {j.job_id: j for j in driver.queued_jobs()}
        for anchor, jid in by_anchor:
            queued = queued_by_id.get(jid)
            if queued is None:  # reservation for a job that just started
                continue
            earliest = max(anchor, driver.now)
            # Under pure conservative discipline the stored anchor always
            # fits (claims were made against this very profile), so
            # find_anchor returns `earliest` unchanged.  Composed with a
            # preemption sweep the machine can change between
            # compressions, leaving anchors that no longer fit; pushing
            # the claim to the next feasible slot keeps the profile
            # consistent until the next compression re-anchors properly.
            duration = queued.remaining_estimate()
            start = profile.find_anchor(duration, queued.procs, earliest=earliest)
            if start != earliest:
                self._anchors[jid] = start
            profile.claim(start, duration, queued.procs)
        return profile

    def guaranteed_start(self, job: Job) -> float | None:
        """The job's current start-time guarantee (None once running)."""
        return self._anchors.get(job.job_id)


# ======================================================================
# backfill rules
# ======================================================================
class NoBackfill(BackfillPolicy):
    """Nothing jumps the queue (FCFS; also the per-job discipline,
    whose anchor-due starts are its own form of admission)."""

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        return


class GreedyBackfill(BackfillPolicy):
    """Greedy free-processor starts in queue-priority order.

    Declarative marker for the sweep compositions: the sweep engine
    (:class:`SweepPreemption` / :class:`TimeslicePreemption`) performs
    the greedy admission itself inside its walk -- starting any job
    that fits free processors, highest priority first -- because the
    same walk interleaves starts with suspensions and resumes.
    """

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:  # pragma: no cover
        return


class ProfileBackfill(BackfillPolicy):
    """EASY admission: a job backfills iff the profile (running jobs +
    the head's claimed reservation) admits it starting now."""

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if profile.fits(driver.now, duration, job.procs):
                driver.start_job(job, via="backfill")
                profile.claim(driver.now, duration, job.procs)


class RelaxedBackfill(BackfillPolicy):
    """Bounded head-delay admission (Ward, Mahood & West).

    Each candidate is evaluated on a cloned profile: claim it now,
    re-anchor the head, accept iff the what-if anchor stays within
    ``anchor + relaxation x head estimate``.
    """

    def __init__(self, relaxation: float = 0.5) -> None:
        super().__init__()
        if relaxation < 0:
            raise ValueError("relaxation must be nonnegative")
        self.relaxation = float(relaxation)

    def config_fragment(self) -> dict[str, object]:
        return {"relaxation": self.relaxation}

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        head = plan.head
        allowance = plan.anchor + self.relaxation * head.remaining_estimate()
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if not profile.fits(driver.now, duration, job.procs):
                continue
            trial = profile.clone()
            trial.claim(driver.now, duration, job.procs)
            new_anchor = trial.find_anchor(plan.duration, head.procs)
            if new_anchor <= allowance:
                driver.start_job(job)
                profile.claim(driver.now, duration, job.procs)


class SpeculativeBackfill(BackfillPolicy):
    """EASY admission plus bounded test runs into pre-reservation holes
    (Perkovic & Keleher); see :mod:`repro.schedulers.speculative`."""

    resched_on_kill = True

    def __init__(self, speculation_window: float = 900.0, max_kills: int = 2) -> None:
        super().__init__()
        if speculation_window <= 0:
            raise ValueError("speculation_window must be positive")
        if max_kills < 0:
            raise ValueError("max_kills must be nonnegative")
        self.speculation_window = float(speculation_window)
        self.max_kills = int(max_kills)

    def config_fragment(self) -> dict[str, object]:
        return {
            "speculation_window": self.speculation_window,
            "max_kills": self.max_kills,
        }

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if profile.fits(driver.now, duration, job.procs):
                driver.start_job(job, via="backfill")
                profile.claim(driver.now, duration, job.procs)
                continue
            self._try_speculate(job, profile)

    def _try_speculate(self, job: Job, profile: AvailabilityProfile) -> bool:
        """Test-run *job* in the hole before the profile next tightens."""
        driver = self.driver
        if job.kill_count >= self.max_kills:
            return False
        if job.needs_specific_procs:
            return False  # never gamble away a suspension checkpoint
        if job.remaining_estimate() <= self.speculation_window:
            return False  # not a gamble; conventional backfill territory
        # hole length on job.procs processors starting now: scan the
        # profile breakpoints for the first time free drops below need
        hole_end = float("inf")
        for t, free in profile.breakpoints():
            if t <= driver.now:
                if free < job.procs:
                    return False  # no room even now (reservation at now)
                continue
            if free < job.procs:
                hole_end = t
                break
        hole = hole_end - driver.now
        if hole < self.speculation_window:
            return False  # too short for a meaningful test run
        deadline = driver.now + self.speculation_window
        if driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "speculate",
                job.job_id,
                deadline=deadline,
                window=self.speculation_window,
                hole=hole if hole != float("inf") else None,
                requested=job.procs,
                kills_so_far=job.kill_count,
            )
        driver.start_speculative(job, deadline=deadline)
        profile.claim(driver.now, self.speculation_window, job.procs)
        return True


# ======================================================================
# preemption rules
# ======================================================================
class NoPreemption(PreemptionPolicy):
    """Running jobs are never disturbed; service is the backfill pass."""


class SweepPreemption(PreemptionPolicy):
    """The SS preemption sweep engine (section IV), parameterised.

    This is the former ``SelectiveSuspensionScheduler`` dispatch body:
    the periodic walk over the idle queue in descending suspension
    priority that assembles processors for jobs that do not fit by
    suspending running victims -- SF threshold, half-width rule for
    fresh starts, local re-entry (``suspend_jobs_2``), widest-first
    victim choice (``suspend_jobs_1``).  What used to be subclass
    overrides are now parameters:

    * *limits* -- a :class:`PreemptionLimits` table (TSS's category
      limits); ``None`` means no victim is ever protected (plain SS).
    * the **reservation guard** -- when the composition's reservation
      policy sets ``guards_preemption``, each suspension sweep first
      plans the queue head's anchor and then refuses to suspend victims
      for any other job that would still be running at that anchor
      (denial cause ``reservation_guard``).  This is how ``ss-easy``
      honors an EASY head reservation inside the SS sweep.

    All the incremental fast paths of the optimised kernel are kept:
    the once-per-sweep priority snapshot, the insort-maintained victim
    list with its lazy dead set, the incrementally-updated pinned mask,
    and the empty-queue / no-free-processor early exits (the bench gate
    pins their effect; see ``benchmarks/bench_micro.py``).  On top of
    them, :meth:`quiet_until` computes in closed form the first time a
    suspension sweep could act, so the driver skips the timer ticks
    before it without running them.
    """

    def __init__(
        self,
        criteria: PreemptionCriteria,
        preemption_interval: float = 60.0,
        limits: PreemptionLimits | None = None,
    ) -> None:
        super().__init__()
        if preemption_interval <= 0:
            raise ValueError("preemption interval must be positive")
        self.criteria = criteria
        self.timer_interval = float(preemption_interval)
        self.limits = limits
        # -- sweep-scoped scratch state ---------------------------------
        # Valid only while sweep() is on the stack; see sweep() for the
        # invalidation protocol.  Buffers are instance-level so repeated
        # sweeps reuse the same allocations instead of rebuilding them
        # per idle job (the old quadratic term in congested queues).
        self._sweep_active = False
        self._sweep_suspension = False
        #: mask of processors some suspended job must reacquire; kept
        #: current across mid-sweep suspends (|=) and resumes (&= ~)
        self._sweep_pinned = 0
        #: running victims as (priority, job_id, Job), ascending -- built
        #: once per suspension sweep, extended by insort on mid-sweep
        #: starts, lazily invalidated through _sweep_dead on suspends
        self._sweep_victims: list[tuple[float, int, Job]] = []
        #: job ids suspended mid-sweep (membership tests only)
        self._sweep_dead: set[int] = set()
        self._scratch_candidates: list[Job] = []
        self._scratch_chosen: list[Job] = []
        #: reservation guard, set per suspension sweep when the
        #: composition's reservation policy guards preemption
        self._guard_head: int | None = None
        self._guard_anchor: float | None = None

    def config_fragment(self) -> dict[str, object]:
        cfg: dict[str, object] = {
            "suspension_factor": self.criteria.suspension_factor,
            "preemption_interval": self.timer_interval,
            "width_rule": self.criteria.width_rule,
        }
        if self.limits is not None:
            cfg["limits"] = self.limits.to_config()
        return cfg

    def observe_finish(self, job: Job) -> None:
        if self.limits is not None:
            self.limits.observe(job)

    def service_pass(self, allow_suspension: bool) -> None:
        self.sweep(allow_suspension)

    # ------------------------------------------------------------------
    # victim protection (the former TSS override points)
    # ------------------------------------------------------------------
    def victim_preemptable(self, victim: Job, priority: float) -> bool:
        """Whether policy allows suspending *victim* at all.

        With no *limits* table nothing is ever protected (plain SS);
        with one, the victim is protected once its xfactor (*priority*,
        the sweep-precomputed value) exceeds its category limit.
        """
        if self.limits is None:
            return True
        return priority <= self.limits.limit_for(victim)

    def victim_protection_limit(self, victim: Job) -> float | None:
        """The xfactor ceiling protecting *victim*, for decision records.

        ``None`` without a limits table (no protection exists), else the
        victim's category limit so ``category_limit`` verdicts carry the
        threshold that was hit.  Trace-only -- never consulted on the
        scheduling path.
        """
        if self.limits is None:
            return None
        limit = self.limits.limit_for(victim)
        return None if limit == float("inf") else limit

    # ------------------------------------------------------------------
    # quiet ticks
    # ------------------------------------------------------------------
    def quiet_until(self, now: float) -> float:
        """The earliest time a suspension sweep could act, in closed form.

        Between events a running job's xfactor is frozen and a waiting
        job's rises at ``1 / estimate``; the width rule and the TSS
        limits do not change.  A waiting job that cannot start on free
        processors therefore acts exactly when its xfactor reaches
        ``SF x`` a fixed threshold: for a fresh start, the priority of
        the victim at which the cumulative width of the victims it may
        suspend (ascending priority, as :meth:`_try_start` walks them)
        covers its deficit; for a re-entry, the highest priority among
        the owners of its processors (never, if one is protected).  The
        bound is the earliest such time over the queue.  Compositions
        whose queue priority is not the xfactor, or whose reservation
        guard moves with ``now`` (``ss-easy``), get no bound.
        """
        kernel = self.kernel
        queue_policy = kernel.queue
        if type(queue_policy) is not SuspensionPriorityOrder:
            return now
        if kernel.reservation.guards_preemption:
            return now
        driver = self.driver
        cluster = driver.cluster
        prio = queue_policy.priority
        protected = self.limits is not None
        width_allows = self.criteria.width_allows
        sf = self.criteria.suspension_factor
        free = cluster.free_count
        #: running jobs as (priority, width, preemptable), ascending by
        #: (priority, job_id); built for the first fresh job
        victims: list[tuple[float, int, bool]] | None = None
        bound = math.inf
        for job in driver.queued_jobs():
            threshold = math.inf
            if job.needs_specific_procs:
                mask = job.suspended_mask
                if cluster.can_allocate_mask(mask):
                    return now
                threshold = 0.0
                for owner_id in cluster.owners_in_mask(mask):
                    owner = driver.running_job(owner_id)
                    if owner is None:  # pragma: no cover - defensive
                        return now
                    p = prio(owner, now)
                    if protected and not self.victim_preemptable(owner, p):
                        threshold = math.inf
                        break
                    threshold = max(threshold, p)
            else:
                needed = job.procs
                if free >= needed:
                    return now
                if victims is None:
                    ranked = sorted((prio(r, now), r.job_id, r) for r in driver.running_jobs())
                    victims = [
                        (
                            p,
                            len(r.allocated_procs),
                            not protected or self.victim_preemptable(r, p),
                        )
                        for p, _, r in ranked
                    ]
                covered = free
                for p, width, preemptable in victims:
                    if preemptable and width_allows(needed, width, reentry=False):
                        covered += width
                        if covered >= needed:
                            threshold = p
                            break
            if threshold < math.inf:
                # the waiting job's xfactor rises at 1/estimate
                at = now + (sf * threshold - prio(job, now)) * job.estimate
                if at <= now:
                    return now
                bound = min(bound, at)
        return bound

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def sweep(self, allow_suspension: bool) -> None:
        """One pass over the idle queue in descending queue priority.

        With ``allow_suspension=False`` this is plain greedy backfilling
        onto free processors (what arrivals and completions trigger);
        with ``True`` it is the full periodic preemption routine.

        Priorities are computed **once per sweep** into ``priorities``
        (job_id -> xfactor at *now*) and threaded through
        :meth:`_try_start` / :meth:`_try_resume`.  This is safe because
        the xfactor is an exact integral over past state intervals: a
        job suspended or started *at* ``now`` has the same xfactor
        before and after the transition, so mid-sweep state changes
        cannot invalidate the snapshot.  The naive form recomputed
        the priority O(queue x running) times per sweep inside sort
        keys and per-victim filters -- the dominant cost of congested
        simulations (see ``benchmarks/bench_micro.py``).

        Two more sweep-scoped structures extend the same idea to the
        remaining quadratic terms.  The **victim list** is sorted once
        per suspension sweep (ascending ``(priority, job_id)``, the
        per-victim walk order) instead of re-sorting ``running_jobs()``
        inside every :meth:`_try_start`; jobs started mid-sweep are
        insort-ed in, jobs suspended mid-sweep are lazily skipped via a
        dead set -- both preserve the exact order the per-call sort
        produced, because ``(priority, job_id)`` is a total order over
        an identical membership.  The **pinned mask** (processors
        suspended jobs must reacquire) is snapshotted at sweep entry and
        updated incrementally: a suspend pins the victim's processors,
        a resume unpins the job's -- the only two events that can change
        it mid-sweep -- replacing the per-:meth:`_place` rescan of the
        whole queue.
        """
        driver = self.driver
        if not allow_suspension and not driver.cluster.free_mask:
            # Decision-equivalent fast path: without suspension, every
            # start (can_allocate) and resume (can_allocate_mask on a
            # nonempty set) needs at least one free processor, and a
            # no-suspension sweep has no other observable effect -- the
            # full walk would deny every job and emit nothing.
            return
        queued = driver.queued_jobs()
        if not queued:
            # Nothing to start or resume: the idle walk is empty and a
            # sweep has no other observable effect.  Most timer sweeps
            # on moderately loaded traces hit this, so skipping the
            # victim-list build and priority snapshot here is the
            # cheapest win in the whole kernel.
            return
        now = driver.now
        queue_policy = self.kernel.queue
        prio = queue_policy.priority  # bound once: hottest call in the sweep
        priorities = {j.job_id: prio(j, now) for j in queued}
        victims = self._sweep_victims
        victims.clear()
        self._sweep_dead.clear()
        if allow_suspension:
            # victims come from the running set; a job started earlier in
            # this sweep was queued at sweep start and is already present
            for r in driver.running_jobs():
                p = prio(r, now)
                priorities[r.job_id] = p
                victims.append((p, r.job_id, r))
            victims.sort()
        pinned = 0
        for j in queued:
            pinned |= j.suspended_mask  # 0 unless awaiting local resume
        self._sweep_pinned = pinned
        self._sweep_suspension = allow_suspension
        self._guard_head = None
        self._guard_anchor = None
        reservation = self.kernel.reservation
        if allow_suspension and reservation.guards_preemption:
            # plan (and announce) the head's guarantee once per sweep;
            # _try_start/_try_resume refuse suspensions for any other
            # job that would overrun it
            head = queued[0]
            self._guard_head = head.job_id
            self._guard_anchor = reservation.sweep_guard(head)
        self._sweep_active = True
        try:
            idle = queue_policy.order(queued, now, priorities)
            for job in idle:
                if not allow_suspension and not driver.cluster.free_mask:
                    break  # same argument as above, mid-sweep
                if job.needs_specific_procs:
                    self._try_resume(job, allow_suspension, priorities)
                else:
                    self._try_start(job, allow_suspension, priorities)
        finally:
            self._sweep_active = False
            victims.clear()
            self._sweep_dead.clear()
            self._guard_head = None
            self._guard_anchor = None

    # ------------------------------------------------------------------
    # sweep-scoped bookkeeping
    # ------------------------------------------------------------------
    def _note_started(self, job: Job, priorities: dict[int, float]) -> None:
        """A queued job entered running mid-sweep: it is now a potential
        victim for later idle jobs, exactly as the old per-call re-sort
        would have picked it up."""
        if self._sweep_active and self._sweep_suspension:
            insort(self._sweep_victims, (priorities[job.job_id], job.job_id, job))

    def _note_resumed(
        self, job: Job, needed_mask: int, priorities: dict[int, float]
    ) -> None:
        """A suspended job resumed mid-sweep: its processors unpin."""
        if self._sweep_active:
            self._sweep_pinned &= ~needed_mask
            self._note_started(job, priorities)

    def _note_suspended(self, victim: Job, released_mask: int) -> None:
        """A running job was suspended mid-sweep: its processors pin and
        it leaves the victim list (lazily, via the dead set)."""
        if self._sweep_active:
            self._sweep_pinned |= released_mask
            self._sweep_dead.add(victim.job_id)

    # ------------------------------------------------------------------
    # the reservation guard (hybrid compositions only)
    # ------------------------------------------------------------------
    def _guard_blocks(self, job: Job, now: float) -> bool:
        """Whether the head's guaranteed start forbids preempting for
        *job*: any non-head job still running at the anchor would
        squat on processors the guarantee promised the head."""
        anchor = self._guard_anchor
        if anchor is None or job.job_id == self._guard_head:
            return False
        return now + job.remaining_estimate() > anchor

    # ------------------------------------------------------------------
    # fresh starts (pseudocode path suspend_jobs_1)
    # ------------------------------------------------------------------
    def _pinned_mask(self) -> int:
        """Mask of processors some suspended job must reacquire to resume.

        Recomputed from the queue; during a sweep the maintained
        ``_sweep_pinned`` snapshot is used instead (same value, O(1)).
        """
        pinned = 0
        for j in self.driver.queued_jobs():
            pinned |= j.suspended_mask  # 0 unless awaiting local resume
        return pinned

    def _pinned_procs(self) -> set[int]:
        """Processors some suspended job must reacquire to resume."""
        return set(iter_bits(self._pinned_mask()))

    def _place(self, job: Job, preferred: frozenset[int] = frozenset()) -> frozenset[int]:
        """Choose processors for a fresh start (id-set facade over
        :meth:`_place_mask`, kept for tests and scheme classes)."""
        return frozenset(iter_bits(self._place_mask(job, mask_from_ids(preferred))))

    def _place_mask(self, job: Job, preferred_mask: int = 0) -> int:
        """Choose processors for a fresh start.

        Priority order: (1) *preferred_mask* (the just-suspended victims'
        processors, per the pseudocode's ``available_processor_set`` --
        so a victim unpins the moment its preemptor finishes), (2) free
        processors no suspended job is waiting for, (3) the rest.
        Skipping pinned processors where possible keeps suspended jobs'
        resume sets clear, which is what lets SS hold NS-level
        utilisation under load.

        Each tier takes the lowest free ids it can -- identical choices
        to the old ``sorted(tier)[:remaining]`` on id sets, because the
        lowest set bits of a mask *are* the sorted prefix.
        """
        free = self.driver.cluster.free_mask
        pinned = self._sweep_pinned if self._sweep_active else self._pinned_mask()
        chosen = take_lowest(preferred_mask & free, job.procs)
        n = chosen.bit_count()
        if n < job.procs:
            chosen |= take_lowest(free & ~chosen & ~pinned, job.procs - n)
            n = chosen.bit_count()
        if n < job.procs:
            chosen |= take_lowest(free & ~chosen, job.procs - n)
        return chosen

    def _try_start(
        self, job: Job, allow_suspension: bool, priorities: dict[int, float]
    ) -> bool:
        driver = self.driver
        if driver.cluster.can_allocate(job.procs):
            driver.start_job(job, procs=self._place(job))
            self._note_started(job, priorities)
            return True
        if not allow_suspension:
            return False

        now = driver.now
        tracer = driver.tracer
        idle_priority = priorities[job.job_id]
        free = driver.cluster.free_count
        if self._guard_anchor is not None and self._guard_blocks(job, now):
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause="reservation_guard",
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    free=free,
                    reentry=False,
                    anchor=self._guard_anchor,
                )
            return False
        candidates = self._scratch_candidates
        candidates.clear()
        #: per-victim verdicts, built only when tracing is on (decision
        #: records are the one place per-victim reasoning is preserved)
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        covered = free  # free + candidate processors
        dead = self._sweep_dead
        # Per-victim checks bound outside the loop; without a limits
        # table victim_preemptable is unconditionally True, so the call
        # is skipped entirely (plain SS's densest inner loop).
        protected = self.limits is not None
        priority_allows = self.criteria.priority_allows
        width_allows = self.criteria.width_allows
        needed = job.procs
        # Victims in ascending priority: cheapest (least entitled) first.
        # The sweep-sorted list replaces the old per-call
        # ``sorted(driver.running_jobs(), key=(priority, job_id))``:
        # same membership (insort on mid-sweep starts, dead set on
        # mid-sweep suspends), same total order.
        for victim_priority, victim_id, victim in self._sweep_victims:
            if covered >= needed:
                break
            if victim_id in dead:
                continue
            width = len(victim.allocated_procs)
            if protected and not self.victim_preemptable(victim, victim_priority):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id,
                            victim_priority,
                            width,
                            "category_limit",
                            self.victim_protection_limit(victim),
                        )
                    )
                continue
            if not priority_allows(idle_priority, victim_priority):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id, victim_priority, width, "sf_threshold"
                        )
                    )
                continue
            if not width_allows(needed, width, reentry=False):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id, victim_priority, width, "width_rule"
                        )
                    )
                continue
            candidates.append(victim)
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(victim.job_id, victim_priority, width, "candidate")
                )
            covered += width

        if covered < needed:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=primary_denial_cause(verdicts),
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    free=free,
                    reentry=False,
                    victims=verdicts,
                )
            return False

        # Suspend the widest candidates first, stopping once the request
        # is covered (the paper sorts the candidate set in descending
        # processor count so the fewest jobs are disturbed).  The chosen
        # set is fixed *before* any suspension -- free_count only changes
        # through our own suspends, so precomputing it is equivalent and
        # lets the decision record precede the suspend events it causes.
        chosen = self._scratch_chosen
        chosen.clear()
        covered_free = free
        for victim in sorted(
            candidates, key=lambda c: (-len(c.allocated_procs), c.job_id)
        ):
            if covered_free >= job.procs:
                break
            chosen.append(victim)
            covered_free += len(victim.allocated_procs)
        if tracer is not None:
            tracer.decision(
                now,
                "preempt",
                job.job_id,
                xfactor=idle_priority,
                sf=self.criteria.suspension_factor,
                requested=job.procs,
                free=free,
                reentry=False,
                suspended=[v.job_id for v in chosen],
                victims=verdicts,
            )
        freed_mask = 0
        for victim in chosen:
            released = driver.cluster.owner_mask(victim.job_id)
            freed_mask |= released
            driver.suspend_job(victim, preemptor=job.job_id)
            self._note_suspended(victim, released)
        # run the preemptor on its victims' processors (the pseudocode's
        # available_processor_set) so each victim's resume set clears
        # when the preemptor finishes
        placed = self._place_mask(job, preferred_mask=freed_mask)
        driver.start_job(job, procs=frozenset(iter_bits(placed)))
        self._note_started(job, priorities)
        return True

    # ------------------------------------------------------------------
    # re-entry of suspended jobs (pseudocode path suspend_jobs_2)
    # ------------------------------------------------------------------
    def _try_resume(
        self, job: Job, allow_suspension: bool, priorities: dict[int, float]
    ) -> bool:
        driver = self.driver
        needed_mask = job.suspended_mask  # cached at suspension time
        if driver.cluster.can_allocate_mask(needed_mask):
            driver.start_job(job)
            self._note_resumed(job, needed_mask, priorities)
            return True
        if not allow_suspension:
            return False

        now = driver.now
        tracer = driver.tracer
        idle_priority = priorities[job.job_id]
        if self._guard_anchor is not None and self._guard_blocks(job, now):
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause="reservation_guard",
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    reentry=True,
                    anchor=self._guard_anchor,
                )
            return False
        # sorted for determinism: both the verdict-list order and the
        # reported primary blocking cause must reproduce run to run
        # (traces are byte-identical for identical inputs --
        # docs/TRACING.md), so the order is pinned to job ids rather
        # than to whatever order the owners are discovered in.
        owners: list[Job] = []
        for owner_id in sorted(driver.cluster.owners_in_mask(needed_mask)):
            owner = driver.running_job(owner_id)
            if owner is None:  # pragma: no cover - defensive
                return False
            owners.append(owner)
        # Every squatter must clear the SF threshold (no width rule on
        # re-entry); one protected occupant blocks the whole resume.
        # When tracing, keep walking past the first blocker so the
        # decision record carries *every* owner's verdict (the extra
        # checks are pure -- no scheduling effect).
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        blocking: str | None = None
        protected = self.limits is not None
        priority_allows = self.criteria.priority_allows
        for victim in owners:
            victim_priority = priorities[victim.job_id]
            if protected and not self.victim_preemptable(victim, victim_priority):
                cause = "category_limit"
            elif not priority_allows(idle_priority, victim_priority):
                cause = "sf_threshold"
            else:
                cause = None
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(
                        victim.job_id,
                        victim_priority,
                        len(victim.allocated_procs),
                        cause or "candidate",
                        self.victim_protection_limit(victim)
                        if cause == "category_limit"
                        else None,
                    )
                )
            if cause is not None:
                blocking = blocking or cause
                if verdicts is None:
                    break  # untraced: first blocker settles it
        if blocking is not None:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=blocking,
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    reentry=True,
                    victims=verdicts,
                )
            return False
        if tracer is not None:
            tracer.decision(
                now,
                "preempt",
                job.job_id,
                xfactor=idle_priority,
                sf=self.criteria.suspension_factor,
                requested=job.procs,
                reentry=True,
                suspended=sorted(o.job_id for o in owners),
                victims=verdicts,
            )
        for victim in owners:  # already ascending by job id
            released = driver.cluster.owner_mask(victim.job_id)
            driver.suspend_job(victim, preemptor=job.job_id)
            self._note_suspended(victim, released)
        if driver.cluster.can_allocate_mask(needed_mask):
            driver.start_job(job)
            self._note_resumed(job, needed_mask, priorities)
            return True
        return False  # pragma: no cover - owners covered all of `needed`


#: protection-window end of a job that holds none
_UNPROTECTED = float("-inf")


class TimeslicePreemption(PreemptionPolicy):
    """The IS timeslice engine: serve-on-arrival with protection windows.

    The former ``ImmediateServiceScheduler`` body (Chiang & Vernon's
    "immediate service" comparator): every arriving job is offered an
    immediate timeslice, suspending the running jobs with the lowest
    queue priority (instantaneous xfactor in the IS composition) if
    needed; every dispatch opens a protection window of one *timeslice*
    past the job's pending suspend/restart overhead; and the periodic
    sweep re-serves waiting jobs against unprotected victims of
    *strictly lower* priority.  See :mod:`repro.core.immediate_service`
    for the policy rationale and the pinned-down unstated details.

    It runs on the same fast paths as :class:`SweepPreemption`, with
    identical schedules:

    * quiet ticks: a sweep with no waiting job returns before building
      anything, and :meth:`quiet_until` bounds when a sweep over a busy
      queue could next grant a timeslice (a protection window ending or
      two priorities crossing), so the driver skips the ticks before
      it;
    * the once-per-sweep priority snapshot: each job's queue priority is
      computed at most once per sweep, exact because a transition at
      ``now`` leaves the instantaneous xfactor unchanged;
    * mask re-entry: a suspended job's resume set is its cached
      ``suspended_mask``, tested with ``can_allocate_mask``, and the
      jobs squatting on it come from ``owners_in_mask`` plus the O(1)
      ``running_job`` lookup instead of a ``running_jobs()`` scan.
    """

    def __init__(
        self,
        timeslice: float = 600.0,
        sweep_interval: float = 60.0,
    ) -> None:
        super().__init__()
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.timeslice = float(timeslice)
        self.timer_interval = float(sweep_interval)
        #: job_id -> end of its current protection window
        self._protected_until: dict[int, float] = {}
        #: job_id -> queue priority at the sweep's instant; not ``None``
        #: only while :meth:`_sweep` is on the stack
        self._sweep_priorities: dict[int, float] | None = None

    def config_fragment(self) -> dict[str, object]:
        return {"timeslice": self.timeslice, "sweep_interval": self.timer_interval}

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_begin(self) -> None:
        self._protected_until.clear()

    def on_arrival(self, job: Job) -> None:
        # a job denied its immediate timeslice waits and competes in
        # later sweeps
        self._grant_immediate_service(job)

    def observe_finish(self, job: Job) -> None:
        self._protected_until.pop(job.job_id, None)

    def service_pass(self, allow_suspension: bool) -> None:
        self._sweep()

    # ------------------------------------------------------------------
    # mechanics
    # ------------------------------------------------------------------
    def _priority(self, job: Job, now: float) -> float:
        snapshot = self._sweep_priorities
        if snapshot is None:
            return self.kernel.queue.priority(job, now)
        p = snapshot.get(job.job_id)
        if p is None:
            p = snapshot[job.job_id] = self.kernel.queue.priority(job, now)
        return p

    def quiet_until(self, now: float) -> float:
        """The earliest time a sweep could grant a timeslice, in closed form.

        A running job becomes a candidate victim for a waiting job at
        :meth:`_eligible_at`.  A fresh start acts once the candidates'
        cumulative width, in order of eligibility, covers its deficit; a
        re-entry once every owner of its processors is a candidate.  The
        bound is the earliest such time over the queue.  Compositions
        whose queue priority is not the instantaneous xfactor get none.
        """
        if type(self.kernel.queue) is not InstantaneousPriorityOrder:
            return now
        driver = self.driver
        cluster = driver.cluster
        free = cluster.free_count
        running: list[Job] | None = None  # fetched for the first fresh job
        bound = math.inf
        for job in driver.queued_jobs():
            if job.needs_specific_procs:
                mask = job.suspended_mask
                if cluster.can_allocate_mask(mask):
                    return now
                at = now
                for owner_id in cluster.owners_in_mask(mask):
                    owner = driver.running_job(owner_id)
                    if owner is None:  # pragma: no cover - defensive
                        return now
                    at = max(at, self._eligible_at(owner, job, now))
            else:
                needed = job.procs
                if free >= needed:
                    return now
                if running is None:
                    running = driver.running_jobs()
                eligible = sorted(
                    (self._eligible_at(r, job, now), len(r.allocated_procs)) for r in running
                )
                at = math.inf
                covered = free
                for when, width in eligible:
                    covered += width
                    if covered >= needed:
                        at = when
                        break
            if at <= now:
                return now
            bound = min(bound, at)
        return bound

    def _eligible_at(self, runner: Job, waiter: Job, now: float) -> float:
        """When *runner* becomes a candidate victim for *waiter*.

        That is once its protection window has ended and its priority
        is strictly below the waiter's.  Both instantaneous xfactors are
        ``1 + wait / accrued``: the waiter's wait ``a + u`` grows while
        its accrued ``A`` is frozen, and the runner's accrued ``b + u``
        grows while its wait ``W`` is frozen, ``u`` seconds after
        *now*.  So the runner ranks below once ``(a + u)(b + u) > W A``,
        whose positive root is taken in its cancellation-free form.  A
        waiter that never ran outranks any runner at once.
        """
        protected_until = self._protected_until.get(runner.job_id, _UNPROTECTED)
        accrued = waiter.accrued(now)
        if accrued <= 0.0:
            return max(protected_until, now)
        a = waiter.waited(now)
        b = runner.accrued(now)
        c = runner.waited(now) * accrued
        if c <= a * b:
            return max(protected_until, now)
        u = 2.0 * (c - a * b) / (a + b + math.sqrt((a - b) ** 2 + 4.0 * c))
        return max(protected_until, now + u)

    def _is_protected(self, job: Job) -> bool:
        return self.driver.now < self._protected_until.get(job.job_id, _UNPROTECTED)

    def _start(self, job: Job) -> None:
        driver = self.driver
        # The 10-minute timeslice is ten minutes of *service*: a resumed
        # job first pays its suspend/restart overhead on the processors,
        # so protection must cover overhead + timeslice.  Without this,
        # a job whose per-cycle overhead exceeds the timeslice makes
        # zero progress per cycle and two such jobs can suspend each
        # other forever (observed livelock under the disk-swap model).
        pending = job.pending_overhead
        driver.start_job(job)
        self._protected_until[job.job_id] = driver.now + pending + self.timeslice

    def _grant_immediate_service(self, job: Job) -> bool:
        """Arrival path: start *job* now, preempting if necessary."""
        driver = self.driver
        if driver.cluster.can_allocate(job.procs):
            self._start(job)
            return True
        victims = self._cheapest_victims(limit_priority=None)
        freed = driver.cluster.free_count
        chosen: list[Job] = []
        for victim in victims:
            if freed >= job.procs:
                break
            chosen.append(victim)
            freed += len(victim.allocated_procs)
        if freed < job.procs:
            self._record_denial(job, limit_priority=None, path="arrival")
            return False
        self._record_grant(job, chosen, limit_priority=None, path="arrival")
        for victim in chosen:
            driver.suspend_job(victim, preemptor=job.job_id)
            self._protected_until.pop(victim.job_id, None)
        self._start(job)
        return True

    # ------------------------------------------------------------------
    # decision records (trace-only; never consulted by the policy)
    # ------------------------------------------------------------------
    def _victim_verdicts(self, limit_priority: float | None) -> list[dict[str, Any]]:
        """Per-running-job verdicts for a decision record.

        ``protected`` -- inside its timeslice protection window;
        ``priority`` -- queue priority not strictly below the waiter's
        (sweep/re-entry paths only); else ``candidate``.
        """
        driver = self.driver
        now = driver.now
        out: list[dict[str, Any]] = []
        for r in sorted(driver.running_jobs(), key=lambda r: r.job_id):
            p = self._priority(r, now)
            if self._is_protected(r):
                verdict = "protected"
            elif limit_priority is not None and p >= limit_priority:
                verdict = "priority"
            else:
                verdict = "candidate"
            out.append(victim_verdict(r.job_id, p, len(r.allocated_procs), verdict))
        return out

    def _record_denial(
        self, job: Job, limit_priority: float | None, path: str
    ) -> None:
        driver = self.driver
        tracer = driver.tracer
        if tracer is None:
            return
        verdicts = self._victim_verdicts(limit_priority)
        tracer.decision(
            driver.now,
            "preempt_denied",
            job.job_id,
            cause=primary_denial_cause(verdicts),
            requested=job.procs,
            free=driver.cluster.free_count,
            path=path,
            timeslice=self.timeslice,
            victims=verdicts,
        )

    def _record_grant(
        self,
        job: Job,
        chosen: list[Job],
        limit_priority: float | None,
        path: str,
    ) -> None:
        driver = self.driver
        tracer = driver.tracer
        if tracer is None:
            return
        tracer.decision(
            driver.now,
            "timeslice_grant",
            job.job_id,
            requested=job.procs,
            free=driver.cluster.free_count,
            path=path,
            timeslice=self.timeslice,
            suspended=[v.job_id for v in chosen],
            victims=self._victim_verdicts(limit_priority),
        )

    def _cheapest_victims(self, limit_priority: float | None) -> list[Job]:
        """Unprotected running jobs in ascending queue priority.

        If *limit_priority* is given, only victims strictly below it are
        eligible (the waiting-job service path).
        """
        driver = self.driver
        now = driver.now
        ranked: list[tuple[float, int, Job]] = []
        for r in driver.running_jobs():
            if self._is_protected(r):
                continue
            p = self._priority(r, now)
            if limit_priority is None or p < limit_priority:
                ranked.append((p, r.job_id, r))
        ranked.sort()  # (priority, job_id) is unique: Jobs never compared
        return [r for _, _, r in ranked]

    def _sweep(self) -> None:
        """Serve waiting jobs: free processors first, then preemption."""
        driver = self.driver
        queued = driver.queued_jobs()
        if not queued:
            return
        now = driver.now
        prio = self.kernel.queue.priority
        priorities = {j.job_id: prio(j, now) for j in queued}
        waiting = sorted(
            queued, key=lambda j: (-priorities[j.job_id], j.submit_time, j.job_id)
        )
        self._sweep_priorities = priorities  # running jobs join lazily
        try:
            for job in waiting:
                if job.needs_specific_procs:
                    self._serve_reentry(job)
                else:
                    self._serve_fresh(job)
        finally:
            self._sweep_priorities = None

    def _serve_fresh(self, job: Job) -> bool:
        driver = self.driver
        if driver.cluster.can_allocate(job.procs):
            self._start(job)
            return True
        my_priority = self._priority(job, driver.now)
        victims = self._cheapest_victims(limit_priority=my_priority)
        freed = driver.cluster.free_count
        chosen: list[Job] = []
        for victim in victims:
            if freed >= job.procs:
                break
            chosen.append(victim)
            freed += len(victim.allocated_procs)
        if freed < job.procs:
            self._record_denial(job, limit_priority=my_priority, path="sweep")
            return False
        self._record_grant(job, chosen, limit_priority=my_priority, path="sweep")
        for victim in chosen:
            driver.suspend_job(victim, preemptor=job.job_id)
            self._protected_until.pop(victim.job_id, None)
        self._start(job)
        return True

    def _serve_reentry(self, job: Job) -> bool:
        driver = self.driver
        cluster = driver.cluster
        needed_mask = job.suspended_mask  # cached at suspension time
        if cluster.can_allocate_mask(needed_mask):
            self._start(job)
            return True
        now = driver.now
        tracer = driver.tracer
        my_priority = self._priority(job, now)
        # ascending job id: the verdict order and the primary blocking
        # cause must reproduce run to run
        owners: list[Job] = []
        for owner_id in sorted(cluster.owners_in_mask(needed_mask)):
            owner = driver.running_job(owner_id)
            if owner is None:  # pragma: no cover - defensive
                return False
            owners.append(owner)
        # One protected or higher-priority squatter blocks the resume.
        # When tracing, classify every owner so the decision record is
        # complete (the checks are pure; scheduling is unchanged).
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        blocking: str | None = None
        protected_until = self._protected_until
        for victim in owners:
            # protection first: a protected owner's priority is needed
            # only for the decision record
            if now < protected_until.get(victim.job_id, _UNPROTECTED):
                cause = "protected"
            elif self._priority(victim, now) >= my_priority:
                cause = "priority"
            else:
                cause = None
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(
                        victim.job_id,
                        self._priority(victim, now),
                        len(victim.allocated_procs),
                        cause or "candidate",
                    )
                )
            if cause is not None:
                blocking = blocking or cause
                if verdicts is None:
                    break  # untraced: first blocker settles it
        if blocking is not None:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=blocking,
                    requested=job.procs,
                    path="reentry",
                    timeslice=self.timeslice,
                    victims=verdicts,
                )
            return False
        if tracer is not None:
            tracer.decision(
                now,
                "timeslice_grant",
                job.job_id,
                requested=job.procs,
                path="reentry",
                timeslice=self.timeslice,
                suspended=[o.job_id for o in owners],
                victims=verdicts,
            )
        for victim in owners:
            driver.suspend_job(victim, preemptor=job.job_id)
            self._protected_until.pop(victim.job_id, None)
        if cluster.can_allocate_mask(needed_mask):
            self._start(job)
            return True
        return False  # pragma: no cover - owners covered all of `needed`


# ======================================================================
# composition
# ======================================================================
@dataclass(frozen=True)
class SchedulerSpec:
    """A scheme as a declarative composition of the four policy axes.

    ``config()`` merges the axes' :meth:`Policy.config_fragment` dicts
    in a fixed order (queue, reservation, backfill, preemption) after
    the scheme id, so cache fingerprints compose automatically -- and,
    for the eight ported schemes, reproduce the legacy key order
    byte-for-byte (the golden traces embed these dicts in ``run_begin``
    events).
    """

    scheme_id: str
    display_name: str
    queue: QueuePolicy
    reservation: ReservationPolicy
    backfill: BackfillPolicy
    preemption: PreemptionPolicy

    def config(self) -> dict[str, object]:
        cfg: dict[str, object] = {"scheme": self.scheme_id}
        for policy in (self.queue, self.reservation, self.backfill, self.preemption):
            cfg.update(policy.config_fragment())
        return cfg


class PolicyKernel(Scheduler):
    """One dispatch loop composing the four policy axes.

    Driver hooks route to the composition:

    * ``on_arrival`` -- the preemption policy may serve immediately
      (IS); a reservation policy that handles arrivals (conservative)
      admits the job itself; otherwise a no-suspension service pass.
    * ``on_finish`` -- the preemption policy observes the completion
      (TSS calibration), then either the reservation policy recomputes
      guarantees or a no-suspension service pass fills the hole.
    * ``on_timer`` -- the full (suspension-allowed) service pass.
    * ``on_kill`` -- reschedules when the backfill policy asks for it
      (speculative test runs).

    The default service pass is :meth:`backfill_pass`: start jobs in
    queue order while they fit, then let the reservation policy plan
    the head and the backfill policy fill around it.  Preemption
    policies override ``service_pass`` with their own engines.

    Scheme identity (``scheme_id``, ``name``, ``timer_interval``,
    ``config()``) comes entirely from the :class:`SchedulerSpec`, so
    concrete scheme classes are pure compositions plus back-compat
    accessors.

    :meth:`quiet_until` tells the driver which timer ticks it may
    skip: on an empty queue, all of them until the next event (both
    sweep engines and the default backfill pass return at once when no
    job waits); on a busy queue, those before the preemption policy's
    closed-form bound.
    """

    def __init__(self, spec: SchedulerSpec) -> None:
        super().__init__()
        self.spec = spec
        self.queue = spec.queue
        self.reservation = spec.reservation
        self.backfill = spec.backfill
        self.preemption = spec.preemption
        self.scheme_id = spec.scheme_id
        self.name = spec.display_name
        self.timer_interval = spec.preemption.timer_interval
        for policy in (self.queue, self.reservation, self.backfill, self.preemption):
            policy.bind_kernel(self)

    # ------------------------------------------------------------------
    def config(self) -> dict[str, object]:
        return self.spec.config()

    def on_begin(self) -> None:
        for policy in (self.queue, self.reservation, self.backfill, self.preemption):
            policy.on_begin()

    def on_arrival(self, job: Job) -> None:
        self.preemption.on_arrival(job)
        if self.reservation.handles_arrival:
            self.reservation.on_arrival(job)
            return
        self.preemption.service_pass(False)

    def on_finish(self, job: Job) -> None:
        self.preemption.observe_finish(job)
        if self.reservation.handles_finish:
            self.reservation.on_finish(job)
            return
        self.preemption.service_pass(False)

    def on_timer(self) -> None:
        self.preemption.service_pass(True)

    def quiet_until(self, now: float) -> float:
        driver = self.driver
        assert driver is not None
        if not driver.queue_length:
            return math.inf
        return self.preemption.quiet_until(now)

    def on_kill(self, job: Job) -> None:
        if self.backfill.resched_on_kill:
            self.preemption.service_pass(False)

    # ------------------------------------------------------------------
    # the default service pass (non-preemptive schemes)
    # ------------------------------------------------------------------
    def backfill_pass(self) -> None:
        """Start in order while the head fits, then backfill behind it.

        Phase 1 starts the queue head while it fits, refetching the
        queue each iteration (a start removes exactly the head, so this
        is equivalent to the legacy snapshot walks in FCFS and EASY).
        Phase 2 asks the reservation policy to plan the (now blocked)
        head; if the scheme reserves nothing, dispatch stops at the
        head.  Phase 3 lets the backfill policy fill around the plan.
        """
        driver = self.driver
        while True:
            queue = driver.queued_jobs()
            if not queue:
                return
            ordered = self.queue.order(queue, driver.now)
            head = ordered[0]
            if not driver.can_start(head):
                break
            driver.start_job(head)
        queue = driver.queued_jobs()
        if not queue:
            return  # pragma: no cover - loop returned already
        plan = self.reservation.plan_head(queue[0])
        if plan is None:
            return
        self.backfill.fill(queue[1:], plan)
