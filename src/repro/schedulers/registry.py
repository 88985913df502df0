"""The scheme table: every scheduling scheme, its parameters and defaults.

The paper's schemes are one backfilling scheduler that varies only in
queue priority, reservations and the suspension rule (sections II and
IV), so each scheme is one entry here: a function registered with
``@register("<id>", aliases=(...))`` whose signature *is* the scheme's
parameter list -- the only place its defaults are written -- and which
returns the scheme's :class:`~repro.schedulers.policy.SchedulerSpec`
(``gang``, the one scheme not built on the policy kernel, returns its
scheduler).  Each entry coerces its parameters once, so an integer
``suspension_factor=2`` and ``2.0`` build the same scheme and dump the
same config.

:func:`make_scheduler` builds a scheme by id or alias; scheduler
objects are stateful and single-use, so they cannot travel to worker
processes or live in a cache key, but their :meth:`Scheduler.config`
mapping can, and :func:`scheduler_from_config` turns it back into a
fresh instance.  The round-trip contract, checked by
``tests/test_policy_kernel.py``::

    scheduler_from_config(s.config()).config() == s.config()

Unknown parameters are rejected (:class:`ValueError` naming the scheme
and its parameters) rather than dropped, so a config can never
fingerprint a run it did not describe.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.core.priorities import PreemptionCriteria
from repro.core.tss import CategoryLimits
from repro.schedulers.base import Scheduler
from repro.schedulers.gang import GangScheduler
from repro.schedulers.policy import (
    FifoOrder,
    GreedyBackfill,
    HeadReservation,
    InstantaneousPriorityOrder,
    NoBackfill,
    NoPreemption,
    NoReservations,
    PerJobReservations,
    PolicyKernel,
    ProfileBackfill,
    RelaxedBackfill,
    SchedulerSpec,
    SpeculativeBackfill,
    SuspensionPriorityOrder,
    SweepPreemption,
    TimeslicePreemption,
)

Builder = Callable[..., "SchedulerSpec | Scheduler"]


@dataclass(frozen=True)
class _Entry:
    scheme_id: str
    aliases: tuple[str, ...]
    build: Builder
    signature: inspect.Signature


#: scheme id -> table entry
_TABLE: dict[str, _Entry] = {}
#: scheme id or alias -> scheme id
_NAMES: dict[str, str] = {}


def register(scheme_id: str, aliases: tuple[str, ...] = ()) -> Callable[[Builder], Builder]:
    """Decorator adding *scheme_id* (and its CLI *aliases*) to the table."""

    def deco(fn: Builder) -> Builder:
        _TABLE[scheme_id] = _Entry(scheme_id, aliases, fn, inspect.signature(fn))
        for name in (scheme_id, *aliases):
            _NAMES[name] = scheme_id
        return fn

    return deco


def known_schemes() -> tuple[str, ...]:
    """The registered scheme ids, sorted."""
    return tuple(sorted(_TABLE))


def scheme_aliases() -> dict[str, tuple[str, ...]]:
    """scheme id -> its aliases, ids sorted."""
    return {sid: _TABLE[sid].aliases for sid in known_schemes()}


def _entry(name: str, aliases: bool = True) -> _Entry:
    entry = _TABLE.get(_NAMES.get(name, "") if aliases else name)
    if entry is None:
        raise ValueError(
            f"unknown scheme {name!r}; known: {', '.join(known_schemes())}"
        )
    return entry


def _check_params(entry: _Entry, names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(entry.signature.parameters))
    if unknown:
        accepted = ", ".join(entry.signature.parameters) or "none"
        raise ValueError(
            f"scheme {entry.scheme_id!r} has no parameter {', '.join(unknown)}; "
            f"its parameters: {accepted}"
        )


def scheme_params(name: str) -> tuple[str, ...]:
    """The parameter names of scheme *name* (an id or alias)."""
    return tuple(_entry(name).signature.parameters)


def _build(name: str, params: dict[str, object]) -> SchedulerSpec | Scheduler:
    entry = _entry(name)
    _check_params(entry, params)
    return entry.build(**params)


def scheme_spec(name: str, **params: object) -> SchedulerSpec:
    """The policy-kernel composition of scheme *name* with *params*."""
    built = _build(name, params)
    if not isinstance(built, SchedulerSpec):
        raise ValueError(f"scheme {name!r} is not a policy-kernel composition")
    return built


def make_scheduler(name: str, **params: object) -> Scheduler:
    """A fresh, unbound scheduler for scheme *name* (an id or alias).

    Raises
    ------
    ValueError
        If *name* is not in the table, or *params* holds a key the
        scheme does not take.
    """
    built = _build(name, params)
    return PolicyKernel(built) if isinstance(built, SchedulerSpec) else built


def check_config(config: Mapping[str, object]) -> None:
    """Raise like :func:`scheduler_from_config` would, without building.

    Raises
    ------
    KeyError
        If the config carries no ``"scheme"`` key.
    ValueError
        If the scheme id is not registered or a key is not one of its
        parameters.
    """
    entry = _entry(str(config["scheme"]), aliases=False)
    _check_params(entry, (key for key in config if key != "scheme"))


def scheduler_from_config(config: Mapping[str, object]) -> Scheduler:
    """Build a fresh, unbound scheduler from a :meth:`Scheduler.config` dict.

    Only scheme ids are accepted here (never aliases): the mapping is
    what cache keys hash, so it must name the scheme that runs.

    Raises
    ------
    KeyError
        If the config carries no ``"scheme"`` key.
    ValueError
        As :func:`check_config`.
    """
    check_config(config)
    params = dict(config)
    return make_scheduler(str(params.pop("scheme")), **params)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def _limits(limits: CategoryLimits | Mapping[str, object] | None) -> CategoryLimits:
    if isinstance(limits, CategoryLimits):
        return limits
    if isinstance(limits, Mapping):
        return CategoryLimits.from_config(dict(limits))
    return CategoryLimits(online=True)


def _sweep(
    suspension_factor: float,
    preemption_interval: float,
    width_rule: bool,
    limits: CategoryLimits | None = None,
) -> SweepPreemption:
    return SweepPreemption(
        PreemptionCriteria(suspension_factor=suspension_factor, width_rule=width_rule),
        preemption_interval=preemption_interval,
        limits=limits,
    )


@register("fcfs")
def _fcfs() -> SchedulerSpec:
    """First-come-first-served: the strawman of section II.

    Jobs start strictly in arrival order; if the head does not fit,
    everything behind it waits, however many processors sit idle -- the
    fragmentation baseline backfilling's utilisation gain is measured
    against.  No reservation means the service pass stops at the first
    blocked head.
    """
    return SchedulerSpec(
        scheme_id="fcfs",
        display_name="FCFS",
        queue=FifoOrder(),
        reservation=NoReservations(),
        backfill=NoBackfill(),
        preemption=NoPreemption(),
    )


@register("easy", aliases=("ns",))
def _easy() -> SchedulerSpec:
    """Aggressive (EASY) backfilling: the paper's **NS** baseline (II-A-2).

    The first job that cannot start receives the *only* reservation, at
    the earliest time enough processors are forecast free; a later job
    may jump ahead iff the profile of running jobs plus that reservation
    admits it starting now for its full estimate (it ends before the
    reservation or uses processors the head will not need).  With
    over-estimates, jobs finish early and the next event re-plans,
    recovering the released time (the section V setting).
    """
    return SchedulerSpec(
        scheme_id="easy",
        display_name="EASY",
        queue=FifoOrder(),
        reservation=HeadReservation(),
        backfill=ProfileBackfill(),
        preemption=NoPreemption(),
    )


@register("conservative", aliases=("cons",))
def _conservative() -> SchedulerSpec:
    """Conservative backfilling (section II-A-1).

    Every job receives a start-time guarantee when submitted, at the
    earliest profile anchor that fits it; a job may backfill only if it
    delays no previously queued job.  When a job ends before its
    estimate the schedule is *compressed*: guarantees are re-anchored in
    order of increasing start time and can only move earlier.
    :class:`~repro.schedulers.policy.PerJobReservations` serves arrivals
    and completions itself, so the backfill pass never runs.
    """
    return SchedulerSpec(
        scheme_id="conservative",
        display_name="CONS",
        queue=FifoOrder(),
        reservation=PerJobReservations(),
        backfill=NoBackfill(),
        preemption=NoPreemption(),
    )


@register("relaxed")
def _relaxed(relaxation: float = 0.5) -> SchedulerSpec:
    """Relaxed backfilling (Ward, Mahood & West; the paper's ref [10]).

    A queued job may backfill if it postpones the head's start by at
    most ``relaxation x`` the head's estimate; 0 is EASY exactly, and
    ~0.5 (the original study) recovers most of the utilisation lost to
    pessimistic estimates.  The head's anchor is planned but neither
    claimed nor announced: each candidate is tried on a cloned profile
    and kept iff the re-anchored head stays within the allowance.  A
    substrate extension: the ablations use it to show the paper's
    conclusions do not hinge on the exact non-preemptive baseline.
    """
    relaxation = float(relaxation)
    return SchedulerSpec(
        scheme_id="relaxed",
        display_name=f"RELAXED(r={relaxation:g})",
        queue=FifoOrder(),
        reservation=HeadReservation(claim_head=False, announce=False),
        backfill=RelaxedBackfill(relaxation=relaxation),
        preemption=NoPreemption(),
    )


@register("speculative", aliases=("spec",))
def _speculative(speculation_window: float = 900.0, max_kills: int = 2) -> SchedulerSpec:
    """Speculative backfilling (Perkovic & Keleher; the paper's ref [29]).

    EASY, plus: a job that cannot backfill conventionally may speculate
    into the hole before the head's reservation for a bounded **test
    run** of ``speculation_window`` seconds.  Jobs that finish inside it
    (the aborted/over-estimated ones) skip the queue; the rest are
    killed and requeued from scratch (no checkpoint), wasting at most
    window x width processor-seconds.  Unbounded gambles lose more than
    they win on realistic mixes -- most badly *estimated* jobs are not
    badly *behaved* -- so the window is what makes the scheme pay.
    ``max_kills`` bounds per-job thrash; kills never revoke a job's FIFO
    position.  Reproduces section V's argument that speculative
    backfilling's slowdown gains come from badly estimated jobs.
    """
    return SchedulerSpec(
        scheme_id="speculative",
        display_name="SPEC-BF",
        queue=FifoOrder(),
        reservation=HeadReservation(),
        backfill=SpeculativeBackfill(
            speculation_window=float(speculation_window), max_kills=int(max_kills)
        ),
        preemption=NoPreemption(),
    )


@register("gang")
def _gang(quantum: float = 600.0) -> Scheduler:
    """Gang scheduling, the classic time-driven preemptive baseline
    (section II); see :mod:`repro.schedulers.gang`."""
    return GangScheduler(quantum=float(quantum))


@register("ss")
def _ss(
    suspension_factor: float = 2.0,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> SchedulerSpec:
    """Selective Suspension (SS), the paper's contribution (section IV).

    * **No reservations.**  Guarantees mean nothing once a started job
      can be suspended, and the xfactor priority (eq. 2) rules out
      starvation by itself: a waiting job's priority grows without
      bound until it clears the SF threshold against some victim
      (IV-B).  Jobs start greedily, highest priority first.
    * **Preemption sweep** every ``preemption_interval`` seconds (60 in
      the paper): a job that does not fit suspends running jobs whose
      priority it exceeds by the factor ``suspension_factor`` (1.5, 2
      and 5 in the paper), widest first, stopping once it fits
      (``suspend_jobs_1``).
    * **Half-width rule** (``width_rule``): a fresh job may only suspend
      victims at most twice its width (IV-B).  It is waived on re-entry,
      where a narrow squatter could otherwise pin a wide job forever.
    * **Local re-entry**: a suspended job needs exactly its processors
      back, and every job on them must clear the SF threshold (IV-C,
      ``suspend_jobs_2``).

    The engine is :class:`~repro.schedulers.policy.SweepPreemption`.
    """
    sf = float(suspension_factor)
    return SchedulerSpec(
        scheme_id="ss",
        display_name=f"SS(SF={sf:g})",
        queue=SuspensionPriorityOrder(),
        reservation=NoReservations(),
        backfill=GreedyBackfill(),
        preemption=_sweep(sf, float(preemption_interval), bool(width_rule)),
    )


@register("tss")
def _tss(
    suspension_factor: float = 2.0,
    limits: CategoryLimits | Mapping[str, object] | None = None,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> SchedulerSpec:
    """Tunable Selective Suspension (TSS, section IV-E).

    SS fixes the average slowdowns but can still suspend an unlucky long
    job again and again.  TSS protects a job from further suspension
    once its xfactor exceeds ``1.5 x`` its category's average slowdown.
    *limits* is a :class:`~repro.core.tss.CategoryLimits` or its config
    mapping: **calibrated** from a prior NS run
    (:func:`~repro.core.tss.limits_from_result`, the section V
    experiments) or, by default, **online** from the jobs finished so
    far in this run -- the two readings of the paper's unstated source
    for the category average, discussed in :mod:`repro.core.tss`.
    """
    sf = float(suspension_factor)
    table = _limits(limits)
    mode = "online" if table.online else "calibrated"
    return SchedulerSpec(
        scheme_id="tss",
        display_name=f"TSS(SF={sf:g},{mode})",
        queue=SuspensionPriorityOrder(),
        reservation=NoReservations(),
        backfill=GreedyBackfill(),
        preemption=_sweep(sf, float(preemption_interval), bool(width_rule), table),
    )


@register("is")
def _is(timeslice: float = 600.0, sweep_interval: float = 60.0) -> SchedulerSpec:
    """Immediate Service (IS), the Chiang & Vernon comparator.

    Every arriving job gets an immediate timeslice (10 minutes),
    suspending the running jobs with the lowest *instantaneous xfactor*
    ``(wait + accrued run) / accrued run`` if needed.  The published
    description is a sketch; the unstated details are pinned down as
    (DESIGN.md section 3):

    * a job that has just (re)started is **protected** for the
      timeslice -- what "given a timeslice" must mean for the guarantee
      to exist;
    * on arrival, unprotected victims are suspended in ascending
      instantaneous-xfactor order until the request fits, else the job
      waits;
    * every ``sweep_interval`` seconds and at completions, waiting and
      suspended jobs may preempt unprotected victims whose
      instantaneous xfactor is *strictly below* their own; a runner's
      decays toward 1 while a waiter's grows, so every waiter
      eventually qualifies (no starvation without reservations);
    * re-entry is local: every unprotected squatter on a suspended
      job's processors must qualify as a victim.

    This reproduces what the paper reports: excellent slowdowns for
    very short jobs, severe degradation for long and very wide ones,
    and poor utilisation under load.  The engine is
    :class:`~repro.schedulers.policy.TimeslicePreemption`.
    """
    return SchedulerSpec(
        scheme_id="is",
        display_name="IS",
        queue=InstantaneousPriorityOrder(),
        reservation=NoReservations(),
        backfill=NoBackfill(),
        preemption=TimeslicePreemption(
            timeslice=float(timeslice), sweep_interval=float(sweep_interval)
        ),
    )


@register("ss-easy")
def _ss_easy(
    suspension_factor: float = 2.0,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> SchedulerSpec:
    """SS's sweep honoring an EASY head reservation (a hybrid).

    The paper leaves open how selective preemption interacts with
    start-time guarantees.  Each suspension sweep plans the queue head's
    earliest start (announced as a ``reservation`` record, like EASY's)
    and refuses to suspend victims for any other job that would still
    be running at that anchor (denial cause ``reservation_guard``).
    Greedy starts onto free processors are untouched: the guard
    constrains preemption, not admission, trading a little of SS's
    aggression for an EASY-grade guarantee that preemption churn cannot
    push back the most-delayed job's forecast start.
    """
    sf = float(suspension_factor)
    return SchedulerSpec(
        scheme_id="ss-easy",
        display_name=f"SS+EASY(SF={sf:g})",
        queue=SuspensionPriorityOrder(),
        reservation=HeadReservation(),
        backfill=GreedyBackfill(),
        preemption=_sweep(sf, float(preemption_interval), bool(width_rule)),
    )


@register("tss-conservative", aliases=("tss-cons",))
def _tss_conservative(
    suspension_factor: float = 2.0,
    limits: CategoryLimits | Mapping[str, object] | None = None,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> SchedulerSpec:
    """Conservative per-job guarantees plus TSS's sweep (a hybrid).

    Arrivals and completions anchor and compress exactly as in CONS;
    every ``preemption_interval`` the sweep additionally serves the
    queue by suspending victims under the category limits (*limits* as
    for ``tss``).  Jobs the sweep starts or suspends drop out of /
    re-enter the anchor table at the next compression (anchors are
    filtered against the live queue), so the guarantees stay
    self-consistent -- forecasts, as in CONS, not contracts.
    """
    sf = float(suspension_factor)
    table = _limits(limits)
    mode = "online" if table.online else "calibrated"
    return SchedulerSpec(
        scheme_id="tss-conservative",
        display_name=f"TSS+CONS(SF={sf:g},{mode})",
        queue=SuspensionPriorityOrder(),
        reservation=PerJobReservations(),
        backfill=GreedyBackfill(),
        preemption=_sweep(sf, float(preemption_interval), bool(width_rule), table),
    )
