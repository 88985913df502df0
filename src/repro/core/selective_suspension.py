"""The Selective Suspension (SS) scheduler -- section IV.

Policy summary
--------------

* **No reservations.**  Start-time guarantees are meaningless when a
  started job can be suspended again, and the xfactor priority already
  rules out starvation: any waiting job's priority grows without bound,
  so it eventually clears the SF threshold against *some* victim
  (section IV-B).  Queued jobs simply start greedily whenever they fit
  on free processors, highest priority first.
* **Preemption sweep.**  Every ``preemption_interval`` seconds (60 s in
  the paper) the scheduler walks the idle queue in descending suspension
  priority and, for each job that does not fit, tries to assemble enough
  processors by suspending running jobs that clear the SF threshold --
  walking victims in ascending priority, then actually suspending the
  *widest* candidates first and stopping as soon as the count is met
  (the paper's ``suspend_jobs_1``).
* **Half-width rule.**  A fresh idle job may only suspend victims at
  most twice its own width, so sequential jobs cannot chip away at very
  wide jobs (section IV-B).
* **Local re-entry.**  A previously suspended job needs *exactly* its
  original processors back.  Every running job overlapping that set must
  clear the SF threshold or the resume fails this sweep; the half-width
  rule is waived here, otherwise a narrow squatter could pin a wide job
  forever (section IV-C, ``suspend_jobs_2``).

Since the policy-kernel refactor the sweep engine itself lives in
:class:`repro.schedulers.policy.SweepPreemption`; this module keeps the
scheme class as a declarative composition (suspension-priority queue,
no reservations, greedy fills, sweep preemption) plus the back-compat
accessors (`criteria`, `sweep`) that tests and benchmarks use.  The
TSS refinement (per-category preemption limits) is the same
composition with a ``limits`` table.
"""

from __future__ import annotations

from repro.core.priorities import PreemptionCriteria
from repro.schedulers.policy import (
    _CAUSE_PREFERENCE,
    GreedyBackfill,
    NoReservations,
    PolicyKernel,
    SchedulerSpec,
    SuspensionPriorityOrder,
    SweepPreemption,
    primary_denial_cause,
)

__all__ = [
    "SelectiveSuspensionScheduler",
    "primary_denial_cause",
    "_CAUSE_PREFERENCE",
]


class SelectiveSuspensionScheduler(PolicyKernel):
    """SS: xfactor-thresholded preemptive backfilling (section IV).

    Parameters
    ----------
    suspension_factor:
        The SF threshold; the paper evaluates 1.5, 2 and 5.
    preemption_interval:
        Seconds between preemption sweeps (paper: 60).
    width_rule:
        Enable the half-width restriction for fresh starts (paper: on;
        exposed for the ablation bench).
    """

    scheme_id = "ss"

    def __init__(
        self,
        suspension_factor: float = 2.0,
        preemption_interval: float = 60.0,
        width_rule: bool = True,
    ) -> None:
        engine = SweepPreemption(
            PreemptionCriteria(
                suspension_factor=suspension_factor, width_rule=width_rule
            ),
            preemption_interval=preemption_interval,
        )
        self._engine = engine
        super().__init__(self._make_spec(suspension_factor, engine))

    def _make_spec(
        self, suspension_factor: float, engine: SweepPreemption
    ) -> SchedulerSpec:
        """The SS composition (TSS overrides the id/name, reuses the rest)."""
        return SchedulerSpec(
            scheme_id="ss",
            display_name=f"SS(SF={suspension_factor:g})",
            queue=SuspensionPriorityOrder(),
            reservation=NoReservations(),
            backfill=GreedyBackfill(),
            preemption=engine,
        )

    # ------------------------------------------------------------------
    # back-compat accessors (tests, benches, calibration helpers)
    # ------------------------------------------------------------------
    @property
    def criteria(self) -> PreemptionCriteria:
        return self._engine.criteria

    def sweep(self, allow_suspension: bool) -> None:
        self._engine.sweep(allow_suspension)

    def describe(self) -> str:
        return (
            f"{self.name}, sweep every {self.timer_interval:g}s, "
            f"width rule {'on' if self.criteria.width_rule else 'off'}"
        )
