"""The paper's contribution: selective preemption schemes.

* :mod:`repro.core.priorities` -- suspension-priority functions (the
  xfactor of eq. 2, the IS scheme's instantaneous xfactor) and the
  :class:`~repro.core.priorities.PreemptionCriteria` threshold logic.
* :mod:`repro.core.tss` -- the per-category preemption limits of
  **TSS** (section IV-E): 1.5x the category's average slowdown,
  calibrated or online.
* :mod:`repro.core.overhead` -- the disk-swap suspension-overhead model
  (section V-A).

The schemes themselves -- **SS** (section IV), **TSS** and the **IS**
comparator (Chiang & Vernon) -- are entries of the scheme table
(:mod:`repro.schedulers.registry`), built with :func:`make_scheduler`
(``make_scheduler("ss", suspension_factor=2.0)``); their engines live in
:mod:`repro.schedulers.policy`.
"""

from repro.core.priorities import PreemptionCriteria, suspension_priority
from repro.core.overhead import DiskSwapOverheadModel, FixedOverheadModel
from repro.core.tss import CategoryLimits, limits_from_result
from repro.schedulers.registry import make_scheduler

__all__ = [
    "CategoryLimits",
    "DiskSwapOverheadModel",
    "FixedOverheadModel",
    "PreemptionCriteria",
    "limits_from_result",
    "make_scheduler",
    "suspension_priority",
]
