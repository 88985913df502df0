"""Scheduling substrate and the scheme table.

* :mod:`repro.schedulers.base` -- the scheduler interface the simulation
  driver drives.
* :mod:`repro.schedulers.policy` -- the policy kernel: queue order,
  reservations, backfill and preemption as composable axes under one
  dispatch loop.
* :mod:`repro.schedulers.registry` -- the scheme table: one entry per
  scheme (FCFS, EASY/NS, conservative, relaxed and speculative
  backfilling, SS, TSS, IS, the hybrids, gang), its parameters and
  defaults; :func:`make_scheduler` builds any of them.
* :mod:`repro.schedulers.profiles` -- the processor-availability
  timeline the backfilling variants plan against.
* :mod:`repro.schedulers.gang` -- gang scheduling, the one scheme not
  composed on the policy kernel.
"""

from repro.schedulers.base import Scheduler
from repro.schedulers.profiles import AvailabilityProfile
from repro.schedulers.registry import make_scheduler

__all__ = [
    "AvailabilityProfile",
    "Scheduler",
    "make_scheduler",
]
