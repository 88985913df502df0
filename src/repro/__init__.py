"""repro -- Selective Preemption Strategies for Parallel Job Scheduling.

A from-scratch reproduction of Kettimuthu, Subramani, Srinivasan,
Gopalsamy, Panda & Sadayappan (ICPP 2002 / IJHPCN): a trace-driven
simulator for parallel job scheduling with

* classic non-preemptive substrate policies (FCFS, conservative
  backfilling, EASY/aggressive backfilling -- the paper's **NS**),
* the **Immediate Service** preemptive comparator, and
* the paper's contribution: **Selective Suspension (SS)** and **Tunable
  Selective Suspension (TSS)**,

plus calibrated synthetic CTC/SDSC/KTH workloads, SWF trace I/O, a
suspension-overhead model, and the paper's full metric suite.

Quickstart
----------

>>> from repro import make_scheduler, simulate, generate_trace
>>> jobs = generate_trace("CTC", n_jobs=500, seed=1)
>>> result = simulate(jobs, make_scheduler("ss", suspension_factor=2.0),
...                   n_procs=430)
>>> round(result.utilization, 2) > 0
True
"""

from repro.cluster import Cluster
from repro.core import DiskSwapOverheadModel, limits_from_result
from repro.experiments.runner import simulate
from repro.metrics import bounded_slowdown, overall_stats, per_category_stats
from repro.schedulers import make_scheduler
from repro.sim import SchedulingSimulation, SimulationResult
from repro.workload import Job, generate_trace, read_swf, scale_load

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DiskSwapOverheadModel",
    "Job",
    "SchedulingSimulation",
    "SimulationResult",
    "bounded_slowdown",
    "generate_trace",
    "limits_from_result",
    "make_scheduler",
    "overall_stats",
    "per_category_stats",
    "read_swf",
    "scale_load",
    "simulate",
    "__version__",
]
