"""Wrappers that measure the repo's layers from outside.

:class:`Probes` installs span wrappers (see :mod:`spans`) on the public
functions and methods of each layer and restores the originals on
:meth:`Probes.uninstall`.  Nothing in ``src/`` changes: the wrappers are
set as class or module attributes, so they only see calls that look the
target up at call time (method calls, and module globals read inside
the repo's own functions).

Two groups exist because pool workers are forked from the coordinator
and would inherit every wrapper: ``COORDINATOR`` wraps only what runs in
the coordinator (executor, cache, shm, metrics), ``ALL`` adds the
simulator, policy kernel and cluster for in-process passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from spans import SpanRecorder

from repro.cluster.machine import Cluster
from repro.experiments import cache as cache_mod
from repro.experiments import parallel
from repro.experiments.shm import WorkloadPlane
from repro.metrics import aggregate
from repro.schedulers import policy
from repro.sim.driver import SchedulingSimulation
from repro.sim.engine import EventLoop
from repro.sim.events import EventKind

COORDINATOR = "coordinator"
ALL = "all"

#: (owner, attribute, span name, layer group) -- classes are wrapped
#: together with every subclass that overrides the attribute
TARGETS: tuple[tuple[Any, str, str, str], ...] = (
    (parallel, "run_grid", "experiments.run_grid", COORDINATOR),
    (parallel, "cell_fingerprint", "experiments.fingerprint", COORDINATOR),
    (parallel, "fingerprint_jobs", "experiments.fingerprint", COORDINATOR),
    (cache_mod.ResultCache, "get", "experiments.cache.get", COORDINATOR),
    (cache_mod.ResultCache, "put", "experiments.cache.put", COORDINATOR),
    (WorkloadPlane, "publish", "experiments.shm.publish", COORDINATOR),
    (aggregate, "per_category_stats", "metrics.per_category_stats", COORDINATOR),
    (SchedulingSimulation, "run", "sim.run", ALL),
    (SchedulingSimulation, "start_job", "sim.start_job", ALL),
    (SchedulingSimulation, "suspend_job", "sim.suspend_job", ALL),
    (SchedulingSimulation, "running_jobs", "sim.running_jobs", ALL),
    (policy.PolicyKernel, "on_arrival", "policy.on_arrival", ALL),
    (policy.PolicyKernel, "on_finish", "policy.on_finish", ALL),
    (policy.PolicyKernel, "on_timer", "policy.on_timer", ALL),
    (policy.PreemptionPolicy, "service_pass", "policy.service_pass", ALL),
    (policy.ReservationPolicy, "plan_head", "policy.plan_head", ALL),
    (policy.BackfillPolicy, "fill", "policy.fill", ALL),
    (Cluster, "allocate", "cluster.allocate", ALL),
    (Cluster, "allocate_specific", "cluster.allocate_specific", ALL),
    (Cluster, "allocate_mask", "cluster.allocate_mask", ALL),
    (Cluster, "release", "cluster.release", ALL),
    (Cluster, "owners_overlapping", "cluster.owners_overlapping", ALL),
    (Cluster, "owners_in_mask", "cluster.owners_in_mask", ALL),
)


@dataclass
class TickCounts:
    """Timer-tick accounting: what the engine dispatched, what changed."""

    #: TIMER events the event loop dispatched
    timer_events: int = 0
    #: ticks delivered to ``on_timer`` that found the queue empty
    empty_queue: int = 0
    #: delivered ticks after which queue length, running count or the
    #: suspension total differed
    useful: int = 0


def _owners(owner: Any, attr: str) -> list[Any]:
    """*owner* itself, or the class and each subclass defining *attr*."""
    if not isinstance(owner, type):
        return [owner]
    found, todo = [], [owner]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Probes:
    """Installs and removes the layer wrappers around one traced pass."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.ticks = TickCounts()
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, group: str) -> None:
        if self._saved:
            raise RuntimeError("probes already installed")
        for owner, attr, name, target_group in TARGETS:
            if group == COORDINATOR and target_group != COORDINATOR:
                continue
            for cls in _owners(owner, attr):
                fn = cls.__dict__[attr] if isinstance(cls, type) else getattr(cls, attr)
                self._patch(cls, attr, self.recorder.wrap(fn, name))
        if group == ALL:
            self._count_ticks()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count_ticks(self) -> None:
        ticks = self.ticks
        step: Callable[[EventLoop], Any] = EventLoop.__dict__["step"]
        timer = EventKind.TIMER

        def counted_step(loop: EventLoop) -> Any:
            event = step(loop)
            if event is not None and event.kind is timer:
                ticks.timer_events += 1
            return event

        self._patch(EventLoop, "step", counted_step)
        for cls in _owners(policy.PolicyKernel, "on_timer"):
            on_timer = cls.__dict__["on_timer"]

            def counted_timer(kernel: Any, _on_timer: Any = on_timer) -> None:
                driver = kernel.driver
                before = (driver.queue_length, driver.running_count, driver.total_suspensions)
                _on_timer(kernel)
                if before[0] == 0:
                    ticks.empty_queue += 1
                after = (driver.queue_length, driver.running_count, driver.total_suspensions)
                if after != before:
                    ticks.useful += 1

            self._patch(cls, "on_timer", counted_timer)


class CountingRecorder:
    """An enabled trace recorder that keeps nothing.

    Turning tracing on makes the driver fill
    :class:`~repro.obs.counters.TraceCounters`; the events themselves
    are dropped.
    """

    enabled = True

    def record(self, event: Any) -> None:
        pass

    def close(self) -> None:
        pass
