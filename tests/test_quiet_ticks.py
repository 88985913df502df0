"""Quiet-tick elision changes cost, never the run.

A scheduler that declares ``empty_queue_tick_is_noop`` lets the driver
park its timer while the queue is empty (``sim/driver.py``, "Quiet
ticks").  Every timer-driven scheme is run twice over the same
workload: as registered, and through a test-only subclass that declares
no elision, so every tick is dispatched.  The two runs must agree on the
JSONL decision trace byte for byte, ``events_dispatched``, the final
clock, ``total_suspensions`` and the outcome fingerprint, and must see
the same ticks on a non-empty queue at the same times.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.cluster.machine import Cluster
from repro.experiments.parallel import outcome_fingerprint
from repro.metrics.timeseries import StateProbe
from repro.obs.recorder import JsonlRecorder
from repro.schedulers.base import Scheduler
from repro.schedulers.gang import GangScheduler
from repro.schedulers.policy import PolicyKernel
from repro.schedulers.registry import scheduler_from_config
from repro.sim.driver import SchedulingSimulation
from repro.workload.job import Job, fresh_copies
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job

#: every registered scheme that runs a periodic timer
TIMER_SCHEMES = ("ss", "tss", "is", "ss-easy", "tss-conservative", "gang")


@functools.cache
def _workload(name: str) -> tuple[list[Job], int]:
    if name == "CTC":
        return generate_trace("CTC", n_jobs=60, seed=11), 430
    if name == "SDSC":
        return generate_trace("SDSC", n_jobs=80, seed=7), 128
    return scale_load(generate_trace("SDSC", n_jobs=100, seed=5), 2.0), 128


@functools.cache
def _variant(cls: type[Scheduler], elide: bool) -> type[Scheduler]:
    """*cls* logging its ticks; with ``elide=False`` it declares no elision."""

    class Variant(cls):  # type: ignore[valid-type,misc]
        def on_timer(self) -> None:
            if self.driver.queue_length:
                self.busy_ticks.append(self.driver.now)
            else:
                self.empty_ticks += 1
            super().on_timer()

    if not elide:
        Variant.empty_queue_tick_is_noop = False
    return Variant


@dataclass
class Run:
    trace: bytes
    events: int
    clock: float
    suspensions: int
    fingerprint: str
    busy_ticks: list[float]
    empty_ticks: int
    samples: list[Any]


def _run(
    config: dict[str, object],
    jobs: list[Job],
    n_procs: int,
    elide: bool,
    tmp_path: Path,
    probe: StateProbe | None = None,
) -> Run:
    scheduler: Any = scheduler_from_config(config)
    scheduler.__class__ = _variant(type(scheduler), elide)
    scheduler.busy_ticks = []
    scheduler.empty_ticks = 0
    path = tmp_path / f"{config['scheme']}-{elide}.jsonl"
    recorder = JsonlRecorder(str(path))
    sim = SchedulingSimulation(Cluster(n_procs), scheduler, recorder=recorder, probe=probe)
    result = sim.run(fresh_copies(jobs))
    recorder.close()
    return Run(
        trace=path.read_bytes(),
        events=result.events_dispatched,
        clock=sim.now,
        suspensions=result.total_suspensions,
        fingerprint=outcome_fingerprint(result.jobs),
        busy_ticks=scheduler.busy_ticks,
        empty_ticks=scheduler.empty_ticks,
        samples=list(probe.samples) if probe is not None else [],
    )


def _assert_same_run(elided: Run, full: Run) -> None:
    assert elided.trace == full.trace
    assert elided.events == full.events
    assert elided.clock == full.clock
    assert elided.suspensions == full.suspensions
    assert elided.fingerprint == full.fingerprint
    assert elided.busy_ticks == full.busy_ticks


def test_declarations() -> None:
    assert PolicyKernel.empty_queue_tick_is_noop
    assert not GangScheduler.empty_queue_tick_is_noop
    assert not Scheduler.empty_queue_tick_is_noop
    for scheme in TIMER_SCHEMES:
        config = scheduler_from_config({"scheme": scheme}).config()
        assert "empty_queue_tick_is_noop" not in config


@pytest.mark.parametrize("workload", ["CTC", "SDSC", "SDSC@2.0"])
@pytest.mark.parametrize("scheme", TIMER_SCHEMES)
def test_elision_is_invisible(scheme: str, workload: str, tmp_path: Path) -> None:
    jobs, n_procs = _workload(workload)
    config = {"scheme": scheme}
    elided = _run(config, jobs, n_procs, True, tmp_path)
    full = _run(config, jobs, n_procs, False, tmp_path)
    _assert_same_run(elided, full)
    assert full.empty_ticks > 0
    if scheme == "gang":
        assert elided.empty_ticks == full.empty_ticks
    else:
        # a tick posted while jobs waited can still find the queue
        # empty; it runs, then parks the chain
        assert elided.empty_ticks < full.empty_ticks


def _grid(first: float, interval: float, k: int) -> float:
    """The chain's k-th tick after *first*, built the way the loop builds it."""
    t = first
    for _ in range(k):
        t += interval
    return t


def _inexact_tick(interval: float) -> tuple[int, float]:
    """A grid index whose repeated sum differs from ``first + k * interval``."""
    for k in range(3, 1000):
        t = _grid(interval, interval, k)
        if t != interval + k * interval:
            return k, t
    raise AssertionError("no inexact grid time found")  # pragma: no cover


@pytest.mark.parametrize("scheme", ["ss", "is"])
def test_arrival_on_a_grid_tick(scheme: str, tmp_path: Path) -> None:
    """An arrival at a tick's exact time runs before that tick."""
    interval = 0.1
    k, tick = _inexact_tick(interval)
    key = "preemption_interval" if scheme == "ss" else "sweep_interval"
    config: dict[str, object] = {"scheme": scheme, key: interval}
    jobs = [
        make_job(0, submit=0.0, run=tick + 3.0, procs=4),
        make_job(1, submit=tick, run=1.0, procs=4),
    ]
    elided = _run(config, jobs, 4, True, tmp_path)
    full = _run(config, jobs, 4, False, tmp_path)
    _assert_same_run(elided, full)
    assert full.busy_ticks[0] == tick


@pytest.mark.parametrize("scheme", ["ss", "is"])
def test_last_finish_on_a_grid_tick(scheme: str, tmp_path: Path) -> None:
    """The chain ends at the tick that shares the last finish's time."""
    interval = 0.1
    k, tick = _inexact_tick(interval)
    key = "preemption_interval" if scheme == "ss" else "sweep_interval"
    config: dict[str, object] = {"scheme": scheme, key: interval}
    jobs = [make_job(0, submit=0.0, run=tick, procs=2)]
    elided = _run(config, jobs, 4, True, tmp_path)
    full = _run(config, jobs, 4, False, tmp_path)
    _assert_same_run(elided, full)
    assert full.clock == tick
    # the arrival, the finish and ticks 0..k (the last one finds no work)
    assert full.events == 2 + k + 1


@pytest.mark.parametrize("scheme", ["ss", "is"])
def test_probe_samples_unchanged(scheme: str, tmp_path: Path) -> None:
    """The timer never parks while a probe samples after every event."""
    jobs = generate_trace("SDSC", n_jobs=200, seed=7)
    config = {"scheme": scheme}
    elided = _run(config, jobs, 128, True, tmp_path, probe=StateProbe(interval=30.0))
    full = _run(config, jobs, 128, False, tmp_path, probe=StateProbe(interval=30.0))
    _assert_same_run(elided, full)
    assert elided.samples == full.samples
    assert elided.empty_ticks == full.empty_ticks > 0
