"""Quiet-tick elision changes cost, never the run.

After each tick the driver parks the timer chain up to the scheduler's
``quiet_until`` bound (``sim/driver.py``, "Quiet ticks").  Every
timer-driven scheme is run twice over the same workload: as registered,
and through a test-only subclass whose ``quiet_until`` returns ``now``,
so every tick is dispatched.

Traced runs skip only empty-queue ticks; they must agree on the JSONL
decision trace byte for byte, ``events_dispatched``, the final clock,
``total_suspensions`` and the outcome fingerprint, and must see the same
ticks on a non-empty queue at the same times.  Untraced runs also skip
busy-queue ticks before the closed-form bound; they must agree on every
job's start, suspend and finish times and on the same counts.  Hand-built
cases put an SS xfactor crossing, an IS protection-window end and an IS
priority crossing on a tick of a 0.1-s grid.
"""

from __future__ import annotations

import functools
import math
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
    """*cls* logging its ticks; with ``elide=False`` it bounds nothing."""

    class Variant(cls):  # type: ignore[valid-type,misc]
        def on_timer(self) -> None:
            if self.driver.queue_length:
                self.busy_ticks.append(self.driver.now)
            else:
                self.empty_ticks += 1
            super().on_timer()

    if not elide:
        Variant.quiet_until = lambda self, now: now  # type: ignore[method-assign]
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
    """Only the policy kernel bounds its ticks; the bound is no config."""
    assert "quiet_until" in PolicyKernel.__dict__
    assert "quiet_until" not in GangScheduler.__dict__
    assert not hasattr(Scheduler, "empty_queue_tick_is_noop")
    for scheme in TIMER_SCHEMES:
        scheduler = scheduler_from_config({"scheme": scheme})
        assert not any("quiet" in key for key in scheduler.config())
        jobs = [make_job(0, submit=0.0, run=10.0, procs=1)]
        sim = SchedulingSimulation(Cluster(4), scheduler)
        sim.run(jobs)
        # the queue is empty once the run ends
        expected = math.inf if isinstance(scheduler, PolicyKernel) else sim.now
        assert scheduler.quiet_until(sim.now) == expected


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


# ----------------------------------------------------------------------
# untraced runs: busy-queue ticks are skipped up to the quiet bound
# ----------------------------------------------------------------------
#: every timer-driven scheme, with the paper's three suspension factors
BUSY_SCHEMES: dict[str, dict[str, object]] = {
    "ss-1.5": {"scheme": "ss", "suspension_factor": 1.5},
    "ss-2": {"scheme": "ss", "suspension_factor": 2.0},
    "ss-5": {"scheme": "ss", "suspension_factor": 5.0},
    "tss": {"scheme": "tss"},
    "ss-easy": {"scheme": "ss-easy"},
    "tss-conservative": {"scheme": "tss-conservative"},
    "is": {"scheme": "is"},
    "gang": {"scheme": "gang"},
}

#: schemes without a proven busy-queue bound: their busy ticks all run
UNBOUNDED = ("ss-easy", "gang")


@functools.cache
def _busy_workload(name: str) -> tuple[list[Job], int]:
    """Traces long enough that every scheme suspends jobs."""
    if name == "CTC":
        return generate_trace("CTC", n_jobs=250, seed=3), 430
    if name == "SDSC":
        return generate_trace("SDSC", n_jobs=200, seed=7), 128
    return scale_load(generate_trace("SDSC", n_jobs=200, seed=5), 2.0), 128


class _LoggingSimulation(SchedulingSimulation):
    """The driver, recording every start and suspension."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.transitions: list[tuple[str, float, int]] = []

    def start_job(self, job: Job, mask: int | None = None, via: str | None = None) -> int:
        got = super().start_job(job, mask, via)
        self.transitions.append(("start", self.now, job.job_id))
        return got

    def suspend_job(self, job: Job, preemptor: int | None = None) -> None:
        super().suspend_job(job, preemptor)
        self.transitions.append(("suspend", self.now, job.job_id))


@dataclass
class UntracedRun:
    transitions: list[tuple[str, float, int]]
    finishes: list[tuple[int, float | None]]
    events: int
    clock: float
    suspensions: int
    fingerprint: str
    busy_ticks: list[float]

    def times(self, kind: str, job_id: int) -> list[float]:
        return [t for k, t, j in self.transitions if k == kind and j == job_id]


def _run_untraced(
    config: dict[str, object], jobs: list[Job], n_procs: int, skip: bool
) -> UntracedRun:
    scheduler: Any = scheduler_from_config(config)
    scheduler.__class__ = _variant(type(scheduler), skip)
    scheduler.busy_ticks = []
    scheduler.empty_ticks = 0
    sim = _LoggingSimulation(Cluster(n_procs), scheduler)
    result = sim.run(fresh_copies(jobs))
    return UntracedRun(
        transitions=sim.transitions,
        finishes=[(j.job_id, j.finish_time) for j in result.jobs],
        events=result.events_dispatched,
        clock=sim.now,
        suspensions=result.total_suspensions,
        fingerprint=outcome_fingerprint(result.jobs),
        busy_ticks=scheduler.busy_ticks,
    )


def _assert_same_schedule(skipped: UntracedRun, full: UntracedRun) -> None:
    assert skipped.transitions == full.transitions
    assert skipped.finishes == full.finishes
    assert skipped.fingerprint == full.fingerprint
    assert skipped.events == full.events
    assert skipped.clock == full.clock
    assert skipped.suspensions == full.suspensions


@pytest.mark.parametrize("workload", ["CTC", "SDSC", "SDSC@2.0"])
@pytest.mark.parametrize("scheme", list(BUSY_SCHEMES))
def test_busy_skip_is_invisible(scheme: str, workload: str) -> None:
    jobs, n_procs = _busy_workload(workload)
    config = BUSY_SCHEMES[scheme]
    skipped = _run_untraced(config, jobs, n_procs, skip=True)
    full = _run_untraced(config, jobs, n_procs, skip=False)
    _assert_same_schedule(skipped, full)
    assert full.suspensions > 0
    if scheme in UNBOUNDED:
        assert skipped.busy_ticks == full.busy_ticks
    else:
        # the ticks that ran are a strict subset of the full chain's
        assert set(skipped.busy_ticks) < set(full.busy_ticks)


def _tick_in(interval: float, low: float, high: float) -> tuple[int, float]:
    """An inexact grid tick (see :func:`_inexact_tick`) in [low, high)."""
    for k in range(1, 10_000):
        t = _grid(interval, interval, k)
        if low <= t < high and t != interval + k * interval:
            return k, t
    raise AssertionError("no inexact grid time in range")  # pragma: no cover


def _skip_and_full(config: dict[str, object], jobs: list[Job], n_procs: int) -> UntracedRun:
    skipped = _run_untraced(config, jobs, n_procs, skip=True)
    full = _run_untraced(config, jobs, n_procs, skip=False)
    _assert_same_schedule(skipped, full)
    assert len(skipped.busy_ticks) < len(full.busy_ticks)
    return full


def test_ss_crossing_on_a_grid_tick() -> None:
    """A waiting job's xfactor reaches SF x its victim's on a tick."""
    interval = 0.1
    _, tick = _tick_in(interval, 2.0, 4.0)
    # on [2, 4) the subtraction is exact: job 1 has waited exactly 1 s
    # at the tick, so its xfactor (estimate 1 s) is exactly 2 = SF x 1
    submit = tick - 1.0
    assert tick - submit == 1.0
    config: dict[str, object] = {
        "scheme": "ss",
        "suspension_factor": 2.0,
        "preemption_interval": interval,
    }
    jobs = [
        make_job(0, submit=0.0, run=50.0, procs=4),
        make_job(1, submit=submit, run=1.0, procs=4),
    ]
    full = _skip_and_full(config, jobs, 4)
    assert full.times("suspend", 0) == [tick]
    assert full.times("start", 1) == [tick]


def test_is_protection_end_on_a_grid_tick() -> None:
    """A running job's protection window ends exactly on a tick."""
    interval = 0.1
    _, tick = _tick_in(interval, 2.0, 4.0)
    # job 0 starts at 0, so its window ends at 0 + 0 + timeslice = tick
    config: dict[str, object] = {
        "scheme": "is",
        "timeslice": tick,
        "sweep_interval": interval,
    }
    jobs = [
        make_job(0, submit=0.0, run=50.0, procs=4),
        make_job(1, submit=0.55, run=1.0, procs=4),
    ]
    full = _skip_and_full(config, jobs, 4)
    assert full.times("suspend", 0) == [tick]
    assert full.times("start", 1) == [tick]


@pytest.mark.parametrize("nudge", [0.0, 1e-6], ids=["exact", "early"])
def test_is_priority_crossing_on_a_grid_tick(nudge: float) -> None:
    """A re-entry's rising priority passes its squatter's falling one on
    a tick, after the squatter's protection window has ended.

    Four 1-processor jobs fill the machine; the wide job 4 waits from
    ``wide_submit`` until the last narrow job's window ends just before
    ``start``, then suspends all four.  Narrow job 3 (submitted last,
    so it ran least) ranks equal to job 4 once ``x**2 = ran * waited``,
    ``x`` seconds after ``start``: its submit time is solved so that
    happens at grid tick ``crossing`` (or *nudge* seconds before it).
    Priorities must differ strictly, so the exact crossing acts one tick
    later and the nudged one on the tick.
    """
    interval = 0.1
    start = _grid(interval, interval, 34)
    crossing = _grid(interval, interval, 60)
    wide_submit = 0.05
    waited = start - wide_submit
    ran = (crossing - nudge - start) ** 2 / waited
    last_submit = start - ran
    timeslice = ran - interval / 2  # job 3's window ends within the tick before start
    config: dict[str, object] = {
        "scheme": "is",
        "timeslice": timeslice,
        "sweep_interval": interval,
    }
    jobs = [
        make_job(0, submit=0.0, run=50.0, procs=1),
        make_job(1, submit=0.5, run=50.0, procs=1),
        make_job(2, submit=1.0, run=50.0, procs=1),
        make_job(3, submit=last_submit, run=50.0, procs=1),
        make_job(4, submit=wide_submit, run=50.0, procs=4),
    ]
    assert 1.0 < last_submit < timeslice  # no window ends before job 3 runs
    assert start + timeslice < crossing  # job 4's window ends first
    full = _skip_and_full(config, jobs, 4)
    assert full.times("start", 4)[0] == start
    resumed = full.times("start", 3)[1]
    assert full.times("suspend", 4)[0] == resumed
    assert resumed == (crossing + interval if nudge == 0.0 else crossing)
