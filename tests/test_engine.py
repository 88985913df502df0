"""Event loop: dispatch, clock monotonicity, guards."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventLoop, SimulationError
from repro.sim.events import EventKind


def collecting_loop():
    loop = EventLoop()
    seen: list[tuple[float, object]] = []
    loop.on(EventKind.GENERIC, lambda ev: seen.append((ev.time, ev.payload)))
    return loop, seen


def test_run_dispatches_in_order():
    loop, seen = collecting_loop()
    for t in (3.0, 1.0, 2.0):
        loop.at(t, EventKind.GENERIC, t)
    loop.run()
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert loop.now == 3.0


def test_after_schedules_relative():
    loop, seen = collecting_loop()
    loop.after(5.0, EventKind.GENERIC, "x")
    loop.run()
    assert seen == [(5.0, "x")]


def test_scheduling_in_past_raises():
    loop, _ = collecting_loop()
    loop.at(10.0, EventKind.GENERIC)
    loop.run()
    with pytest.raises(SimulationError):
        loop.at(5.0, EventKind.GENERIC)


def test_negative_delay_raises():
    loop, _ = collecting_loop()
    with pytest.raises(SimulationError):
        loop.after(-1.0, EventKind.GENERIC)


def test_unhandled_kind_raises():
    loop = EventLoop()
    loop.at(1.0, EventKind.TIMER)
    with pytest.raises(SimulationError, match="no handler"):
        loop.run()


def test_handler_may_schedule_more_events():
    loop = EventLoop()
    seen: list[float] = []

    def handler(ev):
        seen.append(ev.time)
        if ev.time < 3.0:
            loop.after(1.0, EventKind.GENERIC)

    loop.on(EventKind.GENERIC, handler)
    loop.at(1.0, EventKind.GENERIC)
    loop.run()
    assert seen == [1.0, 2.0, 3.0]


def test_max_events_guard_trips():
    loop = EventLoop(max_events=10)
    loop.on(EventKind.GENERIC, lambda ev: loop.after(1.0, EventKind.GENERIC))
    loop.at(0.0, EventKind.GENERIC)
    with pytest.raises(SimulationError, match="budget"):
        loop.run()


def test_run_until_stops_before_later_events():
    loop, seen = collecting_loop()
    loop.at(1.0, EventKind.GENERIC, "a")
    loop.at(10.0, EventKind.GENERIC, "b")
    loop.run(until=5.0)
    assert [p for _, p in seen] == ["a"]
    loop.run()  # resumes
    assert [p for _, p in seen] == ["a", "b"]


def test_stop_exits_loop():
    loop = EventLoop()
    seen = []

    def handler(ev):
        seen.append(ev.payload)
        loop.stop()

    loop.on(EventKind.GENERIC, handler)
    loop.at(1.0, EventKind.GENERIC, "a")
    loop.at(2.0, EventKind.GENERIC, "b")
    loop.run()
    assert seen == ["a"]


def test_stop_before_run_is_honoured():
    """A stop issued while idle must pre-empt the next run().

    Regression: run() used to reset ``_stopped = False`` on entry,
    silently discarding any stop requested between runs.
    """
    loop, seen = collecting_loop()
    loop.at(1.0, EventKind.GENERIC, "a")
    loop.stop()
    assert loop.stop_pending
    loop.run()
    assert seen == []  # nothing dispatched: the pending stop won
    assert not loop.stop_pending  # ... and was consumed
    loop.run()  # next run resumes normally
    assert [p for _, p in seen] == ["a"]


def test_stop_during_run_consumed_for_next_run():
    """The in-handler ordering: stop mid-run ends that run only."""
    loop = EventLoop()
    seen: list[object] = []

    def handler(ev):
        seen.append(ev.payload)
        if ev.payload == "a":
            loop.stop()

    loop.on(EventKind.GENERIC, handler)
    loop.at(1.0, EventKind.GENERIC, "a")
    loop.at(2.0, EventKind.GENERIC, "b")
    loop.run()
    assert seen == ["a"]
    assert not loop.stop_pending
    loop.run()  # stop was consumed; remaining events dispatch
    assert seen == ["a", "b"]


def test_step_returns_none_when_idle():
    loop, _ = collecting_loop()
    assert loop.step() is None


def test_dispatched_counter():
    loop, _ = collecting_loop()
    for t in range(5):
        loop.at(float(t), EventKind.GENERIC)
    loop.run()
    assert loop.dispatched == 5


def test_cancel_through_loop():
    loop, seen = collecting_loop()
    ev = loop.at(1.0, EventKind.GENERIC, "dead")
    loop.at(2.0, EventKind.GENERIC, "live")
    loop.cancel(ev)
    loop.run()
    assert [p for _, p in seen] == ["live"]


def test_simultaneous_kinds_priority_order():
    loop = EventLoop()
    order: list[str] = []
    loop.on(EventKind.JOB_FINISH, lambda ev: order.append("finish"))
    loop.on(EventKind.JOB_ARRIVAL, lambda ev: order.append("arrival"))
    loop.on(EventKind.TIMER, lambda ev: order.append("timer"))
    loop.at(1.0, EventKind.TIMER)
    loop.at(1.0, EventKind.JOB_ARRIVAL)
    loop.at(1.0, EventKind.JOB_FINISH)
    loop.run()
    assert order == ["finish", "arrival", "timer"]


def test_start_time_offset():
    loop = EventLoop(start_time=100.0)
    assert loop.now == 100.0
    with pytest.raises(SimulationError):
        loop.at(50.0, EventKind.GENERIC)


# ----------------------------------------------------------------------
# parked timer chains
# ----------------------------------------------------------------------
def _parked_loop(kind: EventKind, at: float) -> tuple[EventLoop, list[float]]:
    """A loop with a chain parked at 10, 20, ... and one *kind* event at *at*."""
    loop = EventLoop()
    ticks: list[float] = []
    loop.on(EventKind.TIMER, lambda ev: ticks.append(ev.time))
    loop.on(kind, lambda ev: loop.resume_timer())
    loop.park_timer(10.0, 10.0)
    loop.at(at, kind)
    return loop, ticks


def test_parked_ticks_count_as_dispatched():
    loop, ticks = _parked_loop(EventKind.JOB_ARRIVAL, 35.0)
    loop.run()
    # ticks at 10, 20 and 30 were skipped, the one at 40 was posted
    assert ticks == [40.0]
    assert loop.dispatched == 3 + 1 + 1
    assert loop.now == 40.0


def test_parked_tick_tie_with_earlier_kind_stays_pending():
    # a finish at a grid time dispatches before that time's tick
    loop, ticks = _parked_loop(EventKind.JOB_FINISH, 30.0)
    loop.run()
    assert ticks == [30.0]
    assert loop.dispatched == 2 + 1 + 1


def test_parked_tick_tie_with_later_kind_is_skipped():
    # a tick at a grid time dispatches before that time's generic event
    loop, ticks = _parked_loop(EventKind.GENERIC, 30.0)
    loop.run()
    assert ticks == [40.0]
    assert loop.dispatched == 3 + 1 + 1


def test_parked_ticks_respect_event_budget():
    loop = EventLoop(max_events=5)
    loop.on(EventKind.GENERIC, lambda ev: None)
    loop.park_timer(1.0, 1.0)
    loop.at(100.0, EventKind.GENERIC)
    with pytest.raises(SimulationError, match="event budget"):
        loop.run()


def test_park_and_resume_guards():
    loop = EventLoop(start_time=5.0)
    with pytest.raises(SimulationError):
        loop.park_timer(4.0, 1.0)
    with pytest.raises(SimulationError):
        loop.park_timer(6.0, 0.0)
    with pytest.raises(SimulationError):
        loop.resume_timer()
