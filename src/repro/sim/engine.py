"""The single-threaded discrete-event loop.

:class:`EventLoop` owns the clock and the :class:`~repro.sim.events.EventQueue`
and repeatedly dispatches the earliest event to a registered handler.  It
knows nothing about jobs or processors; the scheduling semantics live in
:mod:`repro.sim.driver`.

Design notes
------------

* The clock never moves backwards: scheduling an event in the past raises
  immediately rather than silently reordering history.
* Handlers are registered per :class:`~repro.sim.events.EventKind`; an
  unhandled kind is an error, because a dropped event in a scheduling
  simulation silently corrupts every downstream metric.
* ``max_events``/``max_time`` guards turn runaway simulations (e.g. a
  scheduler that re-posts timers forever) into loud failures.
* A periodic ``TIMER`` chain can be *parked* (:meth:`EventLoop.park_timer`)
  instead of re-posted: the loop then counts the ticks the chain would
  have dispatched before each later event without running them, and
  :meth:`EventLoop.resume_timer` posts the next one for real.  A park
  may carry a *wake* bound, in which case the last grid tick before the
  bound is posted as a real ``TIMER`` event and ends the park when it
  fires.  The driver parks only ticks it knows to be no-ops (see
  :mod:`repro.sim.driver`), so the dispatched count, the event budget
  and every schedule are the same as with the full chain.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NoReturn

from repro.sim.events import Event, EventKind, EventQueue

Handler = Callable[[Event], None]

#: relative margin below a wake bound: the wake tick lies strictly
#: before ``wake - WAKE_MARGIN * |wake|``, so float error in a
#: closed-form bound can make the wake early, never late
WAKE_MARGIN = 1e-9


class SimulationError(RuntimeError):
    """Raised when the simulation violates one of its own invariants."""


class EventLoop:
    """Deterministic discrete-event executor.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (seconds).
    max_events:
        Hard cap on dispatched events; exceeded means a logic error
        (e.g. a timer storm) and raises :class:`SimulationError`.
    """

    def __init__(self, start_time: float = 0.0, max_events: int = 50_000_000) -> None:
        self.queue = EventQueue()
        self._now = float(start_time)
        self._handlers: dict[EventKind, Handler] = {}
        self._dispatched = 0
        self._max_events = int(max_events)
        self._stopped = False
        #: grid time of the next tick of a parked timer chain (``None``
        #: when no chain is parked) and the chain's interval
        self._parked_at: float | None = None
        self._parked_interval = 0.0
        #: the real TIMER event that ends the park (``None`` = no wake)
        self._wake: Event | None = None

    # ------------------------------------------------------------------
    # clock & bookkeeping
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far.

        Ticks of a parked timer chain count as dispatched; they are
        added when the first event after them is dispatched.
        """
        return self._dispatched

    # ------------------------------------------------------------------
    # registration & scheduling
    # ------------------------------------------------------------------
    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register *handler* for events of *kind* (one handler per kind)."""
        self._handlers[kind] = handler

    def at(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Schedule an event at absolute time *time*."""
        if time < self._now:
            raise SimulationError(
                f"attempt to schedule event at t={time} before now={self._now}"
            )
        return self.queue.schedule(time, kind, payload, epoch)

    def after(
        self,
        delay: float,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Schedule an event *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, kind, payload, epoch)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy; safe to call twice)."""
        self.queue.cancel(event)

    @property
    def timer_parked(self) -> bool:
        """Whether a timer chain is parked (see :meth:`park_timer`)."""
        return self._parked_at is not None

    def park_timer(self, time: float, interval: float, wake: float = math.inf) -> None:
        """Park a periodic ``TIMER`` chain whose next tick is due at *time*.

        Each later :meth:`step` first counts, as dispatched, every tick
        the chain would have fired before the popped event: grid times
        ``time, time + interval, ...`` (built by repeated addition,
        exactly as :meth:`after` builds them) that are earlier than the
        event, or equal to it when the event's kind dispatches after
        ``TIMER``.

        A finite *wake* bounds the park: the last grid tick strictly
        before ``wake`` less a relative :data:`WAKE_MARGIN` is posted as
        a real ``TIMER`` event, and the park ends when it fires.  The
        walk to that tick stops early at the first tick at or after the
        next queued event: an early wake only costs one real tick, and
        that event usually resumes the chain first.  The caller may park
        only ticks whose handler would change nothing -- with a wake,
        every grid tick before the bound.
        """
        if time < self._now:
            raise SimulationError(f"attempt to park a timer at t={time} before now={self._now}")
        if interval <= 0:
            raise SimulationError(f"nonpositive timer interval {interval}")
        if self._parked_at is not None:
            raise SimulationError("park_timer: a timer chain is already parked")
        self._parked_at = float(time)
        self._parked_interval = float(interval)
        if wake < math.inf:
            limit = wake - WAKE_MARGIN * abs(wake)
            horizon = self.queue.peek_time()
            if horizon is None:
                horizon = math.inf
            t = self._parked_at
            nxt = t + interval
            while nxt < limit and t < horizon:
                t = nxt
                nxt = t + interval
            self._wake = self.at(t, EventKind.TIMER)

    def resume_timer(self) -> Event:
        """Post the parked chain's next tick as a real ``TIMER`` event.

        A pending wake is cancelled: the next tick replaces it.
        """
        if self._parked_at is None:
            raise SimulationError("resume_timer: no timer chain is parked")
        time = self._parked_at
        self._unpark()
        return self.at(time, EventKind.TIMER)

    def _unpark(self) -> None:
        if self._wake is not None:
            self.queue.cancel(self._wake)
            self._wake = None
        self._parked_at = None

    def _count_parked_ticks(self, event: Event, t: float) -> None:
        """Count the parked chain's ticks from *t* on that precede *event*."""
        interval = self._parked_interval
        limit = event.time
        # a tick at the event's own time dispatches first only when the
        # event's kind sorts after TIMER; compare with <= there and < else
        # (an ordering test, never float equality)
        ties_precede = event.kind > EventKind.TIMER
        budget = self._max_events - self._dispatched
        skipped = 0
        while t < limit or (ties_precede and t <= limit):
            t += interval
            skipped += 1
            if skipped > budget:
                self._budget_exhausted()
        self._parked_at = t
        self._dispatched += skipped

    def _budget_exhausted(self) -> NoReturn:
        raise SimulationError(
            f"event budget exhausted ({self._max_events} events); "
            "likely a timer storm or a livelocked scheduler"
        )

    def stop(self) -> None:
        """Request the loop to exit after the current event.

        Calling :meth:`stop` while idle (before or between :meth:`run`
        calls) leaves a *pending* stop: the next :meth:`run` returns
        immediately without dispatching anything.  The stop is consumed
        when a :meth:`run` call honours it, so a subsequent :meth:`run`
        resumes normally.
        """
        self._stopped = True

    @property
    def stop_pending(self) -> bool:
        """Whether a :meth:`stop` request has not yet been honoured."""
        return self._stopped

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Event | None:
        """Dispatch exactly one event; return it, or ``None`` if idle."""
        if not self.queue:
            return None
        event = self.queue.pop()
        if event.time < self._now:
            raise SimulationError(
                f"event calendar yielded t={event.time} < now={self._now}"
            )
        if self._parked_at is not None:
            self._count_parked_ticks(event, self._parked_at)
            if event is self._wake:
                self._unpark()  # the wake tick runs: the chain is live
        self._now = event.time
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise SimulationError(f"no handler registered for {event.kind!r}")
        self._dispatched += 1
        if self._dispatched > self._max_events:
            self._budget_exhausted()
        handler(event)
        return event

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the calendar empties.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after this time
            (the clock is left at the last dispatched event).

        A pending :meth:`stop` (issued before this call) is honoured:
        the loop dispatches nothing and the stop is consumed.  Resetting
        the flag here instead would silently discard stops issued
        between runs -- see :meth:`stop`.
        """
        while self.queue and not self._stopped:
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            self.step()
        # consume the stop that ended (or pre-empted) this run so the
        # next run() starts fresh
        self._stopped = False
