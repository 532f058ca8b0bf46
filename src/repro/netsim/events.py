"""A small discrete-event simulation core.

:class:`Simulator` provides a shared clock and an event queue for processes
that schedule one another (a DNS lookup, a connection, a stream); times are
absolute simulation seconds.

The design is intentionally minimal: events are ``(time, sequence, callback)``
triples popped in time order.  Callbacks may schedule further events.  The
sequence number keeps ordering stable for simultaneous events, so a model
built on it stays deterministic.  The fetch engine (:mod:`repro.httpsim.engine`)
does not use it: a page load's causal order is fixed by the page's fetch
plan, so the engine issues requests in one flat pass instead of events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import SimulationError

EventCallback = Callable[[], None]


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry; ordering is by (time, sequence)."""

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable to cancel."""

    def __init__(self, event: _ScheduledEvent, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Scheduled firing time (seconds)."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; a no-op after it fired)."""
        if not self._event.cancelled:
            self._event.cancelled = True
            # Events that already ran were removed from the pending count at
            # execution time; only a live cancellation decrements it.
            if not self._event.executed:
                self._simulator._pending -= 1


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._pending = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue.

        Maintained as a live counter (incremented on schedule, decremented on
        cancellation and execution) so the query is O(1) instead of a queue
        sweep.
        """
        return self._pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: EventCallback, label: str = "") -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative delay in seconds.
            callback: zero-argument callable run when the event fires.
            label: optional human-readable label (used in error messages).

        Returns:
            An :class:`EventHandle` that can cancel the event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {label!r} in the past (delay={delay})")
        event = _ScheduledEvent(self._now + delay, next(self._sequence), callback, label=label)
        heapq.heappush(self._queue, event)
        self._pending += 1
        return EventHandle(event, self)

    def schedule_at(self, time: float, callback: EventCallback, label: str = "") -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time - self._now, callback, label=label)

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Args:
            until: optional absolute time bound; events after it stay queued.
            max_events: safety valve against runaway simulations.

        Returns:
            The simulation time when the run stopped.
        """
        executed = 0
        while self._queue:
            event = self._queue[0]
            if until is not None and event.time > until:
                self._now = until
                return self._now
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            # Check the budget before executing so that exactly ``max_events``
            # events may run: the previous post-increment check let
            # ``max_events + 1`` through before raising.
            if executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}; likely an event loop")
            heapq.heappop(self._queue)
            if event.time < self._now - 1e-12:
                raise SimulationError(
                    f"event {event.label!r} scheduled at {event.time} is before now={self._now}"
                )
            self._now = max(self._now, event.time)
            self._pending -= 1
            event.executed = True
            event.callback()
            self._processed += 1
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def advance(self, delay: float) -> float:
        """Advance the clock by ``delay`` seconds, running due events."""
        if delay < 0:
            raise SimulationError("cannot advance the clock backwards")
        return self.run(until=self._now + delay)
