"""Discrete-event simulation clock.

Control-plane operations run in simulated time so that "a 48-hour restore"
is a model output rather than a wall-clock wait. The clock supports both
styles used in the codebase: sequential workflows call :meth:`advance`
with computed durations, and background processes (continuous backup,
failure injection, weekly patches) register callbacks with
:meth:`schedule` / :meth:`schedule_repeating` which fire as time passes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class ScheduledEvent:
    """One pending callback, ordered by firing time."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class SimClock:
    """Simulated seconds since the simulation started."""

    def __init__(self, start: float = 0.0):
        self._now = start
        self._queue: list[ScheduledEvent] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        event = ScheduledEvent(self._now + delay, next(self._sequence), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_repeating(
        self, interval: float, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Run *callback* every *interval* seconds until cancelled.

        Returns the handle of the *first* occurrence; cancelling it stops
        the whole series.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        series = ScheduledEvent(self._now + interval, next(self._sequence), lambda: None)

        def fire() -> None:
            if series.cancelled:
                return
            callback()
            if not series.cancelled:
                event = self.schedule(interval, fire)
                series.time = event.time  # keep the handle's time current

        series.callback = fire
        heapq.heappush(self._queue, series)
        return series

    def advance(self, duration: float) -> None:
        """Move time forward, firing any events that come due on the way."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.run_until(self._now + duration)

    def run_until(self, deadline: float) -> None:
        """Fire events in order up to *deadline*, then set now = deadline."""
        if deadline < self._now:
            raise ValueError(
                f"cannot run backwards: now={self._now}, deadline={deadline}"
            )
        while self._queue and self._queue[0].time <= deadline:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = max(self._now, event.time)
            event.callback()
        self._now = deadline
