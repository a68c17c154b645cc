"""Deterministic discrete-event engine.

Single-threaded loop over a bucket queue: a heap of the distinct fire
times, and for each time a FIFO bucket (a deque, drained with popleft)
of the events due then. Events fire in time order and, at equal times,
in the order they were queued; an event queued for the current time
joins the back of the bucket being drained. The engine draws no random
numbers, so a run is a pure function of the scheduled work. Every fire
time, and the clock where run_until leaves it, is quantized to one
microsecond, which keeps the fixed-decimal trace format an exact
round-trip of the in-memory times, lets the many frame deliveries due
at one microsecond share one heap entry, and lets a zero delay be
scheduled between runs.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable

from .errors import PastTimeError

TIME_RESOLUTION_DIGITS = 6  # microseconds
TICK = 10 ** -TIME_RESOLUTION_DIGITS


def quantize(t: float) -> float:
    return round(t, TIME_RESOLUTION_DIGITS)


def valid_period(value: float) -> bool:
    """A repeat period is finite and at least one tick, so a chain of events
    always moves the clock forward instead of re-queueing into the bucket it
    runs in."""
    return TICK <= value < math.inf


class EventHandle:
    """A cancellable scheduled event; calling it runs the action.

    The handle sits in its fire time's bucket until it fires or is
    cancelled, so it is pending exactly while the bucket holds it.
    """

    __slots__ = ("_at", "action", "_bucket")

    def __init__(self, at: float, action: Callable[[], None]):
        self._at = at   # as asked; quantized only when fire_at is read
        self.action = action
        # _bucket is set by Engine.schedule, which queues the handle

    def __call__(self) -> None:
        self.action()

    @property
    def fire_at(self) -> float:
        return quantize(self._at)

    @property
    def pending(self) -> bool:
        return self in self._bucket


class Engine:
    """Clock and event queue for one simulation run."""

    def __init__(self):
        self.now = 0.0
        # heap of the distinct fire times that have a bucket; never rebound,
        # so a reference taken once keeps seeing the live queue
        self._queue: list[float] = []
        self._buckets: dict[float, deque[Callable[[], None]]] = {}
        # run after each processed event: the slot of Simulation's route
        # observer; invariant checkers go in Simulation.event_hooks instead.
        # run_until reads it once, as it starts
        self.after_event: Callable[[], None] | None = None

    def schedule(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        handle = EventHandle(fire_at, action)
        handle._bucket = self.post(fire_at, handle)
        return handle

    def post(self, fire_at: float, action: Callable[[], None]) -> deque:
        """Queue an event that is never cancelled, without a handle, and
        return its bucket; the hot path of frame delivery."""
        fire_at = quantize(fire_at)
        if fire_at < self.now:
            raise PastTimeError(f"schedule at {fire_at} before clock {self.now}")
        bucket = self._buckets.get(fire_at)
        if bucket is None:
            bucket = self._buckets[fire_at] = deque()
            heapq.heappush(self._queue, fire_at)
        bucket.append(action)
        return bucket

    def schedule_in(self, delay: float, action: Callable[[], None]) -> EventHandle:
        return self.schedule(self.now + delay, action)

    def cancel(self, handle: EventHandle) -> bool:
        """True if the event was pending and is now dequeued."""
        try:
            handle._bucket.remove(handle)
        except ValueError:
            return False
        return True

    def pending_count(self) -> int:
        return sum(map(len, self._buckets.values()))

    def run_until(self, t_end: float) -> int:
        """Process every event due at or before t_end, quantized like every
        fire time; leaves the clock there."""
        t_end = quantize(t_end)
        if t_end < self.now:
            raise PastTimeError(f"run_until({t_end}) before clock {self.now}")
        steps = 0
        queue, buckets = self._queue, self._buckets
        after_event = self.after_event
        while queue and queue[0] <= t_end:
            fire_at = queue[0]
            bucket = buckets[fire_at]
            self.now = fire_at
            # popped before it runs, so an action that raises leaves the
            # rest of the bucket queued for the next run_until
            while bucket:
                bucket.popleft()()
                steps += 1
                if after_event is not None:
                    after_event()
            heapq.heappop(queue)
            del buckets[fire_at]
        self.now = t_end
        return steps
