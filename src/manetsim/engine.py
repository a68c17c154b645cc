"""Deterministic discrete-event engine.

Single-threaded loop over a bucket queue: a heap of the distinct fire
times, and for each time a FIFO bucket of the events due then. Events
fire in time order and, at equal times, in the order they were queued;
an event queued for the current time joins the back of the bucket being
drained. A run is therefore a pure function of the scheduled work and
the seed. Every fire time is quantized to one microsecond, which keeps
the fixed-decimal trace format an exact round-trip of the in-memory
times, and lets the many frame deliveries due at one microsecond share
one heap entry.
"""
from __future__ import annotations

import heapq
import random
from typing import Callable

from .errors import PastTimeError

TIME_RESOLUTION_DIGITS = 6  # microseconds


def quantize(t: float) -> float:
    return round(t, TIME_RESOLUTION_DIGITS)


class EventHandle:
    """A cancellable scheduled event; calling it runs the action.

    The handle sits in its fire time's bucket until it fires or is
    cancelled, so it is pending exactly while the bucket holds it.
    """

    __slots__ = ("fire_at", "action", "_bucket")

    def __init__(self, fire_at: float, action: Callable[[], None], bucket: list):
        self.fire_at = fire_at
        self.action = action
        self._bucket = bucket

    def __call__(self) -> None:
        self.action()

    @property
    def pending(self) -> bool:
        return self in self._bucket


class Engine:
    """Clock, event queue and seeded randomness for one simulation run."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        # heap of the distinct fire times that have a bucket; never rebound,
        # so a reference taken once keeps seeing the live queue
        self._queue: list[float] = []
        self._buckets: dict[float, list[Callable[[], None]]] = {}
        # run after each processed event: the slot of Simulation's route
        # observer; invariant checkers go in Simulation.event_hooks instead
        self.after_event: Callable[[], None] | None = None

    def _bucket_at(self, fire_at: float) -> list[Callable[[], None]]:
        if fire_at < self.now:
            raise PastTimeError(f"schedule at {fire_at} before clock {self.now}")
        bucket = self._buckets.get(fire_at)
        if bucket is None:
            bucket = self._buckets[fire_at] = []
            heapq.heappush(self._queue, fire_at)
        return bucket

    def schedule(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        fire_at = quantize(fire_at)
        bucket = self._bucket_at(fire_at)
        handle = EventHandle(fire_at, action, bucket)
        bucket.append(handle)
        return handle

    def post(self, fire_at: float, action: Callable[[], None]) -> None:
        """Queue an event that is never cancelled, without a handle."""
        self._bucket_at(quantize(fire_at)).append(action)

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
        """Process every event due at or before t_end; leaves the clock at t_end."""
        if t_end < self.now:
            raise PastTimeError(f"run_until({t_end}) before clock {self.now}")
        steps = 0
        queue, buckets = self._queue, self._buckets
        while queue and queue[0] <= t_end:
            fire_at = queue[0]
            bucket = buckets[fire_at]
            self.now = fire_at
            # popped before it runs, so an action that raises leaves the
            # rest of the bucket queued for the next run_until
            while bucket:
                bucket.pop(0)()
                steps += 1
                if self.after_event is not None:
                    self.after_event()
            heapq.heappop(queue)
            del buckets[fire_at]
        self.now = t_end
        return steps
