"""Deterministic discrete-event engine.

Single-threaded loop over a (fire_at, seq) ordered queue. Equal fire
times are processed in insertion order, so a run is a pure function of
the scheduled work and the seed. Every fire time is quantized to one
microsecond, which keeps the fixed-decimal trace format an exact
round-trip of the in-memory times.
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
    """Handle for a scheduled event; permits one-shot cancellation."""

    __slots__ = ("fire_at", "action", "_state")

    _PENDING, _FIRED, _CANCELLED = 0, 1, 2

    def __init__(self, fire_at: float, action: Callable[[], None]):
        self.fire_at = fire_at
        self.action = action
        self._state = self._PENDING

    @property
    def pending(self) -> bool:
        return self._state == self._PENDING


class Engine:
    """Clock, event queue and seeded randomness for one simulation run."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        # (fire_at, seq, handle): seq is unique, so the heap orders by the
        # tuple's first two fields in C and never compares handles
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        # run after each processed event: the slot of Simulation's route
        # observer; invariant checkers go in Simulation.event_hooks instead
        self.after_event: Callable[[], None] | None = None

    def schedule(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        fire_at = quantize(fire_at)
        if fire_at < self.now:
            raise PastTimeError(f"schedule at {fire_at} before clock {self.now}")
        handle = EventHandle(fire_at, action)
        heapq.heappush(self._queue, (fire_at, self._seq, handle))
        self._seq += 1
        return handle

    def schedule_in(self, delay: float, action: Callable[[], None]) -> EventHandle:
        return self.schedule(self.now + delay, action)

    def cancel(self, handle: EventHandle) -> bool:
        """True if the event was pending and is now inert."""
        if not handle.pending:
            return False
        handle._state = EventHandle._CANCELLED
        return True

    def pending_count(self) -> int:
        return sum(1 for _, _, h in self._queue if h.pending)

    def run_until(self, t_end: float) -> int:
        """Process every event due at or before t_end; leaves the clock at t_end."""
        if t_end < self.now:
            raise PastTimeError(f"run_until({t_end}) before clock {self.now}")
        steps = 0
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            fire_at, _, handle = heapq.heappop(queue)
            if not handle.pending:
                continue
            handle._state = EventHandle._FIRED
            self.now = fire_at
            handle.action()
            steps += 1
            if self.after_event is not None:
                self.after_event()
        self.now = t_end
        return steps
