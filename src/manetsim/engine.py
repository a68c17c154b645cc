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

A time t is quantized to round(t, 6), the float nearest a whole number
of microseconds. post_all is the one routine that files an event, as an
entry (fn, args) run as fn(*args); it gets that float through integer
ticks wherever that is provably exact. quantize is the plain round(t, 6)
reference. Only an event that some code may cancel goes through
schedule, which files (action, ()) and returns an EventHandle keeping it.

after_event runs only after an event that left the watch non-empty;
Simulation sets its route observer as after_event, and the set of
changed destinations as the watch. The callables in event_hooks run
after every processed event, after after_event.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Collection, Iterable

from .errors import PastTimeError

TIME_RESOLUTION_DIGITS = 6  # microseconds
TICK = 10 ** -TIME_RESOLUTION_DIGITS
TICKS_PER_S = 10.0 ** TIME_RESOLUTION_DIGITS
HALF_EVEN = 1.5 * 2.0 ** 52    # see Engine.post_all
TICK_LIMIT = 2.0 ** 50
Entry = tuple[Callable[..., None], tuple]   # (fn, args), run as fn(*args)


def quantize(t: float) -> float:
    """round(t, 6): the microsecond grid point Engine.post_all files t under."""
    return round(t, TIME_RESOLUTION_DIGITS)


def valid_period(value: float) -> bool:
    """A repeat period is finite and at least one tick, so a chain of events
    always moves the clock forward instead of re-queueing into the bucket it
    runs in."""
    return TICK <= value < math.inf


class EventHandle:
    """The handle of a cancellable event. It keeps the event's entry, which
    holds the action, not the handle (that would be a reference cycle); the
    entry sits in its fire time's bucket until it fires or is cancelled,
    so the event is pending exactly while the bucket holds it."""

    __slots__ = ("_at", "_entry", "_bucket")

    def __init__(self, at: float, entry: Entry):
        self._at = at   # as asked; quantized only when fire_at is read
        self._entry = entry
        # _bucket is set by Engine.schedule, which queues the entry

    @property
    def fire_at(self) -> float:
        return quantize(self._at)

    @property
    def pending(self) -> bool:
        return any(queued is self._entry for queued in self._bucket)   # see cancel


class Engine:
    """Clock and event queue for one simulation run."""

    def __init__(self):
        self.now = 0.0
        # heap of the distinct fire times that have a bucket; never rebound,
        # so a reference taken once keeps seeing the live queue
        self._queue: list[float] = []
        self._buckets: dict[float, deque[Entry]] = {}
        # the slot of Simulation's route observer, its watch and the hooks
        # (see above); run_until reads all three once, as it starts
        self.after_event: Callable[[], None] | None = None
        self.watch: Collection = ()
        self.event_hooks: list[Callable[[], None]] = []

    def schedule(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        handle = EventHandle(fire_at, (action, ()))
        handle._bucket = self.post_all(((fire_at, handle._entry),))
        return handle

    def post_all(self, pairs: Iterable[tuple[float, Entry]]) -> deque | None:
        """Queue each (fire_at, entry) pair in order, without a handle, and
        return the bucket of the last one, or None for no pairs; the pairs
        before one that raises PastTimeError stay queued."""
        now, queue, buckets = self.now, self._queue, self._buckets
        bucket = None
        for fire_at, entry in pairs:
            # quantize(fire_at), exactly. x + HALF_EVEN - HALF_EVEN is x
            # rounded to an integer k, half to even, for |x| < 2**51. For
            # |x| < 2**50, x is off the exact fire_at * 10**6 by at most 1/16,
            # so |x - k| < 0.49 makes k its half-even rounding as well, and
            # k / 1e6, the correctly rounded quotient of two exact floats, is
            # round(fire_at, 6). round decides a time that rounds to 0 (-0.0
            # if negative) and the rest, NaN and the infinities included
            x = fire_at * TICKS_PER_S
            k = x + HALF_EVEN - HALF_EVEN
            if k and -0.49 < x - k < 0.49 and -TICK_LIMIT < x < TICK_LIMIT:
                fire_at = k / TICKS_PER_S
            else:
                fire_at = round(fire_at, TIME_RESOLUTION_DIGITS)
            if not fire_at >= now:     # NaN too: it would stall the queue
                raise PastTimeError(f"schedule at {fire_at} before clock {now}")
            bucket = buckets.get(fire_at)
            if bucket is None:
                bucket = buckets[fire_at] = deque()
                heapq.heappush(queue, fire_at)
            bucket.append(entry)
        return bucket

    def cancel(self, handle: EventHandle) -> bool:
        """True if the event was pending and is now dequeued."""
        # by identity: equal actions make equal entries, and one may refuse ==
        bucket = handle._bucket
        for i, queued in enumerate(bucket):
            if queued is handle._entry:
                del bucket[i]
                return True
        return False

    def run_until(self, t_end: float) -> int:
        """Process every event due at or before t_end, quantized like every
        fire time; leaves the clock there."""
        t_end = quantize(t_end)
        if not t_end >= self.now:   # NaN too: it would leave the clock NaN
            raise PastTimeError(f"run_until({t_end}) before clock {self.now}")
        steps = 0
        queue, buckets = self._queue, self._buckets
        after_event, watch, hooks = self.after_event, self.watch, self.event_hooks
        while queue and queue[0] <= t_end:
            fire_at = queue[0]
            bucket = buckets[fire_at]
            self.now = fire_at
            # popped before it runs, so an action that raises leaves the
            # rest of the bucket queued for the next run_until
            while bucket:
                fn, args = bucket.popleft()
                fn(*args)
                steps += 1
                if watch:
                    after_event()
                if hooks:   # skips making an iterator when there are none
                    for hook in hooks:
                        hook()
            heapq.heappop(queue)
            del buckets[fire_at]
        self.now = t_end
        return steps
