"""Deterministic discrete-event engine.

Single-threaded loop over a bucket queue: a heap of the distinct fire
times, and for each time a FIFO bucket (a list, drained by one for loop
over its iterator) of the events due then. Events fire in time order
and, at equal times, in the order they were queued; an event queued for
the current time joins the back of the bucket being drained, and the
loop reaches it. The engine draws no random numbers, so a run is a
pure function of the scheduled work. Every fire
time, and the clock where run_until leaves it, is quantized to one
microsecond, which keeps the fixed-decimal trace format an exact
round-trip of the in-memory times, lets the many frame deliveries due
at one microsecond share one heap entry, and lets a zero delay be
scheduled between runs.

A time t is quantized to round(t, 6), the float nearest a whole number
of microseconds. An event is filed as an entry (fn, args), run as
fn(*args). post_all files timers, drains and emissions; it gets that
float through integer ticks wherever that is provably exact. World files
its frames itself, with the same arithmetic written out, straight into
_buckets and _queue. quantize is the plain round(t, 6) reference. Only
an event that some code may cancel goes through schedule, which files
(action, ()) and returns the Handle (bucket, entry) that cancel takes.
pending yields every queued entry.

The entries of the bucket being drained stay in its list until the
whole bucket has run, so the engine keeps (bucket, iterator) of that
bucket: its first len(bucket) - length_hint(iterator) entries already
ran, and cancel and pending skip them. A drained bucket is cleared, and
an action that raises leaves exactly the entries after it queued. A
run_until called from inside an event raises RuntimeError.

after_event runs only after an event that left the watch non-empty;
Simulation sets its route observer as after_event, and the set of
changed destinations as the watch. The callables in event_hooks run
after every processed event, after after_event.
"""
from __future__ import annotations

import heapq
import math
from itertools import chain, islice
from operator import length_hint
from typing import Callable, Collection, Iterable, Iterator

from .errors import PastTimeError

TIME_RESOLUTION_DIGITS = 6  # microseconds
TICK = 10 ** -TIME_RESOLUTION_DIGITS
TICKS_PER_S = 10.0 ** TIME_RESOLUTION_DIGITS
HALF_EVEN = 1.5 * 2.0 ** 52    # see Engine.post_all
TICK_LIMIT = 2.0 ** 50
Entry = tuple[Callable[..., None], tuple]   # (fn, args), run as fn(*args)
# (bucket, entry) of a cancellable event: the entry sits in its fire time's
# bucket list until it is cancelled or its bucket is drained, and the event
# is pending while the bucket holds it ahead of the drain's cursor. The
# entry holds the action, never the handle, so there is no reference cycle
Handle = tuple[list, Entry]


def quantize(t: float) -> float:
    """round(t, 6): the microsecond grid point Engine.post_all files t under."""
    return round(t, TIME_RESOLUTION_DIGITS)


def valid_period(value: float) -> bool:
    """A repeat period is finite and at least one tick, so a chain of events
    always moves the clock forward instead of re-queueing into the bucket it
    runs in."""
    return TICK <= value < math.inf


class Engine:
    """Clock and event queue for one simulation run."""

    def __init__(self):
        self.now = 0.0
        # heap of the distinct fire times that have a bucket; never rebound,
        # so a reference taken once keeps seeing the live queue
        self._queue: list[float] = []
        self._buckets: dict[float, list[Entry]] = {}
        # (bucket, iterator) of the bucket run_until is draining, else None
        self._draining: tuple[list[Entry], Iterator[Entry]] | None = None
        # the slot of Simulation's route observer, its watch and the hooks
        # (see above); run_until reads all three once, as it starts
        self.after_event: Callable[[], None] | None = None
        self.watch: Collection = ()
        self.event_hooks: list[Callable[[], None]] = []

    def schedule(self, fire_at: float, action: Callable[[], None]) -> Handle:
        entry = (action, ())
        return self.post_all(((fire_at, entry),)), entry

    def post_all(self, pairs: Iterable[tuple[float, Entry]]) -> list[Entry] | None:
        """Queue each (fire_at, entry) pair in order, without a handle, and
        return the bucket of the last one, or None for no pairs; the pairs
        before one that raises PastTimeError stay queued."""
        now, queue, buckets = self.now, self._queue, self._buckets
        ticks_per_s, half_even, tick_limit = TICKS_PER_S, HALF_EVEN, TICK_LIMIT
        bucket = None
        for fire_at, entry in pairs:
            # quantize(fire_at), exactly. For 0 < x < 2**50, k = x + HALF_EVEN
            # - HALF_EVEN is x rounded to an integer, and r = x - k is exact.
            # r is a multiple of ulp(x), so |r| < 0.5 gives |r| <= 0.5 -
            # ulp(x); x is off the exact fire_at * 10**6 by at most ulp(x) /
            # 2, which cannot carry it past the tie, so k is its rounding
            # too, and k / 1e6, the correctly rounded quotient of two exact
            # floats, is round(fire_at, 6). The square test asks |r| < 0.49,
            # inside that. round decides the rest: 0.0 and -0.0, negative
            # times, NaN and the infinities
            x = fire_at * ticks_per_s
            k = x + half_even - half_even
            r = x - k
            if 0.0 < x < tick_limit and r * r < 0.2401:
                fire_at = k / ticks_per_s
            else:
                fire_at = round(fire_at, TIME_RESOLUTION_DIGITS)
            if not fire_at >= now:     # NaN too: it would stall the queue
                raise PastTimeError(f"schedule at {fire_at} before clock {now}")
            bucket = buckets.get(fire_at)
            if bucket is None:
                bucket = buckets[fire_at] = []
                heapq.heappush(queue, fire_at)
            bucket.append(entry)
        return bucket

    def _ran(self, bucket: list[Entry]) -> int:
        """How many entries at the front of bucket already ran: those before
        the cursor if it is the bucket being drained, else none."""
        if self._draining is None or self._draining[0] is not bucket:
            return 0
        return len(bucket) - length_hint(self._draining[1])

    def pending(self) -> Iterator[Entry]:
        """Every queued entry (fn, args), bucket by bucket in no set order."""
        return chain.from_iterable(islice(bucket, self._ran(bucket), None)
                                   for bucket in self._buckets.values())

    def cancel(self, handle: Handle) -> bool:
        """True if the event was pending and is now dequeued."""
        bucket, entry = handle
        # by identity: equal actions make equal entries, and one may refuse ==
        for i in range(self._ran(bucket), len(bucket)):
            if bucket[i] is entry:
                del bucket[i]   # at or past the cursor, so the drain skips nothing
                return True
        return False

    def run_until(self, t_end: float) -> int:
        """Process every event due at or before t_end, quantized like every
        fire time; leaves the clock there."""
        if self._draining is not None:
            raise RuntimeError("run_until called from inside an event")
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
            # the loop also runs the entries appended to the bucket as it drains
            it = iter(bucket)
            self._draining = bucket, it
            try:
                for fn, args in it:
                    fn(*args)
                    if watch:
                        after_event()
                    if hooks:   # skips making an iterator when there are none
                        for hook in hooks:
                            hook()
            except BaseException:
                # the rest of the bucket stays queued for the next run_until
                del bucket[:self._ran(bucket)]
                self._draining = None
                raise
            steps += len(bucket)
            bucket.clear()      # so a handle into it cancels nothing
            heapq.heappop(queue)
            del buckets[fire_at]
        self._draining = None
        self.now = t_end
        return steps
