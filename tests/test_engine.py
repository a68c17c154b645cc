import functools
import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pending_count
from manetsim.engine import Engine, quantize
from manetsim.errors import PastTimeError


def noop():
    """The action of an event that does nothing."""


def test_schedule_enqueues_and_returns_handle():
    eng = Engine()
    handle = eng.schedule(1.0, lambda: None)
    assert handle.pending
    assert pending_count(eng) == 1


def test_schedule_in_the_past_rejected():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run_until(1.0)
    with pytest.raises(PastTimeError):
        eng.schedule(0.5, lambda: None)


def test_a_nan_fire_time_is_refused_and_stalls_no_later_event():
    # queued, a NaN would top the heap and fail every `<= t_end` test after it
    eng = Engine()
    fired = []
    eng.post_all([(1.0, (fired.append, (1.0,)))])
    with pytest.raises(PastTimeError):
        eng.post_all([(math.nan, (fired.append, ("nan",)))])
    with pytest.raises(PastTimeError):
        eng.schedule(math.nan, lambda: fired.append("nan"))
    eng.post_all([(0.5, (fired.append, (0.5,)))])
    assert eng.run_until(10.0) == 2
    assert fired == [0.5, 1.0] and pending_count(eng) == 0


def test_run_until_nan_is_refused_and_leaves_the_clock_where_it_was():
    eng = Engine()
    eng.run_until(2.0)
    with pytest.raises(PastTimeError):
        eng.run_until(math.nan)
    assert eng.now == 2.0
    with pytest.raises(PastTimeError):
        eng.schedule(-5.0, noop)


def test_equal_times_fire_in_insertion_order():
    eng = Engine()
    log = []
    eng.schedule(2.0, lambda: log.append("A"))
    eng.schedule(2.0, lambda: log.append("B"))
    eng.run_until(2.0)
    assert log == ["A", "B"]


def test_cancel_pending_then_again_then_after_fire():
    eng = Engine()
    log = []
    h1 = eng.schedule(1.0, lambda: log.append(1))
    assert eng.cancel(h1) is True
    assert eng.cancel(h1) is False
    h2 = eng.schedule(1.0, lambda: log.append(2))
    eng.run_until(2.0)
    assert log == [2]
    assert eng.cancel(h2) is False


def test_cancelled_event_never_executes():
    eng = Engine()
    fired = []
    h = eng.schedule(1.0, lambda: fired.append(True))
    eng.cancel(h)
    eng.run_until(5.0)
    assert fired == []


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(5.0) == 0
    assert eng.now == 5.0


def test_run_until_leaves_the_clock_on_the_microsecond_grid():
    eng = Engine()
    eng.run_until(0.500001)
    eng.run_until(eng.now + 1e-6)   # 0.5000020000000001 before quantizing
    assert eng.now == 0.500002
    fired = []
    eng.schedule(eng.now + 0.0, lambda: fired.append(eng.now))
    eng.run_until(eng.now)
    assert fired == [0.500002]


def test_run_until_now_processes_nothing_when_nothing_due():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run_until(0.5)
    assert eng.run_until(0.5) == 0


def test_events_due_exactly_at_t_end_run():
    eng = Engine()
    log = []
    eng.schedule(5.0, lambda: log.append("edge"))
    eng.run_until(5.0)
    assert log == ["edge"]
    assert eng.now == 5.0


def test_clock_matches_event_time_during_callbacks():
    eng = Engine()
    seen = []
    eng.schedule(1.5, lambda: seen.append(eng.now))
    eng.schedule(2.25, lambda: seen.append(eng.now))
    eng.run_until(3.0)
    assert seen == [1.5, 2.25]
    assert eng.now == 3.0


def test_times_quantized_to_microseconds():
    eng = Engine()
    h = eng.schedule(1.00000049, lambda: None)
    assert h.fire_at == 1.0
    h2 = eng.schedule(1.0000006, lambda: None)
    assert h2.fire_at == 1.000001


# -- exactness oracle: quantize, and the integer-tick steps of post_all, the
# one routine that files an event, give the very float round(t, 6) gives -------

def quantized_times(t):
    """quantize(t), the fire time a one-pair post_all files t under, and the
    one a post_all files t under between pairs at other times."""
    single, multi = Engine(), Engine()
    single.now = multi.now = -math.inf
    single.post_all([(t, (noop, ()))])
    mark = (noop, ())
    multi.post_all([(1.5, (noop, ())), (t, mark), (-2.25, (noop, ()))])
    [filed] = [at for at, bucket in multi._buckets.items()
               if any(entry is mark for entry in bucket)]
    return [quantize(t), single._queue[0], filed]


def assert_rounds_like_round(t):
    reference = float.hex(round(t, 6))
    assert [float.hex(q) for q in quantized_times(t)] == [reference] * 3, t


@settings(max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False))
def test_quantize_is_round_to_six_digits_on_every_float(t):
    assert_rounds_like_round(t)


@pytest.mark.parametrize("t", [0.0, -0.0, math.inf, -math.inf, 4e-7, -4e-7, 5e-7, -5e-7,
                               2.0 ** 50 / 1e6, 2.0 ** 50 / 1e6 + 0.25, 2.0 ** 51 / 1e6,
                               -(2.0 ** 50) / 1e6, 1e12, 1e300, 5e-324])
def test_quantize_at_zero_infinity_and_beyond_two_to_the_fifty_ticks(t):
    assert_rounds_like_round(t)


def test_quantize_of_nan_is_nan():
    assert math.isnan(quantize(math.nan))
    # post_all quantizes it to NaN as well, and refuses to file it there
    with pytest.raises(PastTimeError, match="schedule at nan before"):
        Engine().post_all([(math.nan, (noop, ()))])
    with pytest.raises(PastTimeError, match="schedule at nan before"):
        Engine().post_all([(1.5, (noop, ())), (math.nan, (noop, ()))])


@settings(max_examples=1000, deadline=None)
@given(st.integers(-2 ** 52, 2 ** 52), st.sampled_from([-math.inf, None, math.inf]))
def test_quantize_on_the_half_tick_grid_and_beside_it(k, toward):
    t = (k + 0.5) / 1e6
    assert_rounds_like_round(t if toward is None else math.nextafter(t, toward))


@settings(max_examples=1000, deadline=None)
@given(st.floats(0.0, 1e4), st.floats(1e-4, 0.01), st.floats(0.0, 0.01),
       st.floats(0.0, 1.0, exclude_max=True))
def test_quantize_on_frame_delivery_times(now, hop_latency, jitter, draw):
    assert_rounds_like_round(now + (hop_latency + jitter * draw))


def test_nested_scheduling_from_callbacks():
    eng = Engine()
    log = []

    def outer():
        log.append(("outer", eng.now))
        eng.schedule(eng.now + 0.5, lambda: log.append(("inner", eng.now)))

    eng.schedule(1.0, outer)
    steps = eng.run_until(2.0)
    assert steps == 2
    assert log == [("outer", 1.0), ("inner", 1.5)]


def test_random_batches_replay_identically():
    # determinism property: same seeded batch, same processing order
    def run_batch():
        rnd = random.Random(99)
        eng = Engine()
        order = []
        for i in range(200):
            t = rnd.choice([0.5, 1.0, 1.0, 2.0, 3.5]) + rnd.randrange(3)
            eng.schedule(t, lambda i=i: order.append((eng.now, i)))
        eng.run_until(10.0)
        return order

    assert run_batch() == run_batch()


def test_after_event_hook_runs_per_event():
    # the hooks run after every event, in order, and after after_event
    eng = Engine()
    watch, log = set(), []
    eng.watch = watch

    def observe():
        log.append(("observer", eng.now))
        watch.clear()

    eng.after_event = observe
    eng.event_hooks += [lambda: log.append(("first", eng.now)),
                        lambda: log.append(("second", eng.now))]
    eng.schedule(1.0, lambda: None)
    eng.post_all([(2.0, (watch.add, ("route",)))])
    assert eng.run_until(3.0) == 2
    assert log == [("first", 1.0), ("second", 1.0),
                   ("observer", 2.0), ("first", 2.0), ("second", 2.0)]


def test_after_event_whose_watch_stays_empty_never_runs():
    eng = Engine()
    hits = []
    eng.after_event = lambda: hits.append(eng.now)
    eng.schedule(1.0, lambda: None)
    eng.post_all([(2.0, (noop, ()))])
    assert eng.run_until(3.0) == 2
    assert hits == []


def test_with_a_watch_after_event_runs_only_after_events_that_leave_it_non_empty():
    eng = Engine()
    watch, hits = set(), []
    eng.watch = watch

    def observe():
        hits.append(eng.now)
        watch.clear()

    eng.after_event = observe
    eng.schedule(1.0, lambda: watch.add("route"))
    eng.schedule(2.0, lambda: None)
    eng.post_all([(3.0, (watch.add, ("route",))), (3.0, (noop, ()))])
    assert eng.run_until(4.0) == 4
    assert hits == [1.0, 3.0]
    # a watch left non-empty calls it after every later event
    eng.after_event = lambda: hits.append(eng.now)
    watch.add("left over")
    eng.schedule(5.0, lambda: None)
    eng.schedule(6.0, lambda: None)
    eng.run_until(7.0)
    assert hits == [1.0, 3.0, 5.0, 6.0]


class Incomparable:
    """Action that refuses every ordering and equality comparison."""

    def __init__(self, log, key):
        self.log = log
        self.key = key

    def __call__(self):
        self.log.append(self.key)

    def __eq__(self, other):
        raise TypeError("actions must never be compared")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__


def test_thousands_of_tied_events_fire_in_time_then_insertion_order():
    rnd = random.Random(7)
    eng = Engine()
    log = []
    times = [rnd.choice([0.5, 1.0, 1.0, 2.0]) + rnd.randrange(4) for _ in range(3000)]
    handles = [eng.schedule(t, Incomparable(log, i)) for i, t in enumerate(times)]
    cancelled = set(rnd.sample(range(3000), 500))
    for i in sorted(cancelled):
        assert eng.cancel(handles[i]) is True
        assert eng.cancel(handles[i]) is False
    assert pending_count(eng) == 2500

    live = [i for i in range(3000) if i not in cancelled]
    assert eng.run_until(2.0) == sum(times[i] <= 2.0 for i in live)
    assert pending_count(eng) == sum(times[i] > 2.0 for i in live)
    eng.run_until(10.0)
    expected = sorted(live, key=lambda i: (times[i], i))
    assert log == expected
    assert pending_count(eng) == 0
    assert not any(h.pending for h in handles)
    assert eng.cancel(handles[expected[0]]) is False


def test_events_scheduled_for_now_run_after_those_already_queued():
    eng = Engine()
    log = []

    def first():
        log.append("first")
        eng.schedule(1.0, lambda: log.append("added at 1.0"))

    eng.schedule(1.0, first)
    eng.schedule(1.0, lambda: log.append("second"))
    eng.run_until(1.0)
    assert log == ["first", "second", "added at 1.0"]


def test_cancelled_event_counts_no_step_and_runs_no_after_event():
    eng = Engine()
    hits = []
    eng.watch = {"never emptied"}     # after_event runs after every event
    eng.after_event = lambda: hits.append(("observer", eng.now))
    eng.event_hooks.append(lambda: hits.append(("hook", eng.now)))
    eng.schedule(1.0, lambda: None)
    eng.cancel(eng.schedule(1.0, lambda: None))
    eng.cancel(eng.schedule(1.5, lambda: None))   # leaves its bucket empty
    assert eng.run_until(2.0) == 1
    assert hits == [("observer", 1.0), ("hook", 1.0)]


def test_event_cancels_a_later_one_due_at_the_same_microsecond():
    # AODV's tie: the RREP and the RREP_WAIT timer it cancels fire together
    eng = Engine()
    log, cancelled = [], []

    def reply():
        log.append("reply")
        cancelled.append(eng.cancel(timer))

    eng.schedule(1.0, reply)
    timer = eng.schedule(1.0000001, lambda: log.append("timeout"))
    assert eng.run_until(2.0) == 1
    assert log == ["reply"] and cancelled == [True]
    assert not timer.pending


def test_action_that_raises_leaves_the_rest_of_its_bucket_queued():
    eng = Engine()
    log = []

    def boom():
        log.append("boom")
        raise RuntimeError("boom")

    eng.schedule(1.0, lambda: log.append("a"))
    eng.post_all([(1.0, (boom, ())), (1.0, (log.append, ("c",)))])
    eng.schedule(2.0, boom)                        # last of its bucket
    eng.schedule(3.0, lambda: log.append("d"))
    with pytest.raises(RuntimeError):
        eng.run_until(5.0)
    assert log == ["a", "boom"] and eng.now == 1.0
    assert pending_count(eng) == 3
    eng.post_all([(1.0, (log.append, ("added at 1.0",)))])
    with pytest.raises(RuntimeError):
        eng.run_until(5.0)
    assert log == ["a", "boom", "c", "added at 1.0", "boom"] and eng.now == 2.0
    assert eng.run_until(5.0) == 1
    assert log[-1] == "d" and eng.now == 5.0
    assert pending_count(eng) == 0 and eng._queue == []


def test_queue_holds_one_entry_per_distinct_fire_time():
    eng = Engine()
    queue = eng._queue
    eng.post_all((t, (noop, ())) for t in (1.0, 1.0, 1.0000004, 2.0, 2.0))
    assert pending_count(eng) == 5 and len(queue) == 2
    eng.run_until(1.0)
    assert eng._queue is queue and len(queue) == 1


def test_post_all_returns_the_bucket_of_its_last_pair():
    eng = Engine()
    assert eng.post_all([]) is None and eng._queue == []
    last = eng.post_all([(2.0, (noop, ())), (1.0000004, (noop, ()))])
    assert last is eng._buckets[1.0] and len(last) == 1
    handle = eng.schedule(2.0, lambda: None)
    assert handle._bucket is eng._buckets[2.0] and len(handle._bucket) == 2


# -- oracle: the (fire_at, seq) heap engine with three-state handles ---------------

class ReferenceHandle:
    __slots__ = ("fire_at", "action", "state")

    def __init__(self, fire_at, action):
        self.fire_at = fire_at
        self.action = action
        self.state = "pending"

    @property
    def pending(self):
        return self.state == "pending"


class ReferenceEngine:
    """One heap entry per event, ordered by (fire_at, seq); a cancelled
    handle stays queued and is skipped when popped."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0
        self.after_event = None
        self.watch = ()
        self.event_hooks = []

    def schedule(self, fire_at, action):
        fire_at = quantize(fire_at)
        if fire_at < self.now:
            raise PastTimeError(f"schedule at {fire_at} before clock {self.now}")
        handle = ReferenceHandle(fire_at, action)
        heapq.heappush(self._queue, (fire_at, self._seq, handle))
        self._seq += 1
        return handle

    def post_all(self, pairs):
        for fire_at, (fn, args) in pairs:
            self.schedule(fire_at, functools.partial(fn, *args))

    def cancel(self, handle):
        if not handle.pending:
            return False
        handle.state = "cancelled"
        return True

    def pending_count(self):
        return sum(1 for _, _, h in self._queue if h.pending)

    def run_until(self, t_end):
        if t_end < self.now:
            raise PastTimeError(f"run_until({t_end}) before clock {self.now}")
        steps = 0
        while self._queue and self._queue[0][0] <= t_end:
            fire_at, _, handle = heapq.heappop(self._queue)
            if not handle.pending:
                continue
            handle.state = "fired"
            self.now = fire_at
            handle.action()
            steps += 1
            if self.watch:
                self.after_event()
            for hook in self.event_hooks:
                hook()
        self.now = t_end
        return steps


# delays with ties, sub-microsecond parts that quantize away, and zero, so
# events land at the back of the bucket being drained
DELAYS = st.sampled_from([0.0, 4e-7, 1e-6, 1.6e-6, 0.25, 0.5, 1.0])
INDEX = st.integers(0, 40)


def ops(callbacks):
    return st.one_of(st.tuples(st.just("schedule"), DELAYS, callbacks),
                     st.tuples(st.just("post_all"), DELAYS, callbacks),
                     st.tuples(st.just("cancel"), INDEX),
                     st.tuples(st.just("cancel_due_now"), INDEX))


CALLBACKS = st.recursive(st.just(()),
                         lambda inner: st.lists(ops(inner), max_size=3).map(tuple),
                         max_leaves=12)
PROGRAMS = st.lists(st.one_of(ops(CALLBACKS),
                              st.tuples(st.just("run"), st.sampled_from([0.0, 1e-6, 0.5, 1.2]))),
                    max_size=25)


def execute(engine, program):
    """Log of every firing with the clock, every run_until's steps, clock,
    pending count and handle states, every cancel's result, and the clocks
    of every after_event and every hook call; every other event fills the
    watch, and after_event empties it."""
    log, handles, after, hooked = [], [], [], []
    ids = itertools.count()
    watch = engine.watch = set()

    def observe():
        after.append(engine.now)
        watch.clear()

    engine.after_event = observe
    engine.event_hooks.append(lambda: hooked.append(engine.now))

    def fire(eid, callback):
        log.append(("fire", eid, engine.now))
        if eid % 2:
            watch.add(eid)
        for op in callback:
            apply(op)

    def cancel(candidates, k):
        if candidates:
            log.append(("cancel", k, engine.cancel(candidates[k % len(candidates)])))

    def apply(op):
        kind = op[0]
        if kind == "schedule":
            handles.append(engine.schedule(engine.now + op[1],
                                           functools.partial(fire, next(ids), op[2])))
        elif kind == "post_all":
            engine.post_all([(engine.now + op[1], (fire, (next(ids), op[2])))])
        elif kind == "cancel":
            cancel(handles, op[1])
        elif kind == "cancel_due_now":
            cancel([h for h in handles if h.fire_at == engine.now], op[1])
        else:
            # a quantized target keeps the clock on the microsecond grid, so
            # that a zero delay never lands before it
            steps = engine.run_until(quantize(engine.now + op[1]))
            pending = (engine.pending_count() if isinstance(engine, ReferenceEngine)
                       else pending_count(engine))
            log.append(("run", steps, engine.now, pending,
                        [h.pending for h in handles]))

    for op in program:
        apply(op)
    apply(("run", 100.0))
    return log, after, hooked


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_bucket_engine_agrees_with_the_heap_of_every_event(program):
    assert execute(Engine(), program) == execute(ReferenceEngine(), program)
