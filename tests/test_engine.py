import random

import pytest

from manetsim.engine import Engine
from manetsim.errors import PastTimeError


def test_schedule_enqueues_and_returns_handle():
    eng = Engine()
    handle = eng.schedule(1.0, lambda: None)
    assert handle.pending
    assert eng.pending_count() == 1


def test_schedule_in_the_past_rejected():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run_until(1.0)
    with pytest.raises(PastTimeError):
        eng.schedule(0.5, lambda: None)


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


def test_nested_scheduling_from_callbacks():
    eng = Engine()
    log = []

    def outer():
        log.append(("outer", eng.now))
        eng.schedule_in(0.5, lambda: log.append(("inner", eng.now)))

    eng.schedule(1.0, outer)
    steps = eng.run_until(2.0)
    assert steps == 2
    assert log == [("outer", 1.0), ("inner", 1.5)]


def test_random_batches_replay_identically():
    # determinism property: same seeded batch, same processing order
    def run_batch(engine_seed):
        rnd = random.Random(99)
        eng = Engine(seed=engine_seed)
        order = []
        for i in range(200):
            t = rnd.choice([0.5, 1.0, 1.0, 2.0, 3.5]) + rnd.randrange(3)
            eng.schedule(t, lambda i=i: order.append((eng.now, i)))
        eng.run_until(10.0)
        return order

    assert run_batch(1) == run_batch(1)
    assert run_batch(1) == run_batch(2)  # order is queue-driven, not rng-driven


def test_after_event_hook_runs_per_event():
    eng = Engine()
    hits = []
    eng.after_event = lambda: hits.append(eng.now)
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.run_until(3.0)
    assert hits == [1.0, 2.0]


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
    assert eng.pending_count() == 2500

    live = [i for i in range(3000) if i not in cancelled]
    assert eng.run_until(2.0) == sum(times[i] <= 2.0 for i in live)
    assert eng.pending_count() == sum(times[i] > 2.0 for i in live)
    eng.run_until(10.0)
    expected = sorted(live, key=lambda i: (times[i], i))
    assert log == expected
    assert eng.pending_count() == 0
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
