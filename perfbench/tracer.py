"""Span recorder and the layer-boundary wrappers of the traced run.

Every wrapper lives here, in the benchmark: `instrumented` swaps the
simulator's boundary functions for timing or counting versions and
puts the originals back on exit. Spans are kept in memory as
(name, start_ns, end_ns, parent_index) and reduced after the run.
The hottest inner calls (`World.in_range`, `World.position_at`,
`Simulation.walk_route`) are only counted, so their time stays in the
span that encloses them.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1
BENCH_LAYER = "bench"   # the benchmark's own phase spans; their self time is unspanned


class Tracer:
    """Spans and call counts of one traced scenario."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [NO_PARENT]

    @contextmanager
    def phase(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1])

    def timed(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once the span is closed."""
        counts, clock = self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn, after=None):
        """fn wrapped in a call counter only."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its direct children cover.

    Children are clipped to the parent and overlapping children are
    merged, so the result never counts one instant twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """(inclusive seconds by span name, self seconds by span name, self seconds by layer)."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        total[name] += (end - start) / 1e9
        own[name] += self_ns / 1e9
        layer[name.split(".", 1)[0]] += self_ns / 1e9
    return dict(total), dict(own), dict(layer)


@contextmanager
def instrumented(tracer: Tracer):
    """Patch the simulator's layer boundaries for the duration of the block.

    Simulation captures bound methods (`_after_event`, tick actions) when
    it is built, so enter this before constructing the simulation.
    """
    from manetsim import aodv, cli, dsdv, engine, metrics, scenario, simulation, world

    saved = []
    counts = tracer.counts

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def orig(owner, attr):
        return vars(owner)[attr]

    def add(key, amount=1):
        counts[key] += amount

    # engine
    E = engine.Engine
    patch(E, "run_until", tracer.timed(
        "engine.run_until", orig(E, "run_until"),
        after=lambda a, r: add("engine.events", r)))
    patch(E, "schedule", tracer.counted("engine.schedule", orig(E, "schedule")))
    patch(E, "cancel", tracer.counted(
        "engine.cancel", orig(E, "cancel"),
        after=lambda a, r: add("engine.cancelled", int(r))))

    # world
    W = world.World
    neighbors_of = orig(W, "neighbors_of")

    def neighbors_counting(self, node, t):
        before = counts["world.in_range"]
        found = neighbors_of(self, node, t)
        counts["world.neighbor_pairs"] += counts["world.in_range"] - before
        counts["world.neighbors_found"] += len(found)
        return found

    patch(W, "neighbors_of", tracer.timed("world.neighbors_of", neighbors_counting))
    patch(W, "in_range", tracer.counted("world.in_range", orig(W, "in_range")))
    patch(W, "position_at", tracer.counted("world.position_at", orig(W, "position_at")))
    patch(W, "broadcast", tracer.timed("world.broadcast", orig(W, "broadcast")))
    patch(W, "unicast", tracer.timed(
        "world.unicast", orig(W, "unicast"),
        after=lambda a, r: add("world.link_breaks",
                               int(r is world.UnicastOutcome.LINK_BREAK))))

    # protocols
    A = aodv.AodvNode
    for attr in ("on_receive", "originate_data", "hello_tick",
                 "_discovery_timeout", "_drain_one"):
        patch(A, attr, tracer.timed(f"aodv.{attr}", orig(A, attr)))
    patch(A, "start_discovery", tracer.counted("aodv.start_discovery",
                                               orig(A, "start_discovery")))
    patch(A, "handle_rreq", tracer.counted(
        "aodv.handle_rreq", orig(A, "handle_rreq"),
        after=lambda a, r: add("aodv.rreq_duplicates",
                               int(r is aodv.RreqAction.DUPLICATE))))
    D = dsdv.DsdvNode
    for attr in ("on_receive", "originate_data", "periodic_dump"):
        patch(D, attr, tracer.timed(f"dsdv.{attr}", orig(D, attr)))
    patch(D, "triggered_update", tracer.counted("dsdv.triggered_update",
                                                orig(D, "triggered_update")))

    def update_counting(args, adopted):
        add("dsdv.update_entries", len(args[2].entries))
        add("dsdv.adopted", adopted)

    patch(D, "handle_update", tracer.counted("dsdv.handle_update",
                                             orig(D, "handle_update"),
                                             after=update_counting))

    # route observer
    S = simulation.Simulation
    patch(S, "_after_event", tracer.timed("simulation._after_event",
                                          orig(S, "_after_event")))
    patch(S, "_bfs_hops", tracer.timed("simulation._bfs_hops", orig(S, "_bfs_hops")))
    patch(S, "walk_route", tracer.counted("simulation.walk_route",
                                          orig(S, "walk_route")))

    # ledger, series and trace; simulation and cli import the series by name
    L = metrics.MetricsLedger
    patch(L, "record", tracer.timed("metrics.record", orig(L, "record")))
    for fname in ("throughput_series", "delay_series"):
        wrapped = tracer.timed(f"metrics.{fname}", orig(metrics, fname))
        patch(simulation, fname, wrapped)
        patch(cli, fname, wrapped)
    patch(cli, "write_trace", tracer.timed("metrics.write_trace", orig(metrics, "write_trace")))

    # scenario and output writing
    patch(scenario, "parse", tracer.timed("scenario.parse", orig(scenario, "parse")))
    patch(scenario, "compile", tracer.timed(
        "scenario.compile", orig(scenario, "compile"),
        after=lambda a, r: add("scenario.emissions", r.emissions)))
    patch(cli, "write_outputs", tracer.timed("cli.write_outputs", orig(cli, "write_outputs")))
    patch(cli, "cumulative_series", tracer.timed("cli.cumulative_series",
                                                 orig(cli, "cumulative_series")))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
