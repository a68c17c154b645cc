"""Closed-loop measurement of one workload.

An iteration runs one scenario through the public path a `manetsim run`
user waits for: `scenario.parse` -> `Simulation(...)` ->
`Simulation.run()` -> `cli.write_outputs`, in this process, on one
thread. A pass runs every scenario of the workload's suite once, one
after the other, and its timings are sums over the suite. A run is one
untraced pass; a traced run adds one traced pass after it. Every
iteration is checked: it must not raise, it must conserve packets, and
the SHA-256 of its `trace.txt` and `report.json` must equal the expected
digests. An iteration that fails any check is counted in `failed`, and
its pass yields no metrics.
"""
from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import random
import resource
import shutil
import signal
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from manetsim import cli, scenario
from manetsim.simulation import Simulation

from .tracer import BENCH_LAYER, Tracer, instrumented, summarize
from .workloads import Workload, suite

WINDOW = 0.5            # the `manetsim run` default throughput window
PROBE_PERIOD = 0.25     # wall seconds between speed probes
PROBE_STEPS = 1000      # reference_kernel steps per probe
REFERENCE_PROBE_S = 0.0122  # probe time that defines speed 1; see README.md
REPEAT_S = 0.25         # set-up and output are repeated until their reps add up to this,
MAX_REPS = 9            # or to this many reps, and the median rep counts
DIGESTED = ("trace.txt", "report.json")
GOLDEN = Path(__file__).with_name("golden.json")

# name, unit, better: the metrics of an untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("output_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better: the metrics of a traced run
PER_LAYER = (
    ("engine.events", "count", "lower"),
    ("engine.scheduled", "count", "lower"),
    ("engine.cancelled", "count", "lower"),
    ("engine.peak_queue", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("world.neighbors_of.calls", "count", "lower"),
    ("world.in_range.calls", "count", "lower"),
    ("world.position_at.calls", "count", "lower"),
    ("world.unicast.calls", "count", "lower"),
    ("world.unicast.link_breaks", "count", "lower"),
    ("world.neighbor_hit_ratio", "ratio", "higher"),
    ("world.self_s", "s", "lower"),
    ("aodv.on_receive.calls", "count", "lower"),
    ("aodv.discoveries", "count", "lower"),
    ("aodv.rreq_duplicate_ratio", "ratio", "lower"),
    ("aodv.self_s", "s", "lower"),
    ("dsdv.on_receive.calls", "count", "lower"),
    ("dsdv.update_entries", "count", "lower"),
    ("dsdv.adopt_ratio", "ratio", "higher"),
    ("dsdv.triggered_update.calls", "count", "lower"),
    ("dsdv.periodic_dump.calls", "count", "lower"),
    ("dsdv.self_s", "s", "lower"),
    ("simulation.after_event.calls", "count", "lower"),
    ("simulation.walk_route.calls", "count", "lower"),
    ("simulation.bfs_hops.calls", "count", "lower"),
    ("simulation.bfs_hops.s", "s", "lower"),
    ("simulation.route_change_ratio", "ratio", "higher"),
    ("simulation.self_s", "s", "lower"),
    ("metrics.record.calls", "count", "lower"),
    ("metrics.record.s", "s", "lower"),
    ("metrics.throughput_series.s", "s", "lower"),
    ("metrics.delay_series.s", "s", "lower"),
    ("metrics.write_trace.s", "s", "lower"),
    ("metrics.trace_bytes", "bytes", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("scenario.parse.s", "s", "lower"),
    ("scenario.compile.s", "s", "lower"),
    ("scenario.emissions", "count", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("cli.write_outputs.self_s", "s", "lower"),
    ("cli.cumulative_series.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.setup_s", "s", "lower"),
    ("host.run_s", "s", "lower"),
    ("host.output_s", "s", "lower"),
    ("host.total_s", "s", "lower"),
    ("host.speed", "ratio", "higher"),
)
LAYERS = ("engine", "world", "aodv", "dsdv", "simulation", "metrics", "scenario", "cli")

# per-layer metric -> tracer count it reports
COUNTED = {
    "engine.events": "engine.events",
    "engine.scheduled": "engine.schedule",
    "engine.cancelled": "engine.cancelled",
    "engine.peak_queue": "engine.peak_queue",
    "world.neighbors_of.calls": "world.neighbors_of",
    "world.in_range.calls": "world.in_range",
    "world.position_at.calls": "world.position_at",
    "world.unicast.calls": "world.unicast",
    "world.unicast.link_breaks": "world.link_breaks",
    "aodv.on_receive.calls": "aodv.on_receive",
    "aodv.discoveries": "aodv.start_discovery",
    "dsdv.on_receive.calls": "dsdv.on_receive",
    "dsdv.update_entries": "dsdv.update_entries",
    "dsdv.triggered_update.calls": "dsdv.triggered_update",
    "dsdv.periodic_dump.calls": "dsdv.periodic_dump",
    "simulation.after_event.calls": "simulation._after_event",
    "simulation.walk_route.calls": "simulation.walk_route",
    "simulation.bfs_hops.calls": "simulation._bfs_hops",
    "metrics.record.calls": "metrics.record",
    "scenario.emissions": "scenario.emissions",
}
# per-layer metric -> span whose inclusive time it reports
SPAN_TOTALS = {
    "simulation.bfs_hops.s": "simulation._bfs_hops",
    "metrics.record.s": "metrics.record",
    "metrics.throughput_series.s": "metrics.throughput_series",
    "metrics.delay_series.s": "metrics.delay_series",
    "metrics.write_trace.s": "metrics.write_trace",
    "scenario.parse.s": "scenario.parse",
    "scenario.compile.s": "scenario.compile",
    "cli.cumulative_series.s": "cli.cumulative_series",
}
# per-layer ratio -> (numerator, denominator) tracer counts
RATIOS = {
    "world.neighbor_hit_ratio": ("world.neighbors_found", "world.neighbor_pairs"),
    "aodv.rreq_duplicate_ratio": ("aodv.rreq_duplicates", "aodv.handle_rreq"),
    "dsdv.adopt_ratio": ("dsdv.adopted", "dsdv.update_entries"),
    "simulation.route_change_ratio": ("simulation.route_appends", "simulation._after_event"),
}


@dataclass
class Timed:
    """One timed phase: its wall-clock interval and its host seconds less probing."""

    start: float
    end: float
    host_s: float


@dataclass
class Iteration:
    """One scenario set up (several times), run and written once."""

    setup: list[Timed]
    run: Timed
    output: list[Timed]
    events: int
    digests: dict[str, str]
    output_bytes: dict[str, int]
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)   # traced only


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def reference_kernel(steps: int) -> int:
    """Fixed pure-Python work whose duration gauges the machine's speed.

    It mixes what the simulator spends its time on (a heap of timed
    events, method calls, float geometry, list and dict building) but
    imports none of it, so no change to the simulator moves it. Changing
    it, or REFERENCE_PROBE_S, rescales every reported time.
    """
    rng = random.Random(7)
    points = [_Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(60)]
    heap = [(rng.random(), i) for i in range(200)]
    heapq.heapify(heap)
    seen = {}
    hits = 0
    for step in range(steps):
        t, i = heapq.heappop(heap)
        here = points[i % len(points)]
        near = [j for j, p in enumerate(points) if here.distance(p) <= 250.0]
        hits += len(near)
        seen[(i, step & 63)] = near
        heapq.heappush(heap, (t + rng.random(), (i * 7 + step) % 1000))
    return hits


class SpeedProbe:
    """The machine's speed through an untraced pass, sampled on a timer.

    On a shared machine, co-tenants slow every process by up to two
    thirds, in spells of a second to minutes. Every PROBE_PERIOD s of
    wall time a SIGALRM handler times `reference_kernel(PROBE_STEPS)` in
    this thread; a probe's speed is REFERENCE_PROBE_S over that time.
    Phases are timed with `clock`, which leaves out the time spent in
    probes, and `speed` gives the mean speed of the probes taken while a
    phase ran, so a phase's reported time is its host time at that speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (wall time, speed)
        self.spent = 0.0                                # wall seconds inside probes
        self._probing = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, signum, frame) -> None:
        if self._probing:       # the timer fired again while a probe ran
            return
        self._probing = True
        t0 = time.perf_counter()
        reference_kernel(PROBE_STEPS)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, REFERENCE_PROBE_S / (t1 - t0)))
        self.spent += time.perf_counter() - t0
        self._probing = False

    @contextmanager
    def running(self):
        self._probe(None, None)     # so that even a short pass has a sample
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the probes within half a period of [start, end], else the nearest."""
        half = PROBE_PERIOD / 2
        near = [v for t, v in self.samples if start - half <= t <= end + half]
        if near:
            return statistics.fmean(near)
        return min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]


@dataclass
class Pass:
    """Every scenario of the suite, once."""

    iterations: list[Iteration] = field(default_factory=list)
    probe: SpeedProbe | None = None     # None for a traced pass

    @property
    def events(self) -> int:
        return sum(it.events for it in self.iterations)

    def seconds(self, scaled: bool = True) -> dict[str, float]:
        """setup_s, run_s, output_s and total_s, summed over the suite.

        Scaled times are host times at the probed speed, the seconds the
        pass would have taken at speed 1; unscaled ones are host times.
        """
        if scaled:
            def secs(t: Timed) -> float:
                return t.host_s * self.probe.speed(t.start, t.end)
        else:
            def secs(t: Timed) -> float:
                return t.host_s
        v = {"setup_s": sum(statistics.median(map(secs, it.setup)) for it in self.iterations),
             "run_s": sum(secs(it.run) for it in self.iterations),
             "output_s": sum(statistics.median(map(secs, it.output))
                             for it in self.iterations)}
        v["total_s"] = v["setup_s"] + v["run_s"] + v["output_s"]
        return v


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_iteration(w: Workload, text: str, sim_seed: int, out_dir: Path,
                  repeat: bool = False, tracer: Tracer | None = None,
                  clock=time.perf_counter) -> Iteration:
    """Set up, run and write outputs of one scenario.

    With `repeat`, set-up and output writing, which are short on most
    workloads, are each repeated as REPEAT_S and MAX_REPS say; the run
    uses the last set-up, and the last output is checked.
    """
    phase = tracer.phase if tracer is not None else (lambda name: nullcontext())

    def timed(name, fn):
        start, host = time.perf_counter(), clock()
        with phase(name):
            value = fn()
        return value, Timed(start, time.perf_counter(), clock() - host)

    def reps(name, fn):
        times = []
        while True:
            value = None        # so that gc can free the last rep's result
            gc.collect()
            value, t = timed(name, fn)
            times.append(t)
            if (not repeat or len(times) == MAX_REPS
                    or sum(x.host_s for x in times) >= REPEAT_S):
                return value, times

    sim, setup = reps("bench.setup", lambda: Simulation(
        scenario.parse(text, name=w.name), protocol=w.protocol, seed=sim_seed))

    events = []
    run_until = sim.engine.run_until

    def counting_run_until(t_end):
        events.append(run_until(t_end))
        return events[-1]

    sim.engine.run_until = counting_run_until
    if tracer is not None:
        queue, counts = sim.engine._queue, tracer.counts

        def watch_queue():
            if len(queue) > counts["engine.peak_queue"]:
                counts["engine.peak_queue"] = len(queue)

        sim.event_hooks.append(watch_queue)

    result, run = timed("bench.run", sim.run)
    report, output = reps("bench.output", lambda: cli.write_outputs(result, out_dir, WINDOW))

    problems = []
    if report.sent != report.received + report.dropped + report.unresolved:
        problems.append(f"sent {report.sent} != received {report.received} + dropped "
                        f"{report.dropped} + unresolved {report.unresolved}")
    if report.unresolved != result.unresolved_census:
        problems.append(f"unresolved {report.unresolved} != census "
                        f"{result.unresolved_census}")
    if tracer is not None:
        tracer.counts["simulation.route_appends"] += sum(
            len(h) for h in result.route_history.values())
    return Iteration(
        setup=setup, run=run, output=output, events=sum(events),
        digests={name: _sha256(out_dir / name) for name in DIGESTED},
        output_bytes={str(p.relative_to(out_dir)): p.stat().st_size
                      for p in sorted(out_dir.rglob("*")) if p.is_file()},
        problems=problems)


def scenario_layers(tracer: Tracer, it: Iteration) -> dict[str, float]:
    """Additive per-layer quantities of one traced scenario."""
    c = tracer.counts
    total, own, layer = summarize(tracer.spans)
    v = {metric: c[key] for metric, key in COUNTED.items()}
    v.update({metric: total.get(span, 0.0) for metric, span in SPAN_TOTALS.items()})
    v.update({f"{name}.self_s": layer.get(name, 0.0) for name in LAYERS})
    for ratio, parts in RATIOS.items():
        for part in parts:
            v[f"{ratio}:{part}"] = c[part]
    v["cli.write_outputs.self_s"] = own.get("cli.write_outputs", 0.0)
    v["metrics.trace_bytes"] = it.output_bytes["trace.txt"]
    v["cli.output_bytes"] = sum(it.output_bytes.values())
    v["trace.spans"] = len(tracer.spans)
    v["trace.unspanned_s"] = layer.get(BENCH_LAYER, 0.0)
    v["trace.run_s"] = it.run.host_s
    v["trace.phases_s"] = sum(total.get(f"{BENCH_LAYER}.{p}", 0.0)
                              for p in ("setup", "run", "output"))
    return v


def pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer metrics of a traced pass: sums over the suite, ratios of sums."""
    merged: dict[str, float] = {}
    for it in p.iterations:
        for key, value in it.layers.items():
            if key == "engine.peak_queue":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    for ratio, (num, den) in RATIOS.items():
        n, d = merged.pop(f"{ratio}:{num}"), merged.pop(f"{ratio}:{den}")
        merged[ratio] = n / d if d else 0.0
    return merged


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def pinned_digests(golden: dict, workload: str, seed: int,
                   sim_seed: int) -> list[dict[str, str]] | None:
    """Per-scenario digests pinned for this case, or None if it has none."""
    if sim_seed != golden["sim_seed"]:
        return None
    return golden["digests"].get(workload, {}).get(str(seed))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    untraced: Pass | None = None    # None if any of its iterations failed
    traced: Pass | None = None
    expected: dict[int, dict[str, str]] = field(default_factory=dict)
    pinned: bool = False
    peak_rss_mb: float = 0.0


def measure(w: Workload, seed: int, sim_seed: int, work_dir: Path,
            expected: list[dict[str, str]] | None, traced: bool = False,
            log=print) -> Outcome:
    """One untraced pass over the workload's suite, then, with `traced`, one traced pass.

    With no expected digests the untraced pass sets them, and the traced
    pass must reproduce them.
    """
    texts = suite(w, seed)
    out = Outcome(expected=dict(enumerate(expected or ())), pinned=expected is not None)
    probe = SpeedProbe()
    with probe.running():
        out.untraced = _run_pass(w, texts, sim_seed, work_dir, out, log, probe=probe)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        out.traced = _run_pass(w, texts, sim_seed, work_dir, out, log, probe=None)
    return out


def _run_pass(w, texts, sim_seed, work_dir, out, log, probe) -> Pass | None:
    p = Pass(probe=probe)
    failed_before = out.failed
    for k, text in enumerate(texts):
        it = _checked_iteration(w, text, sim_seed, work_dir, k, out, log, probe)
        if it is not None:
            p.iterations.append(it)
    return p if out.failed == failed_before else None


def _checked_iteration(w, text, sim_seed, work_dir, k, out, log, probe):
    out.attempted += 1
    out_dir = work_dir / f"iteration-{out.attempted}"
    tracer = Tracer() if probe is None else None
    try:
        with instrumented(tracer) if tracer else nullcontext():
            it = run_iteration(w, text, sim_seed, out_dir, repeat=tracer is None,
                               tracer=tracer, clock=probe.clock if probe else time.perf_counter)
    except Exception:
        out.failed += 1
        log(f"scenario {k}: iteration {out.attempted} raised:\n{traceback.format_exc()}")
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out.expected.setdefault(k, dict(it.digests))
    for name in DIGESTED:
        if it.digests[name] != out.expected[k][name]:
            it.problems.append(f"{name} sha256 {it.digests[name]} "
                               f"!= expected {out.expected[k][name]}")
    if it.problems:
        out.failed += 1
        log(f"scenario {k}: iteration {out.attempted} failed: " + "; ".join(it.problems))
        return None
    if tracer is not None:
        it.layers = scenario_layers(tracer, it)
    return it


def end_to_end_values(out: Outcome, scaled: bool = True) -> dict[str, float]:
    """Every end-to-end metric of the untraced pass; host times unless `scaled`."""
    v = out.untraced.seconds(scaled)
    v["events_per_s"] = out.untraced.events / v["run_s"]
    v["peak_rss_mb"] = out.peak_rss_mb
    return v


def per_layer_values(out: Outcome) -> dict[str, float]:
    """Every per-layer metric of the traced pass, with the untraced pass's host times."""
    values = pass_layers(out.traced)
    host = out.untraced.seconds(scaled=False)
    values["trace.overhead_ratio"] = values["trace.run_s"] / host["run_s"]
    values.update({f"host.{name}": v for name, v in host.items()})
    values["host.speed"] = out.untraced.seconds()["total_s"] / host["total_s"]
    return values


@contextmanager
def work_area(root: Path, tag: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = root / ".perfbench-work" / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass    # another run still uses it
