import gc
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_loop_free, build_sim, build_spec, random_connected_positions,
                      random_scenario, random_waypoint_scenario)
from manetsim.aodv import Hello, Rerr, RouteEntry, Rrep, Rreq
from manetsim.cli import write_outputs
from manetsim.dsdv import RANK_SPAN, UpdatePacket
from manetsim.engine import Engine
from manetsim.metrics import (CONTROL_TX, DATA_TX, DROPPED, KINDS, RECEIVED, SENT, LedgerEvent,
                              write_trace)
from manetsim.packets import DATA, DataPacket
import manetsim
from manetsim.scenario import TrafficFlow, builtin, parse, serialize
from manetsim.simulation import PROTOCOLS, Simulation
from manetsim.world import UNICAST_SENT


def run_trace(spec, protocol, seed):
    result = Simulation(spec, protocol=protocol, seed=seed).run()
    buf = io.BytesIO()
    write_trace(result.ledger, buf)
    return buf.getvalue().decode()


# -- determinism ----------------------------------------------------------------

def test_identical_runs_produce_byte_identical_traces():
    for name in ("scenario1", "scenario2"):
        spec = builtin(name)
        for protocol in ("aodv", "dsdv"):
            assert run_trace(spec, protocol, 42) == run_trace(spec, protocol, 42)


def test_different_seeds_produce_different_traces():
    spec = builtin("scenario2")
    assert run_trace(spec, "aodv", 1) != run_trace(spec, "aodv", 2)


# -- conservation ------------------------------------------------------------------

def test_conservation_exact_on_builtin_runs():
    for name in ("scenario1", "scenario2"):
        for protocol in ("aodv", "dsdv"):
            result = Simulation(builtin(name), protocol, seed=3).run()
            led = result.ledger
            assert led.sent == led.received + led.dropped_data + result.unresolved_census


def test_the_census_counts_the_data_frames_on_the_air_and_no_other_entry():
    sim = build_sim([(0, 0), (100, 0), (200, 0)])
    for node, next_hop in ((0, 1), (1, 2)):
        sim.nodes[node].routes[2] = RouteEntry(next_hop=next_hop, hop_count=2 - node,
                                               dst_seq=1, expires_at=5.0)
    flow = TrafficFlow(0, 2, rate=1.0, packet_size=512, start=0.0, stop=1.0)
    sim.emit_data(flow)
    sim.emit_data(flow)
    sim.broadcast(0, Hello(src=0, uid=sim.next_uid()))
    assert sim.unresolved_census == sim.ledger.unresolved == 2
    sim.engine.run_until(0.0015)    # the first hops arrived and were forwarded
    assert sim.unresolved_census == 2 and sim.ledger.data_tx == 4
    sim.engine.run_until(0.5)
    assert sim.unresolved_census == 0 and sim.ledger.received == 2


def test_conservation_per_flow_on_random_scenarios():
    rnd = random.Random(99)
    for _ in range(15):
        spec = random_scenario(rnd)
        result = Simulation(spec, "aodv", seed=rnd.randrange(10000)).run()
        led = result.ledger
        assert led.sent == led.received + led.dropped_data + result.unresolved_census
        per_flow = {}
        for e in led.events:
            if e.subkind != "DATA":
                continue
            key = (e.src, e.dst)
            per_flow.setdefault(key, {"s": 0, "r": 0, "d": 0})
            if e.kind == "s":
                per_flow[key]["s"] += 1
            elif e.kind == "r":
                per_flow[key]["r"] += 1
            elif e.kind == "d":
                per_flow[key]["d"] += 1
        for counts in per_flow.values():
            assert counts["s"] >= counts["r"] + counts["d"]


def test_delay_bounded_below_by_hops_times_latency():
    for name in ("scenario1", "scenario2"):
        result = Simulation(builtin(name), "aodv", seed=5).run()
        led = result.ledger
        hops = {}
        sent_at = {}
        for e in led.events:
            if e.subkind != "DATA":
                continue
            if e.kind == "s":
                sent_at[e.uid] = e.t
            elif e.kind == "f":
                hops[e.uid] = hops.get(e.uid, 0) + 1
            elif e.kind == "r":
                delay = e.t - sent_at[e.uid]
                assert delay >= hops[e.uid] * 0.001 - 1e-9


# -- loop freedom --------------------------------------------------------------------

def test_loop_freedom_on_builtin_scenarios():
    for name in ("scenario1", "scenario2"):
        sim = Simulation(builtin(name), "aodv", seed=11)
        sim.event_hooks.append(lambda s=sim: assert_loop_free(s))
        sim.run()


class RecordingTable(dict):
    """Route table that logs (node, dst) to each of its logs whenever an
    entry is stored."""

    def __init__(self, entries, node_id):
        super().__init__(entries)
        self.node_id = node_id
        self.logs = []

    def __setitem__(self, dst, entry):
        super().__setitem__(dst, entry)
        for log in self.logs:
            log.append((self.node_id, dst))


def recording_tables(sim):
    """Every node's route table, in id order, made a RecordingTable once."""
    attr = "routes" if sim.protocol == "aodv" else "table"
    tables = []
    for node in sim.nodes:
        table = getattr(node, attr)
        if not isinstance(table, RecordingTable):
            table = RecordingTable(table, node.node_id)
            setattr(node, attr, table)
        tables.append(table)
    return tables


def watch_new_next_hops(sim):
    """Hook asserting, at every event boundary, that no next hop stored
    since the last boundary closes a loop. A stored entry is the only way
    either protocol adds a next hop (expiry and invalidation only remove
    one), so a new loop toward dst must pass through a node logged for it
    and the walk from that node finds it."""
    log = []
    for table in recording_tables(sim):
        table.logs.append(log)

    def check():
        for start, dst in log:
            cur, seen = start, set()
            while cur is not None and cur != dst:
                assert cur not in seen, f"routing loop toward {dst} at t={sim.engine.now}"
                seen.add(cur)
                cur = sim.nodes[cur].next_hop_for(dst)
        log.clear()

    return check


# the only method that writes a stored entry's sequence number in place:
# AODV's _invalidate, which both link breaks and RERRs call. A DSDV route
# is a (next_hop, rank) pair, so mark_broken and the dump store a new one
IN_PLACE_SEQUENCE_CHANGES = ("_invalidate",)


def stored_sequence(entry):
    """An entry's sequence number: an AODV entry stores it, and a DSDV
    (next_hop, rank) route's is the quotient of its rank by RANK_SPAN."""
    return entry.dst_seq if isinstance(entry, RouteEntry) else entry[1] // RANK_SPAN


def watch_sequences(sim):
    """Hook asserting, at every event boundary, that no node's sequence
    number for any destination went down. A sequence number changes only
    when an entry is stored or in IN_PLACE_SEQUENCE_CHANGES, so each check
    reads only the entries stored since the last boundary and the tables of
    the nodes that ran one of those methods."""
    tables = recording_tables(sim)
    log, touched, last = [], set(), {}
    for table in tables:
        table.logs.append(log)

    def noting(node_id, method):
        def wrapper(*args):
            touched.add(node_id)
            return method(*args)
        return wrapper

    for node in sim.nodes:
        for name in IN_PLACE_SEQUENCE_CHANGES:
            if hasattr(node, name):
                setattr(node, name, noting(node.node_id, getattr(node, name)))

    def check():
        for node_id in touched:
            log.extend((node_id, dst) for dst in tables[node_id])
        touched.clear()
        for key in log:
            node_id, dst = key
            seq = stored_sequence(tables[node_id][dst])
            assert seq >= last.get(key, seq), (
                f"node {node_id}'s sequence number for {dst} fell from {last[key]} "
                f"to {seq} at t={sim.engine.now}")
            last[key] = seq
        log.clear()

    return check


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PROTOCOLS), st.integers(0, 999))
def test_conservation_and_loop_freedom_up_to_50_nodes(scenario_seed, protocol, sim_seed):
    spec = random_scenario(random.Random(scenario_seed), max_nodes=50, end=2.0)
    sim = Simulation(spec, protocol, seed=sim_seed)
    sim.event_hooks.append(watch_new_next_hops(sim))
    result = sim.run()
    led = result.ledger
    assert led.sent == led.received + led.dropped_data + result.unresolved_census
    assert_loop_free(sim)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PROTOCOLS), st.integers(0, 999))
def test_no_sequence_number_decreases_on_random_scenarios(scenario_seed, protocol, sim_seed):
    spec = random_scenario(random.Random(scenario_seed), max_nodes=30, end=4.0)
    sim = Simulation(spec, protocol, seed=sim_seed)
    sim.event_hooks.append(watch_sequences(sim))
    sim.run()


@pytest.mark.slow
@pytest.mark.parametrize("protocol, nodes, side, end", [
    # 100 nodes: the scale at which one fire time's bucket holds the most events
    ("aodv", 100, 1200.0, 10.0), ("dsdv", 100, 1200.0, 10.0),
    ("aodv", 200, 1700.0, 10.0), ("dsdv", 200, 1700.0, 10.0),
    # long runs: many route expiries, rediscoveries and full-table dumps
    ("aodv", 25, 800.0, 200.0), ("dsdv", 25, 800.0, 200.0),
    ("dsdv", 200, 1700.0, 60.0), ("aodv", 200, 1700.0, 60.0)])
def test_conservation_and_loop_freedom_at_scale_random_waypoint(protocol, nodes, side, end):
    spec = random_waypoint_scenario(random.Random(nodes), nodes, side, end, flows=5)
    sim = Simulation(spec, protocol, seed=1)
    led = sim.ledger
    last = [None]

    def conserved():
        # the census sums every node's buffer and the queue, so it is taken
        # only when a packet was sent, received, dropped or put on the air
        counts = (led.sent, led.received, led.dropped_data, led.data_tx)
        if counts != last[0]:
            last[0] = counts
            assert led.unresolved == sim.unresolved_census, f"t={sim.engine.now}"

    sim.event_hooks += [watch_new_next_hops(sim), watch_sequences(sim), conserved]
    result = sim.run()
    assert led.received > 0
    assert led.unresolved == result.unresolved_census
    assert_loop_free(sim)


# -- long runs: memory that does not grow with every ledger row ------------------------

# one `manetsim run`, printing the peak RSS of its process in KiB
PEAK_RSS_RUN = """
import resource, sys
from contextlib import redirect_stdout
from manetsim.cli import main
with redirect_stdout(sys.stderr):
    main(["run", "--scenario", sys.argv[1], "--protocol", "dsdv", "--seed", "1",
          "--out", sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def long_run_spec(end):
    """DSDV's workload for long runs: 50 random-waypoint nodes at Broch's density."""
    return random_waypoint_scenario(random.Random(50), 50, 670.0, end, flows=5)


@pytest.mark.slow
def test_a_16x_longer_run_peaks_under_twice_the_memory(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(manetsim.__file__).parents[1]))
    peaks = {}
    for end in (10.0, 160.0):
        scn = tmp_path / f"rwp{end:g}.scn"
        scn.write_text(serialize(long_run_spec(end)))
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_RUN, str(scn),
                               str(tmp_path / f"out{end:g}")],
                              env=env, capture_output=True, text=True, check=True)
        peaks[end] = int(proc.stdout.split()[-1])
    assert peaks[160.0] <= 2 * peaks[10.0], peaks


@pytest.mark.slow
def test_the_ledger_holds_a_row_in_at_most_64_bytes():
    tracemalloc.start()
    try:
        sim = Simulation(long_run_spec(10.0), "dsdv", seed=1).run()
        rows = len(sim.ledger)
        held = tracemalloc.get_traced_memory()[0]
        sim.ledger = None       # what this frees is the ledger's own memory
        ledger_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 20_000
    assert ledger_bytes / rows <= 64


def static_cbr_spec():
    """Four 50 pkt/s flows of three and four hops along a static line of
    eight nodes: 32,170 rows under AODV at seed 1, every id and size under 2**15."""
    positions = [(100.0 + 200.0 * i, 400.0) for i in range(8)]
    flows = [TrafficFlow(src, dst, 50.0, 512, 1.0, 30.0)
             for src, dst in ((0, 3), (7, 4), (1, 5), (6, 2))]
    return build_spec(positions, flows=flows, end=31.0, area=(1700.0, 800.0))


def test_a_static_cbr_ledger_and_its_outputs_stay_within_their_bytes(tmp_path):
    """The ledger packs these rows into 16-bit int columns, 20 B a row and
    the uid map, and write_outputs keeps a send time in 8 B of an array:
    22.1 B a row and 100 B of traced peak a delivered packet, against
    32.7 B and 208 B with 32-bit columns and a dict of send times."""
    tracemalloc.start()
    try:
        sim = Simulation(static_cbr_spec(), "aodv", seed=1).run()
        rows, received = len(sim.ledger), sim.ledger.received
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_outputs(sim, tmp_path, 0.5)
        output_peak = tracemalloc.get_traced_memory()[1] - held
        held = tracemalloc.get_traced_memory()[0]
        sim.ledger = None       # what this frees is the ledger's own memory
        ledger_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows >= 30_000 and received > 5_000
    assert ledger_bytes / rows <= 26
    assert output_peak / received <= 130


# -- cyclic garbage and the collector ----------------------------------------------------

@pytest.fixture
def collector_off():
    """The collector paused for the test, and its setting put back after."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("protocol, end", [
    ("aodv", 3.0), ("dsdv", 3.0),
    # long enough for route expiry, link breaks, RERRs and rediscovery
    ("aodv", 100.0), ("dsdv", 60.0)])
def test_a_run_leaves_no_cyclic_garbage(protocol, end, collector_off):
    # run() pauses the collector, which can only hold memory back if a run
    # leaves reference cycles; with the collector off here too, no cycle the
    # run leaves can be collected before it is counted
    spec = random_waypoint_scenario(random.Random(5), 30, 900.0, end)
    sim = Simulation(spec, protocol, seed=1)
    gc.collect()
    sim.run()
    assert gc.collect() == 0
    assert sim.ledger.received > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_puts_back_the_callers_collector_setting(enabled, collector_off):
    if enabled:
        gc.enable()
    sim = Simulation(builtin("scenario1"), "dsdv", seed=1)
    seen = []
    sim.event_hooks.append(lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen and not any(seen)      # paused for every event of the run
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_puts_back_the_collector_setting_when_an_action_raises(enabled, collector_off):
    if enabled:
        gc.enable()
    sim = Simulation(builtin("scenario1"), "aodv", seed=1)

    def fail():
        raise RuntimeError("boom")

    sim.engine.schedule(1.0, fail)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.isenabled() is enabled


# -- shortest-path equivalence ----------------------------------------------------------

def bfs_distance(positions, radio_range, src, dst):
    from collections import deque
    n = len(positions)
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in range(n):
            if v not in dist:
                dx = positions[u][0] - positions[v][0]
                dy = positions[u][1] - positions[v][1]
                if (dx * dx + dy * dy) ** 0.5 <= radio_range:
                    dist[v] = dist[u] + 1
                    q.append(v)
    return dist.get(dst)


def test_discovery_hop_count_equals_bfs_distance_static():
    rnd = random.Random(1234)
    for _ in range(40):
        n = rnd.randint(3, 10)
        pts = random_connected_positions(rnd, n)
        src, dst = 0, n - 1
        spec = build_spec(pts, flows=[TrafficFlow(src, dst, 10.0, 512, 0.1, 0.5)],
                          end=2.0)
        sim = Simulation(spec, "aodv", seed=rnd.randrange(10000))
        sim.run()
        route = sim.walk_route(src, dst)
        expected = bfs_distance(pts, 250.0, src, dst)
        assert route is not None, f"no route installed over {pts}"
        assert len(route) - 1 == expected
        assert sim.nodes[src].routes[dst].hop_count == expected


# -- route history ------------------------------------------------------------------------

def test_route_history_records_transitions_in_order():
    result = Simulation(builtin("scenario2"), "aodv", seed=8).run()
    history = result.route_history[(0, 5)]
    times = [t for t, _, _ in history]
    assert times == sorted(times)
    assert [p for _, p, _ in history] == [[0, 7, 3, 5], [0, 7, 5],
                                          [0, 1, 4, 5], [0, 9, 4, 5]]
    # node 4's movement at t=2.0 must not appear as a route change
    assert not any(2.0 <= t < 2.3 for t, _, _ in history)


class EveryEventObserver:
    """Oracle for the route observer: walks every flow after every event
    and keeps its own route history, BFS hop counts included."""

    def __init__(self, sim):
        self.sim = sim
        self.history = {key: [] for key in sim.route_history}

    def walk(self, src, dst):
        path = [src]
        while path[-1] != dst:
            nxt = self.sim.nodes[path[-1]].next_hop_for(dst)
            if nxt is None or nxt in path:
                return None
            path.append(nxt)
        return path

    def __call__(self):
        t = self.sim.engine.now
        for (src, dst), history in self.history.items():
            path = self.walk(src, dst)
            if path is not None and (not history or history[-1][1] != path):
                history.append((t, path, self.sim._bfs_hops(src, dst)))


def observer_cases():
    rnd = random.Random(2024)
    for k in range(12):
        yield f"random{k}", random_scenario(rnd, max_nodes=20, end=4.0)
    for k in range(2):
        yield f"rwp50-{k}", random_waypoint_scenario(random.Random(k), 50, 1200.0, 2.0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_observer_matches_walking_every_flow_after_every_event(protocol):
    recorded = changed = 0
    for name, spec in observer_cases():
        sim = Simulation(spec, protocol, seed=1)
        oracle = EveryEventObserver(sim)
        sim.event_hooks.append(oracle)
        result = sim.run()
        assert result.route_history == oracle.history, name
        recorded += sum(len(h) for h in oracle.history.values())
        changed += sum(len(h) > 1 for h in oracle.history.values())
    # the cases install routes and change some of them mid-flow
    assert recorded >= 20 and changed >= 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PROTOCOLS), st.integers(0, 999))
def test_observer_run_only_after_route_changes_records_what_every_event_does(
        scenario_seed, protocol, sim_seed):
    # a hook changes neither when the observer runs nor what it records
    runs = []
    for hooks in ([], [lambda: None]):
        spec = random_scenario(random.Random(scenario_seed), max_nodes=20, end=3.0)
        sim = Simulation(spec, protocol, seed=sim_seed)
        sim.event_hooks += hooks
        result = sim.run()
        runs.append(result.route_history)
    assert runs[0] == runs[1]


def counted_run(sim):
    """(events processed, route observer calls) of sim.run()."""
    calls, steps = [], []
    observe, run_until = sim.engine.after_event, sim.engine.run_until
    sim.engine.after_event = lambda: calls.append(observe())
    sim.engine.run_until = lambda t_end: steps.append(run_until(t_end)) or steps[-1]
    sim.run()
    return sum(steps), len(calls)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_hook_runs_after_every_event_and_leaves_the_observer_calls_alone(protocol):
    bare = counted_run(Simulation(builtin("scenario2"), protocol, seed=1))
    hooked = Simulation(builtin("scenario2"), protocol, seed=1)
    hook_calls = []
    hooked.event_hooks.append(lambda: hook_calls.append(None))
    events, calls = counted_run(hooked)
    assert (events, calls) == bare
    assert 0 < calls < events == len(hook_calls)


def static_multihop_runs():
    """Static CBR runs on connected random layouts, flows two or more hops long."""
    rnd = random.Random(77)
    for _ in range(4):
        pts = random_connected_positions(rnd, 15)
        pairs = [(a, b) for a in range(15) for b in range(15)
                 if a != b and bfs_distance(pts, 250.0, a, b) >= 2]
        flows = [TrafficFlow(src, dst, 10.0, 512, 0.5 + 0.1 * k, 8.0)
                 for k, (src, dst) in enumerate(rnd.sample(pairs, 4))]
        yield Simulation(build_spec(pts, flows=flows, end=10.0), "aodv",
                         seed=rnd.randrange(10000))


def assert_one_shortest_route_per_static_flow():
    hops = ratios = 0
    for sim in static_multihop_runs():
        result = sim.run()
        for (src, dst), history in result.route_history.items():
            assert len(history) == 1, (src, dst, history)
            _, path, shortest = history[0]
            # the BFS count recorded with the route, and the one at the end:
            # the report's stretch counts extra hops, and there are none
            assert len(path) - 1 == shortest == sim._bfs_hops(src, dst)
            hops = max(hops, len(path) - 1)
            ratios += (len(path) - 1) / sim._bfs_hops(src, dst)
        assert result.report().mean_route_stretch == 0.0
    # as a ratio every route is 1.0
    assert ratios / (4 * 4) == 1.0 and hops >= 3


def test_static_multihop_flows_record_one_shortest_route_each():
    assert_one_shortest_route_per_static_flow()


def test_static_route_guard_fails_without_route_changed(monkeypatch):
    monkeypatch.setattr(Simulation, "route_changed", lambda self, dst: None)
    with pytest.raises(AssertionError):
        assert_one_shortest_route_per_static_flow()


@pytest.mark.parametrize("interval", [1e-7, 5e-7, -1.0, float("nan"), float("inf")])
def test_hello_interval_below_one_clock_tick_is_rejected(interval):
    # a sub-microsecond chain re-queues into the bucket it runs in forever
    with pytest.raises(ValueError, match="hello_interval"):
        Simulation(builtin("scenario1"), hello_interval=interval)


def test_an_unknown_protocol_is_rejected():
    with pytest.raises(ValueError, match="unknown protocol 'olsr'"):
        Simulation(builtin("scenario1"), protocol="olsr")


def test_hello_interval_of_one_clock_tick_advances_the_clock():
    sim = build_sim([(0, 0), (100, 0)], hello_interval=1e-6, end=0.001)
    sim.run()
    assert sim.ledger.control_tx == {}     # no route, so no beacon; but it returned
    assert sim.engine.now == 0.001


def rows_at(sim, t):
    return [(e.kind, e.node, e.subkind) for e in sim.ledger.events if e.t == t]


def test_at_a_shared_microsecond_a_dsdv_emission_is_logged_before_the_dump():
    # traffic is filed before the nodes' start(), so it leads each bucket
    sim = build_sim([(0, 0), (100, 0), (200, 0)], "dsdv", end=3.0,
                    flows=[TrafficFlow(0, 2, 2.0, 512, 0.0, 3.0)])
    sim.run()
    assert rows_at(sim, 0.0)[:3] == [("s", 0, "DATA"), ("d", 0, "DATA"),
                                     ("c", 0, "DSDV-UPDATE")]


def test_at_a_shared_microsecond_an_aodv_emission_is_logged_before_the_hello():
    sim = build_sim([(0, 0), (100, 0), (200, 0)], "aodv", end=3.0, hello_interval=1.0,
                    flows=[TrafficFlow(0, 2, 2.0, 512, 0.5, 3.0)])
    sim.run()
    for t in (1.0, 2.0):
        assert rows_at(sim, t)[:3] == [("s", 0, "DATA"), ("f", 0, "DATA"),
                                       ("c", 0, "HELLO")]


def count_schedule_calls(monkeypatch):
    calls = []
    schedule = Engine.schedule

    def counting(self, fire_at, action):
        calls.append(fire_at)
        return schedule(self, fire_at, action)

    monkeypatch.setattr(Engine, "schedule", counting)
    return calls


def test_a_dsdv_run_files_no_cancellable_event(monkeypatch):
    calls = count_schedule_calls(monkeypatch)
    sim = build_sim([(0, 0), (100, 0), (200, 0)], "dsdv", end=5.0,
                    flows=[TrafficFlow(0, 2, 10.0, 512, 0.5, 4.0)])
    sim.run()
    assert sim.ledger.received > 0
    assert calls == []


def test_only_the_aodv_reply_wait_is_a_cancellable_event(monkeypatch):
    # node 1 answers the first discovery; node 2 is out of range, so its
    # discovery times out and retries until the attempts run out
    calls = count_schedule_calls(monkeypatch)
    sim = build_sim([(0, 0), (100, 0), (700, 700)], "aodv", end=3.0, hello_interval=1.0,
                    flows=[TrafficFlow(0, 1, 10.0, 512, 0.5, 2.0),
                           TrafficFlow(0, 2, 10.0, 512, 1.0, 1.5)])
    sim.run()
    originated = [e for e in sim.ledger.events
                  if e.kind == "c" and e.subkind == "RREQ" and e.node == e.src]
    assert sim.ledger.received > 0
    assert sum(e.dst == 2 for e in originated) > 1     # at least one retry
    assert len(calls) == len(originated)


def test_walk_route_none_while_no_route():
    sim = build_sim([(0, 0), (700, 700)])
    assert sim.walk_route(0, 1) is None


def test_route_paths_of_a_run_without_flows_is_empty():
    spec = parse("area 100 100\nnode 0 0 0\nnode 1 50 0\nend 1\n")
    assert Simulation(spec).run().route_paths() == []


# -- ledger rows ----------------------------------------------------------------------------

ROW_MESSAGES = [
    DataPacket(uid=7, src=0, dst=1, size=512),
    Rreq(src=0, bcast_id=2, dst=1, dst_last_seq=4, hop_count=1, uid=8),
    Rrep(src=0, dst=1, dst_seq=6, hop_count=2, lifetime=3.0, uid=9),
    Rerr(unreachable=[(1, 5), (2, 7)], uid=10, src=1, dst=0),
    Hello(src=1, uid=11),
    UpdatePacket(src=1, entries=[(1, 2, 0), (0, 4, 1)], uid=12),
]


# ids as when the kinds were the members of an EventKind Enum, so that they stay stable
@pytest.mark.parametrize("kind", KINDS, ids=[f"EventKind.{name}" for name in
                                             ("SENT", "RECEIVED", "DROPPED", "CONTROL_TX", "DATA_TX")])
@pytest.mark.parametrize("msg", ROW_MESSAGES, ids=lambda m: type(m).__name__)
def test_logged_row_equals_the_reference_row(msg, kind):
    """The recorder that logs rows of kind builds msg's reference row. Only a data
    frame is sent, received or logged as DATA_TX: a control frame sent by unicast
    is logged as CONTROL_TX."""
    sim = build_sim([(0, 0), (100, 0)])
    sim.engine.run_until(0.25)
    sim.world.broadcast = lambda sender, msg: []
    sim.world.unicast = lambda sender, next_hop, msg: UNICAST_SENT
    rows = []
    sim.ledger.record = rows.append
    node = 1
    if kind is DROPPED:
        sim.dropped(1, msg)
    elif kind is CONTROL_TX:
        sim.broadcast(1, msg)
    elif msg.kind is not DATA:
        assert sim.send_unicast(1, 0, msg)
        kind = CONTROL_TX
    elif kind is SENT:
        # emit_data builds the packet itself, at its source, under the next uid
        node, sim._uid_counter = msg.src, msg.uid - 1
        sim.emit_data(TrafficFlow(msg.src, msg.dst, rate=1.0, packet_size=msg.size,
                                  start=0.0, stop=1.0))
        del rows[1:]        # the rows of the discovery the packet starts
    elif kind is RECEIVED:
        sim.data_received(1, msg)
    else:
        assert sim.send_unicast(1, 0, msg)
    assert rows == [LedgerEvent(0.25, kind, node, msg.kind, msg.size, msg.uid,
                                msg.src, msg.dst)]


@pytest.mark.parametrize("msg", ROW_MESSAGES, ids=lambda m: type(m).__name__)
def test_every_recorder_builds_the_reference_row(msg):
    """Each recorder builds its own row; the rows of every kind are the reference rows."""
    sim = build_sim([(0, 0), (100, 0)])
    sim.engine.run_until(0.25)
    # no handler takes some of these kinds
    sim.world.broadcast = lambda sender, msg: []
    sim.world.unicast = lambda sender, next_hop, msg: UNICAST_SENT
    rows = []
    sim.ledger.record = rows.append
    sim.dropped(1, msg)
    sim.broadcast(1, msg)
    assert sim.send_unicast(1, 0, msg)
    kinds = [DROPPED, CONTROL_TX, DATA_TX if msg.kind is DATA else CONTROL_TX]
    if msg.kind is DATA:
        sim.data_received(1, msg)
        kinds.append(RECEIVED)
    assert rows == [LedgerEvent(0.25, kind, 1, msg.kind, msg.size, msg.uid, msg.src, msg.dst)
                    for kind in kinds]


def test_emit_data_builds_the_reference_row_under_the_next_uid():
    sim = build_sim([(0, 0), (100, 0)])
    sim.engine.run_until(0.25)
    for _ in range(4):
        sim.next_uid()
    rows = []
    sim.ledger.record = rows.append
    sim.emit_data(TrafficFlow(1, 0, rate=1.0, packet_size=300, start=0.0, stop=1.0))
    assert rows[0] == LedgerEvent(0.25, SENT, 1, DATA, 300, 5, 1, 0)
    assert sim.next_uid() == 7     # the RREQ the packet's discovery floods took 6


def test_report_consistent_with_ledger():
    result = Simulation(builtin("scenario1"), "aodv", seed=2).run()
    rep = result.report()
    led = result.ledger
    assert rep.sent == led.sent == 40
    assert rep.received == led.received
    assert rep.delivery_ratio == led.received / led.sent
    assert 0.0 <= rep.delivery_ratio <= 1.0
    assert rep.control_tx["total"] == sum(
        v for k, v in led.control_tx.items())
    assert rep.route_changes == 1


def test_builtin_discoveries_install_zero_stretch_routes():
    # both layouts force the minimum-hop route at every discovery
    for name in ("scenario1", "scenario2"):
        rep = Simulation(builtin(name), "aodv", seed=4).run().report()
        assert rep.mean_route_stretch == 0.0


def test_scenario1_initial_broadcast_reaches_nodes_1_and_2():
    from manetsim.aodv import Hello
    sim = Simulation(builtin("scenario1"), "aodv", seed=0)
    sim.engine.run_until(1.0)
    receivers = sim.world.broadcast(0, Hello(src=0, uid=sim.next_uid()))
    assert receivers == [1, 2]
