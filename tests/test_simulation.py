import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (build_sim, build_spec, random_connected_positions, random_scenario,
                      random_waypoint_scenario)
from manetsim.metrics import write_trace
from manetsim.scenario import TrafficFlow, builtin
from manetsim.simulation import PROTOCOLS, Simulation


def run_trace(spec, protocol, seed):
    result = Simulation(spec, protocol=protocol, seed=seed).run()
    buf = io.StringIO()
    write_trace(result.ledger, buf)
    return buf.getvalue()


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
            assert led.sent == led.received + led.dropped_data + led.unresolved
            assert led.unresolved == result.unresolved_census


def test_conservation_per_flow_on_random_scenarios():
    rnd = random.Random(99)
    for _ in range(15):
        spec = random_scenario(rnd)
        result = Simulation(spec, "aodv", seed=rnd.randrange(10000)).run()
        led = result.ledger
        assert led.sent == led.received + led.dropped_data + led.unresolved
        assert led.unresolved == result.unresolved_census
        per_flow = {}
        for e in led.events:
            if e.subkind != "DATA":
                continue
            key = (e.src, e.dst)
            per_flow.setdefault(key, {"s": 0, "r": 0, "d": 0})
            if e.kind.value == "s":
                per_flow[key]["s"] += 1
            elif e.kind.value == "r":
                per_flow[key]["r"] += 1
            elif e.kind.value == "d":
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
            if e.kind.value == "s":
                sent_at[e.uid] = e.t
            elif e.kind.value == "f":
                hops[e.uid] = hops.get(e.uid, 0) + 1
            elif e.kind.value == "r":
                delay = e.t - sent_at[e.uid]
                assert delay >= hops[e.uid] * 0.001 - 1e-9


# -- loop freedom --------------------------------------------------------------------

def assert_acyclic_next_hops(sim):
    for dst in range(len(sim.nodes)):
        graph = sim.next_hop_graph(dst)
        for start in graph:
            cur, seen = start, set()
            while cur in graph:
                assert cur not in seen, \
                    f"routing loop toward {dst} at t={sim.engine.now}"
                seen.add(cur)
                cur = graph[cur]


def test_loop_freedom_on_builtin_scenarios():
    for name in ("scenario1", "scenario2"):
        sim = Simulation(builtin(name), "aodv", seed=11)
        sim.event_hooks.append(lambda s=sim: assert_acyclic_next_hops(s))
        sim.run()


class RecordingTable(dict):
    """Route table that logs (node, dst) whenever an entry is stored."""

    def __init__(self, entries, node_id, log):
        super().__init__(entries)
        self.node_id = node_id
        self.log = log

    def __setitem__(self, dst, entry):
        super().__setitem__(dst, entry)
        self.log.append((self.node_id, dst))


def watch_new_next_hops(sim):
    """Hook asserting, at every event boundary, that no next hop stored
    since the last boundary closes a loop. A stored entry is the only way
    either protocol adds a next hop (expiry and invalidation only remove
    one), so a new loop toward dst must pass through a node logged for it
    and the walk from that node finds it."""
    log = []
    for node in sim.nodes:
        attr = "routes" if sim.protocol == "aodv" else "table"
        setattr(node, attr, RecordingTable(getattr(node, attr), node.node_id, log))

    def check():
        for start, dst in log:
            cur, seen = start, set()
            while cur is not None and cur != dst:
                assert cur not in seen, f"routing loop toward {dst} at t={sim.engine.now}"
                seen.add(cur)
                cur = sim.nodes[cur].next_hop_for(dst)
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
    assert led.sent == led.received + led.dropped_data + led.unresolved
    assert led.unresolved == result.unresolved_census
    assert_acyclic_next_hops(sim)


@pytest.mark.slow
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_conservation_and_loop_freedom_at_100_nodes_random_waypoint(protocol):
    # the scale at which one fire time's bucket holds the most events
    spec = random_waypoint_scenario(random.Random(100), 100, 1200.0, 10.0, flows=5)
    sim = Simulation(spec, protocol, seed=1)
    led = sim.ledger
    last = [None]

    def conserved():
        # the census sums every node's buffer, so it is taken only when a
        # packet was sent, received, dropped or put on or taken off the air
        counts = (led.sent, led.received, led.dropped_data, sim.in_flight_data)
        if counts != last[0]:
            last[0] = counts
            assert led.unresolved == sim.unresolved_census(), f"t={sim.engine.now}"

    sim.event_hooks += [watch_new_next_hops(sim), conserved]
    result = sim.run()
    assert led.received > 0
    assert led.unresolved == result.unresolved_census
    assert_acyclic_next_hops(sim)


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
    times = [t for t, _ in history]
    assert times == sorted(times)
    assert [p for _, p in history] == [[0, 7, 3, 5], [0, 7, 5],
                                       [0, 1, 4, 5], [0, 9, 4, 5]]
    # node 4's movement at t=2.0 must not appear as a route change
    assert not any(2.0 <= t < 2.3 for t, _ in history)


class EveryEventObserver:
    """Oracle for the route observer: walks every flow after every event
    and keeps its own route history and stretch samples."""

    def __init__(self, sim):
        self.sim = sim
        self.history = {key: [] for key in sim.route_history}
        self.stretch = []

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
                history.append((t, path))
                shortest = self.sim._bfs_hops(src, dst)
                if shortest is not None:
                    self.stretch.append(len(path) - 1 - shortest)


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
        assert result.route_stretch_samples == oracle.stretch, name
        recorded += sum(len(h) for h in oracle.history.values())
        changed += sum(len(h) > 1 for h in oracle.history.values())
    # the cases install routes and change some of them mid-flow
    assert recorded >= 20 and changed >= 5


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
            path = history[0][1]
            assert len(path) - 1 == sim._bfs_hops(src, dst)
            hops = max(hops, len(path) - 1)
            ratios += (len(path) - 1) / sim._bfs_hops(src, dst)
        # the report's stretch counts extra hops; as a ratio every route is 1.0
        assert result.route_stretch_samples == [0] * len(result.route_history)
        assert result.report().mean_route_stretch == 0.0
    assert ratios / (4 * 4) == 1.0 and hops >= 3


def test_static_multihop_flows_record_one_shortest_route_each():
    assert_one_shortest_route_per_static_flow()


def test_static_route_guard_fails_without_route_changed(monkeypatch):
    from manetsim.simulation import NodeInterface
    monkeypatch.setattr(NodeInterface, "route_changed", lambda self, dst: None)
    with pytest.raises(AssertionError):
        assert_one_shortest_route_per_static_flow()


def test_walk_route_none_while_no_route():
    sim = build_sim([(0, 0), (700, 700)])
    assert sim.walk_route(0, 1) is None


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
    receivers = sim.world.broadcast(0, Hello(src=0, uid=sim.world.next_uid()))
    assert receivers == [1, 2]
