"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import functools
import io
import random
import time

from conftest import (assert_loop_free, build_sim, build_spec, random_connected_positions,
                      random_scenario)
from manetsim.dsdv import UPDATE_INTERVAL
from manetsim.metrics import (DATA_TX, DROPPED, RECEIVED, SENT, control_overhead,
                              delay_series, delivery_ratio, emit_plot_datasets, parse_trace,
                              throughput_series, write_trace)
from manetsim.scenario import TrafficFlow, builtin
from manetsim.simulation import Simulation

SEEDS = (1, 2, 3, 4, 5)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")
        return run
    return wrap


@functools.lru_cache(maxsize=None)
def run_builtin(name, protocol, seed):
    return Simulation(builtin(name), protocol, seed=seed).run()


def data_drop_times(result):
    return [e.t for e in result.ledger.events
            if e.kind == DROPPED and e.subkind == "DATA"]


def delivered_paths_from_trace(result):
    """Distinct node paths delivered packets actually took, trace-derived."""
    hops: dict[int, list[int]] = {}
    done: dict[int, list[int]] = {}
    order: list[int] = []
    for e in result.ledger.events:
        if e.subkind != "DATA":
            continue
        if e.kind == SENT:
            order.append(e.uid)
        elif e.kind == DATA_TX:
            hops.setdefault(e.uid, []).append(e.node)
        elif e.kind == RECEIVED:
            done[e.uid] = hops[e.uid] + [e.node]
    distinct = []
    for uid in order:
        path = done.get(uid)
        if path is not None and (not distinct or distinct[-1] != path):
            distinct.append(path)
    return distinct


def trace_bytes(result):
    buf = io.BytesIO()
    write_trace(result.ledger, buf)
    return buf.getvalue().decode()


# -- criterion 1 -------------------------------------------------------------

@criterion("criterion 1: scenario-1 route fidelity [0,2,4,5] -> break ~3.0 -> [0,1,5]")
def test_criterion_1_scenario1_route_fidelity():
    started = time.perf_counter()
    result = run_builtin("scenario1", "aodv", 42)
    assert [path for _, path, _ in result.route_history[(0, 5)]] == [[0, 2, 4, 5], [0, 1, 5]]
    assert delivered_paths_from_trace(result) == [[0, 2, 4, 5], [0, 1, 5]]
    first_discovery = result.route_history[(0, 5)][0]
    assert 1.0 <= first_discovery[0] <= 1.05
    drops = data_drop_times(result)
    assert len(drops) >= 1
    assert all(2.9 <= t <= 3.1 for t in drops)
    assert time.perf_counter() - started < 1.0


# -- criterion 2 -------------------------------------------------------------

@criterion("criterion 2: scenario-2 route fidelity through three breaks")
def test_criterion_2_scenario2_route_fidelity():
    started = time.perf_counter()
    result = run_builtin("scenario2", "aodv", 42)
    assert [path for _, path, _ in result.route_history[(0, 5)]] == [
        [0, 7, 3, 5], [0, 7, 5], [0, 1, 4, 5], [0, 9, 4, 5]]
    drops = sorted(data_drop_times(result))
    assert len(drops) == 3
    b1, b2, b3 = drops
    assert 2.25 <= b1 <= 2.45
    assert 2.50 <= b2 <= 2.70
    assert 3.00 <= b3 <= 3.30
    # node 4 moves at t=2.0 without any route change
    assert not any(2.0 <= t < 2.25 for t, _, _ in result.route_history[(0, 5)])
    assert time.perf_counter() - started < 1.0


# -- criterion 3 -------------------------------------------------------------

@criterion("criterion 3: loss/throughput/delay trends across scenarios, 5 seeds")
def test_criterion_3_density_mobility_trends():
    delay_means_1, delay_means_2 = [], []
    for seed in SEEDS:
        r1 = run_builtin("scenario1", "aodv", seed).report()
        r2 = run_builtin("scenario2", "aodv", seed).report()
        assert r2.lost > r1.lost, f"seed {seed}: loss trend"
        assert r2.received < r1.received, f"seed {seed}: received trend"
        assert r2.mean_throughput_bps < r1.mean_throughput_bps, \
            f"seed {seed}: throughput trend"
        assert r2.mean_delay_s >= r1.mean_delay_s, f"seed {seed}: delay trend"
        delay_means_1.append(r1.mean_delay_s)
        delay_means_2.append(r2.mean_delay_s)
    assert (sum(delay_means_2) / len(SEEDS)) > (sum(delay_means_1) / len(SEEDS))


# -- criterion 4 -------------------------------------------------------------

@criterion("criterion 4: loop freedom on builtins plus 100 random scenarios")
def test_criterion_4_loop_freedom():
    for name in ("scenario1", "scenario2"):
        sim = Simulation(builtin(name), "aodv", seed=7)
        sim.event_hooks.append(lambda s=sim: assert_loop_free(s))
        sim.run()
    rnd = random.Random(2024)
    for _ in range(100):
        sim = Simulation(random_scenario(rnd), "aodv", seed=rnd.randrange(10 ** 6))
        sim.event_hooks.append(lambda s=sim: assert_loop_free(s))
        sim.run()


# -- criterion 5 -------------------------------------------------------------

def _bfs_distance(pts, src, dst, radio_range=250.0):
    from collections import deque
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in range(len(pts)):
            if v not in dist:
                d = ((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2) ** 0.5
                if d <= radio_range:
                    dist[v] = dist[u] + 1
                    q.append(v)
    return dist[dst]


@criterion("criterion 5: discovery hop count equals BFS distance, 200 topologies "
           "and three 200-node strips")
def test_criterion_5_bfs_equivalence():
    rnd = random.Random(55)
    cases = []   # (positions, area, src, dst, sim seed)
    for _ in range(200):
        n = rnd.randint(2, 10)
        pts = random_connected_positions(rnd, n)
        src = rnd.randrange(n)
        dst = (src + rnd.randrange(1, n)) % n
        cases.append((pts, (800.0, 800.0), src, dst, rnd.randrange(10 ** 6)))
    strip = (3000.0, 600.0)
    for _ in range(3):
        pts = random_connected_positions(rnd, 200, area=strip)
        west = min(range(200), key=lambda i: pts[i][0])
        east = max(range(200), key=lambda i: pts[i][0])
        cases.append((pts, strip, west, east, rnd.randrange(10 ** 6)))
    for pts, area, src, dst, seed in cases:
        spec = build_spec(pts, flows=[TrafficFlow(src, dst, 10.0, 512, 0.1, 0.4)],
                          end=1.5, area=area)
        sim = Simulation(spec, "aodv", seed=seed)
        sim.run()
        expected = _bfs_distance(pts, src, dst)
        # the jitter bound: past 19 hops a longer flood copy may arrive first
        assert expected <= 19
        route = sim.walk_route(src, dst)
        assert route is not None and len(route) - 1 == expected
        assert sim.nodes[src].routes[dst].hop_count == expected


# -- criterion 6 -------------------------------------------------------------

@criterion("criterion 6: on-demand silence and AODV < DSDV control overhead")
def test_criterion_6_overhead_ordering():
    square = [(100, 100), (300, 100), (100, 300), (300, 300)]
    silent = build_sim(square, protocol="aodv", hello_interval=0.0, end=5.0)
    silent.run()
    assert silent.ledger.control_tx == {}
    dsdv = build_sim(square, protocol="dsdv", end=5.0)
    dsdv.run()
    assert dsdv.ledger.control_tx["DSDV-UPDATE"] >= len(square) * (5.0 // UPDATE_INTERVAL)
    for name in ("scenario1", "scenario2"):
        for seed in SEEDS:
            a = run_builtin(name, "aodv", seed).report()
            d = run_builtin(name, "dsdv", seed).report()
            assert d.control_tx["total"] > a.control_tx["total"], \
                f"{name} seed {seed}"


# -- criterion 7 -------------------------------------------------------------

@criterion("criterion 7: conservation and metric identities, bit-exact recompute")
def test_criterion_7_conservation_and_identities():
    for name in ("scenario1", "scenario2"):
        for protocol in ("aodv", "dsdv"):
            result = run_builtin(name, protocol, 42)
            led = result.ledger
            assert led.sent == led.received + led.dropped_data + result.unresolved_census
            assert 0.0 <= delivery_ratio(led) <= 1.0
            hops, sent_at = {}, {}
            for e in led.events:
                if e.subkind != "DATA":
                    continue
                if e.kind == SENT:
                    sent_at[e.uid] = e.t
                elif e.kind == DATA_TX:
                    hops[e.uid] = hops.get(e.uid, 0) + 1
                elif e.kind == RECEIVED:
                    assert e.t - sent_at[e.uid] >= hops[e.uid] * 0.001 - 1e-12
            reparsed = parse_trace(trace_bytes(result).splitlines())
            assert reparsed.events == led.events
            assert delay_series(reparsed) == delay_series(led)
            assert throughput_series(reparsed, 0.5, 0.1, 5.0) == \
                throughput_series(led, 0.5, 0.1, 5.0)
            assert control_overhead(reparsed) == control_overhead(led)
            assert delivery_ratio(reparsed) == delivery_ratio(led)


# -- criterion 8 -------------------------------------------------------------

@criterion("criterion 8: byte-identical outputs for identical (scenario, protocol, seed)")
def test_criterion_8_determinism():
    for name in ("scenario1", "scenario2"):
        for protocol in ("aodv", "dsdv"):
            a = Simulation(builtin(name), protocol, seed=42).run()
            b = Simulation(builtin(name), protocol, seed=42).run()
            assert trace_bytes(a) == trace_bytes(b)
            for series_fn in (delay_series,
                              lambda led: throughput_series(led, 0.5, 0.1, 5.0)):
                buf_a, buf_b = io.BytesIO(), io.BytesIO()
                emit_plot_datasets([series_fn(a.ledger)], "t", buf_a)
                emit_plot_datasets([series_fn(b.ledger)], "t", buf_b)
                assert buf_a.getvalue().decode() == buf_b.getvalue().decode()


# -- criterion 9 -------------------------------------------------------------

@criterion("criterion 9: layout oracle admits the route sequences uniquely")
def test_criterion_9_layout_oracle():
    from test_layout_oracle import OraclePositions, min_hop_paths
    checks = {
        "scenario1": [(1.0, [0, 2, 4, 5]), (3.004, [0, 1, 5])],
        "scenario2": [(1.0, [0, 7, 3, 5]), (2.304, [0, 7, 5]),
                      (2.603, [0, 1, 4, 5]), (3.1, [0, 9, 4, 5])],
    }
    for name, phases in checks.items():
        oracle = OraclePositions(builtin(name))
        for t, expected in phases:
            paths = min_hop_paths(oracle, expected[0], expected[-1], t)
            assert paths == [expected], \
                f"{name} t={t}: {paths} != unique {expected}"
