"""Shared builders: programmatic scenarios and pre-wired simulations."""
import math
import random

from manetsim.scenario import ScenarioSpec, TrafficFlow
from manetsim.simulation import Simulation
from manetsim.world import Movement, Position, RadioModel


def build_spec(positions, movements=(), flows=(), end=10.0, radio_range=250.0,
               name="test", area=(800.0, 800.0)):
    return ScenarioSpec(area=area,
                        radio=RadioModel(range=radio_range, hop_latency=0.001),
                        nodes=[Position(float(x), float(y)) for x, y in positions],
                        movements=list(movements), flows=list(flows),
                        end_time=end, name=name)


def build_sim(positions, protocol="aodv", seed=0, flows=(), movements=(),
              end=10.0, hello_interval=0.0, radio_range=250.0, area=(800.0, 800.0)):
    """Simulation with jitter off and hellos off unless asked for."""
    spec = build_spec(positions, movements, flows, end, radio_range, area=area)
    sim = Simulation(spec, protocol=protocol, seed=seed, hello_interval=hello_interval)
    sim.world.jitter = 0.0
    return sim


def pending_count(engine):
    """Events an Engine has queued and not yet run."""
    return sum(1 for _ in engine.pending())


def is_pending(engine, handle):
    """Whether the event of a (bucket, entry) handle from Engine.schedule is
    still queued: its entry, by identity, is among the queued ones."""
    return any(entry is handle[1] for entry in engine.pending())


def next_hop_graph(sim, dst):
    """node -> active next hop toward dst, for loop-freedom checks."""
    graph = {}
    for node in sim.nodes:
        if node.node_id == dst:
            continue
        nxt = node.next_hop_for(dst)
        if nxt is not None:
            graph[node.node_id] = nxt
    return graph


def assert_loop_free(sim):
    """No node's chain of next hops toward any destination revisits a node."""
    for dst in range(len(sim.nodes)):
        graph = next_hop_graph(sim, dst)
        for start in graph:
            cur, seen = start, set()
            while cur in graph:
                assert cur not in seen, f"routing loop toward {dst} at t={sim.engine.now:.6f}"
                seen.add(cur)
                cur = graph[cur]


def random_connected_positions(rnd: random.Random, n: int, radio_range=250.0,
                               area=(800.0, 800.0)):
    """Random layout on area rejected until its unit-disk graph is connected."""
    while True:
        pts = [(rnd.uniform(0, area[0]), rnd.uniform(0, area[1])) for _ in range(n)]
        seen = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for b in range(n):
                if b not in seen:
                    dx = pts[a][0] - pts[b][0]
                    dy = pts[a][1] - pts[b][1]
                    if (dx * dx + dy * dy) ** 0.5 <= radio_range:
                        seen.add(b)
                        frontier.append(b)
        if len(seen) == n:
            return pts


def random_scenario(rnd: random.Random, max_nodes=10, end=3.0):
    """Arbitrary (possibly disconnected) mobile scenario for property tests."""
    n = rnd.randint(2, max_nodes)
    positions = [(rnd.uniform(0, 800), rnd.uniform(0, 800)) for _ in range(n)]
    movements = []
    for node in range(n):
        here = positions[node]
        t = rnd.uniform(0.0, end / 2)
        for _ in range(rnd.randint(0, 2)):
            if t >= end:
                break
            dest = Position(rnd.uniform(0, 800), rnd.uniform(0, 800))
            speed = rnd.uniform(20, 400)
            movements.append(Movement(t, node, dest, speed))
            travel = ((dest.x - here[0]) ** 2 + (dest.y - here[1]) ** 2) ** 0.5 / speed
            t += travel + rnd.uniform(0.05, 0.5)
            here = (dest.x, dest.y)
    flows = []
    for _ in range(rnd.randint(1, 3)):
        src = rnd.randrange(n)
        dst = rnd.randrange(n)
        if src == dst:
            continue
        start = rnd.uniform(0.0, end / 2)
        stop = rnd.uniform(start + 0.2, end)
        flows.append(TrafficFlow(src, dst, rate=rnd.choice([5.0, 10.0, 20.0]),
                                 packet_size=512, start=start, stop=stop))
    if not flows:
        flows = [TrafficFlow(0, n - 1, 10.0, 512, 0.5, end)]
    return build_spec(positions, movements, flows, end)


def random_waypoint_scenario(rnd: random.Random, n: int, side: float, end: float,
                             flows=3):
    """Random waypoint on a side x side field: half the nodes move, at
    1-20 m/s with 0.1-1 s pauses, and CBR flows join random pairs."""
    positions = [(round(rnd.uniform(0, side), 3), round(rnd.uniform(0, side), 3))
                 for _ in range(n)]
    movements = []
    for node in rnd.sample(range(n), n // 2):
        here = positions[node]
        t = round(rnd.uniform(0.0, 1.0), 3)
        while t < end:
            dest = Position(round(rnd.uniform(0, side), 3), round(rnd.uniform(0, side), 3))
            speed = round(rnd.uniform(1.0, 20.0), 3)
            movements.append(Movement(t, node, dest, speed))
            travel = math.hypot(dest.x - here[0], dest.y - here[1]) / speed
            t = round(t + travel + rnd.uniform(0.1, 1.0), 3)
            here = (dest.x, dest.y)
    pairs = []
    while len(pairs) < flows:
        src, dst = rnd.sample(range(n), 2)
        pairs.append(TrafficFlow(src, dst, rate=10.0, packet_size=512,
                                 start=round(rnd.uniform(0.1, 0.5), 3), stop=end))
    return build_spec(positions, movements, pairs, end, area=(side, side))
