"""Standalone connectivity oracle for the bundled layouts.

Deliberately independent of the world module: its own interpolation,
its own distances, its own BFS. The shipped coordinates must make the
expected route the unique minimum-hop path at every discovery instant.
"""
import math
from collections import deque

from manetsim.scenario import builtin


class OraclePositions:
    def __init__(self, spec):
        self.range = spec.radio.range
        self.initial = [(p.x, p.y) for p in spec.nodes]
        self.legs = {}
        for m in spec.movements:   # builtins have one leg per mover
            assert m.node not in self.legs
            self.legs[m.node] = (m.start_time, (m.dest.x, m.dest.y), m.speed)

    def pos(self, n, t):
        p = self.initial[n]
        if n not in self.legs:
            return p
        t0, dest, speed = self.legs[n]
        if t <= t0:
            return p
        total = math.dist(p, dest)
        travelled = min(total, speed * (t - t0))
        f = travelled / total
        return (p[0] + (dest[0] - p[0]) * f, p[1] + (dest[1] - p[1]) * f)

    def connected(self, a, b, t):
        return math.dist(self.pos(a, t), self.pos(b, t)) <= self.range

    def adjacency(self, t):
        n = len(self.initial)
        return {a: [b for b in range(n) if b != a and self.connected(a, b, t)]
                for a in range(n)}


def min_hop_paths(oracle, src, dst, t):
    """Every minimum-hop src->dst path in the snapshot graph at t."""
    adj = oracle.adjacency(t)
    level = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    if dst not in level:
        return []
    paths = []

    def backtrack(node, suffix):
        if node == src:
            paths.append([src] + suffix)
            return
        for p in adj[node]:
            if level.get(p) == level[node] - 1:
                backtrack(p, [node] + suffix)

    backtrack(dst, [])
    return paths


def assert_unique_route(oracle, t, expected):
    paths = min_hop_paths(oracle, expected[0], expected[-1], t)
    assert paths == [expected], (
        f"at t={t}: min-hop paths {paths}, expected unique {expected}")


def test_scenario1_connectivity_sequence():
    oracle = OraclePositions(builtin("scenario1"))
    assert_unique_route(oracle, 1.0, [0, 2, 4, 5])
    # node 5 leaves node 4's range strictly before 3.0 and is already
    # inside node 1's range when the source rediscovers
    assert oracle.connected(4, 5, 2.9)
    assert not oracle.connected(4, 5, 3.0)
    assert oracle.connected(1, 5, 3.0)
    assert_unique_route(oracle, 3.004, [0, 1, 5])
    for k in range(20):
        t = 3.05 + k * 0.1
        assert oracle.connected(0, 1, t) and oracle.connected(1, 5, t)
        assert not oracle.connected(2, 5, t) and not oracle.connected(0, 5, t)


def test_scenario2_connectivity_sequence():
    oracle = OraclePositions(builtin("scenario2"))
    assert_unique_route(oracle, 1.0, [0, 7, 3, 5])

    # break 1: 3-5 down by 2.3, 7-5 already up
    assert oracle.connected(3, 5, 2.2)
    assert not oracle.connected(3, 5, 2.3)
    assert oracle.connected(7, 5, 2.3)
    assert_unique_route(oracle, 2.304, [0, 7, 5])

    # node 4 moves at 2.0 without touching the active route
    for t in (2.0, 2.1, 2.2):
        assert oracle.connected(0, 7, t)
        assert oracle.connected(7, 3, t)
        assert oracle.connected(3, 5, t - 0.05)

    # break 2: 7 departs node 5 after 2.5
    assert oracle.connected(7, 5, 2.502)
    assert not oracle.connected(7, 5, 2.602)
    assert_unique_route(oracle, 2.603, [0, 1, 4, 5])
    for k in range(40):
        t = 2.61 + k * 0.01
        assert oracle.connected(0, 1, t) and oracle.connected(1, 4, t) \
            and oracle.connected(4, 5, t)

    # break 3: 0 departs node 1 after 3.0, lands inside node 9's range
    assert oracle.connected(0, 1, 3.0)
    assert not oracle.connected(0, 1, 3.1)
    assert oracle.connected(0, 9, 3.1)
    assert_unique_route(oracle, 3.1, [0, 9, 4, 5])
    for k in range(19):
        t = 3.11 + k * 0.1
        assert oracle.connected(0, 9, t) and oracle.connected(9, 4, t) \
            and oracle.connected(4, 5, t)
        assert not oracle.connected(0, 1, t)


def test_oracle_matches_world_geometry():
    # the independent oracle and the world module must agree edge for edge
    from manetsim.simulation import Simulation
    for name in ("scenario1", "scenario2"):
        spec = builtin(name)
        oracle = OraclePositions(spec)
        sim = Simulation(spec, "aodv", seed=0)
        n = len(spec.nodes)
        for k in range(26):
            t = k * 0.2
            for a in range(n):
                for b in range(a + 1, n):
                    assert oracle.connected(a, b, t) == sim.world.in_range(a, b, t)
