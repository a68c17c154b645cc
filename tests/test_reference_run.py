"""Whole runs against a brute-force world and a plain-heap engine: the same
trace bytes and routes.

The production World answers neighbour queries from a grid and Verlet
lists. ReferenceWorld tests every node at oracle_position, the waypoint
semantics written out in tests/test_world.py, and uses it for every
link check too. The production Engine files events in per-time buckets
with an inlined quantization; ReferenceEngine, from tests/test_engine.py,
keeps one heap entry per event and quantizes with round(t, 6). The
per-function oracles pin each lever on its own; a
whole run compared byte for byte (differential testing: McKeeman,
Digital Technical Journal 10(1), 1998) also catches a lever whose error
only shows once frames, timers and routes build on it.
"""
import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_waypoint_scenario
from manetsim import simulation
from manetsim.metrics import write_trace
from manetsim.scenario import builtin
from manetsim.simulation import PROTOCOLS, Simulation
from test_engine import ReferenceEngine
from test_world import oracle_neighbors, oracle_position


class ReferenceWorld(simulation.World):
    """Every position from oracle_position, every neighbour query a test
    of every node; frame delivery and the jitter draws are the World's."""

    def __init__(self, engine, node_positions, radio, legs=(), seed=0):
        super().__init__(engine, node_positions, radio, legs, seed)
        self.coords = [(p.x, p.y) for p in node_positions]
        self.legs = [[] for _ in node_positions]
        for leg in legs:
            self.legs[leg.node].append((leg.start_time, (leg.dest.x, leg.dest.y), leg.speed))

    def _xy(self, node, t):
        return oracle_position(self.coords[node], self.legs[node], t)

    def neighbors_of(self, node, t):
        self._check_node(node)
        return oracle_neighbors(self.coords, self.legs, self.radio.range, node, t)


def outcome(spec, protocol, seed):
    """trace.txt bytes and route history, BFS hop counts included, of one run."""
    sim = Simulation(spec, protocol, seed=seed).run()
    trace = io.BytesIO()
    write_trace(sim.ledger, trace)
    return trace.getvalue().decode(), sim.route_history


def first_mismatch(trace, reference):
    """Where two traces first part, or None; a plain == would have pytest
    diff the whole traces, which takes minutes at 100,000 lines."""
    ours, theirs = trace.splitlines(), reference.splitlines()
    for k, (a, b) in enumerate(zip(ours, theirs), 1):
        if a != b:
            return f"line {k}: {a!r}, the reference's {b!r}"
    if len(ours) != len(theirs):
        return f"{len(ours)} lines, the reference's {len(theirs)}"
    return None


def assert_same_run(spec, protocol, seed, name="World", reference_class=ReferenceWorld):
    """The run with simulation's class `name` replaced by reference_class
    gives the production run's trace and route history."""
    production = outcome(spec, protocol, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, name, reference_class)
        reference = outcome(spec, protocol, seed)
    assert first_mismatch(production[0], reference[0]) is None
    assert production[1:] == reference[1:]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 40), st.sampled_from(PROTOCOLS),
       st.integers(0, 999))
def test_random_waypoint_runs_match_the_reference_world(scenario_seed, n, protocol, seed):
    spec = random_waypoint_scenario(random.Random(scenario_seed), n,
                                    math.sqrt(n * 25_000.0), 3.0, flows=5)
    assert_same_run(spec, protocol, seed)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 40), st.sampled_from(PROTOCOLS),
       st.integers(0, 999))
def test_random_waypoint_runs_match_the_reference_engine(scenario_seed, n, protocol, seed):
    spec = random_waypoint_scenario(random.Random(scenario_seed), n,
                                    math.sqrt(n * 25_000.0), 3.0, flows=5)
    assert_same_run(spec, protocol, seed, "Engine", ReferenceEngine)


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_builtin_runs_match_the_reference_engine(name, protocol):
    assert_same_run(builtin(name), protocol, 1, "Engine", ReferenceEngine)


@pytest.mark.slow
@pytest.mark.parametrize("protocol, end", [("aodv", 10.0), ("dsdv", 1.0)])
def test_200_random_waypoint_nodes_match_the_reference_world(protocol, end):
    spec = random_waypoint_scenario(random.Random(23), 200, 2000.0, end, flows=5)
    assert_same_run(spec, protocol, 1)
