"""Seeded scenario generator and the benchmark's workload definitions.

The program under test only ever sees the `.scn` text that `generate`
returns. A workload is a suite of `scenarios` independent draws from
one workload seed: the cost of a single random-waypoint scenario swings
by a fifth from seed to seed (route breaks, and so AODV rediscoveries,
are close to a Poisson count), and summing over a suite is what keeps
the cost of the workload nearly the same for every seed.

Mobility is the random-waypoint model of Broch et al., "A Performance
Comparison of Multi-Hop Wireless Ad Hoc Network Routing Protocols"
(MobiCom 1998): half the nodes move, the first leg starts at U[0, 2] s,
every leg goes to a uniform point of the field at U[1, 20] m/s, and
each arrival is followed by a U[0.1, 1] s pause.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from manetsim.scenario import (Movement, ScenarioSpec, TrafficFlow, parse,
                               serialize)
from manetsim.world import Position, RadioModel

RADIO_RANGE = 250.0
HOP_LATENCY = 0.001
PACKET_SIZE = 512
FLOW_START = 1.0
FLOW_TAIL = 0.5             # flows stop this long before the end of the run
FIRST_LEG_MAX = 2.0
SPEED_RANGE = (1.0, 20.0)
PAUSE_RANGE = (0.1, 1.0)
AREA_PER_NODE = 9000.0      # Broch's 1500 x 300 m field holds 50 nodes
DIGITS = 3                  # generated values are rounded to millimetres / ms


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    nodes: int
    area: tuple[float, float]
    mobile: bool
    flows: int
    rate: float             # packets per second per flow
    duration: float         # simulated seconds
    flow_hops: int          # hop distance of every flow pair at t = 0
    scenarios: int          # independent scenarios drawn per workload seed
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("aodv-rwp-200", "aodv", 200, (3000.0, 600.0), True, 5, 10.0, 10.0, 2, 16,
             "RREQ floods over 200 nodes make world neighbour scans dominate; "
             "ledger and outputs stay small"),
    Workload("dsdv-rwp-40", "dsdv", 40, (1500.0, 300.0), True, 5, 10.0, 10.0, 3, 5,
             "DSDV triggered-update storm: the most engine events per scenario, "
             "broadcast fan-out and heap churn; AODV code is bypassed"),
    Workload("aodv-static-cbr", "aodv", 40, (1000.0, 1000.0), False, 10, 20.0, 60.0, 3, 6,
             "one discovery per flow, then the route observer, unicast data path, "
             "ledger and 60k-line trace writing dominate"),
)}


def rwp_workload(protocol: str, nodes: int) -> Workload:
    """Random-waypoint case at Broch's node density, for the scaling sweep."""
    width = math.sqrt(nodes * AREA_PER_NODE * 5)
    area = (round(width, DIGITS), round(width / 5, DIGITS))
    return Workload(f"{protocol}-rwp-{nodes}", protocol, nodes, area, True,
                    5, 10.0, 10.0, 3, 1, "scaling sweep")


def _point(rng: random.Random, area: tuple[float, float]) -> Position:
    return Position(round(rng.uniform(0, area[0]), DIGITS),
                    round(rng.uniform(0, area[1]), DIGITS))


def _waypoint_legs(rng: random.Random, node: int, start: Position,
                   w: Workload) -> list[Movement]:
    legs = []
    here = start
    t = round(rng.uniform(0, FIRST_LEG_MAX), DIGITS)
    while t < w.duration:
        dest = _point(rng, w.area)
        speed = round(rng.uniform(*SPEED_RANGE), DIGITS)
        legs.append(Movement(t, node, dest, speed))
        arrival = t + math.hypot(dest.x - here.x, dest.y - here.y) / speed
        # the minimum pause dwarfs the rounding, so legs never overlap
        t = round(arrival + rng.uniform(*PAUSE_RANGE), DIGITS)
        here = dest
    return legs


def _hop_counts(nodes: list[Position], src: int) -> dict[int, int]:
    """BFS hop count from src over the unit-disk graph of fixed positions."""
    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            pu = nodes[u]
            for v, pv in enumerate(nodes):
                if v not in hops and math.hypot(pu.x - pv.x, pu.y - pv.y) <= RADIO_RANGE:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def _flow_pairs(rng: random.Random, nodes: list[Position],
                w: Workload) -> list[tuple[int, int]] | None:
    """Distinct random pairs exactly w.flow_hops apart, or None if too rare."""
    pairs: list[tuple[int, int]] = []
    for _ in range(20 * w.flows):
        src = rng.randrange(len(nodes))
        ring = sorted(v for v, h in _hop_counts(nodes, src).items() if h == w.flow_hops)
        if ring:
            pair = (src, rng.choice(ring))
            if pair not in pairs:
                pairs.append(pair)
                if len(pairs) == w.flows:
                    return pairs
    return None


def build_spec(w: Workload, seed: int, index: int = 0) -> ScenarioSpec:
    """Scenario `index` of a workload's suite; a pure function of its arguments.

    Layouts are redrawn until the t = 0 graph is connected and every flow
    spans exactly w.flow_hops hops. Fixing the flood size and the route
    length keeps the cost of a workload nearly the same from seed to seed.
    """
    rng = random.Random(f"{w.name}/{seed}/{index}")
    while True:
        nodes = [_point(rng, w.area) for _ in range(w.nodes)]
        if len(_hop_counts(nodes, 0)) == w.nodes:
            pairs = _flow_pairs(rng, nodes, w)
            if pairs is not None:
                break
    movements: list[Movement] = []
    if w.mobile:
        for node in sorted(rng.sample(range(w.nodes), w.nodes // 2)):
            movements += _waypoint_legs(rng, node, nodes[node], w)
    flows = [TrafficFlow(src, dst, w.rate, PACKET_SIZE, FLOW_START,
                         w.duration - FLOW_TAIL) for src, dst in pairs]
    return ScenarioSpec(area=w.area,
                        radio=RadioModel(range=RADIO_RANGE, hop_latency=HOP_LATENCY),
                        nodes=nodes,
                        movements=sorted(movements, key=lambda m: (m.start_time, m.node)),
                        flows=flows, end_time=w.duration, name=w.name)


def generate(w: Workload, seed: int, index: int = 0) -> str:
    """Scenario text; raises if it does not parse back to the same spec."""
    spec = build_spec(w, seed, index)
    text = serialize(spec)
    if parse(text, name=w.name) != spec:
        raise RuntimeError(f"{w.name} seed {seed} scenario {index}: "
                           "parse(serialize(spec)) != spec")
    return text


def suite(w: Workload, seed: int) -> list[str]:
    """The scenario texts of one workload seed."""
    return [generate(w, seed, k) for k in range(w.scenarios)]
