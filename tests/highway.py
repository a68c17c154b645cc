"""A two-lane highway, and a run that splits its packet loss into topology
and protocol.

The road follows the freeway model of Bai, Sadagopan and Helmy (INFOCOM
2003): 8 km long, two lanes 10 m apart, 60 vehicles placed in its middle
3 km. Lane 0 drives +x and lane 1 drives -x, each vehicle at v times its
own U[0.8, 1.2] factor for the whole run, as one `move` leg. Five CBR
flows of 10 pkt/s and 512 B run between vehicles 300 to 900 m apart.
One seed fixes the layout, the factors, the flows and the run's jitter,
so the runs of one seed at different v differ in speed alone.

`Probe` is a Simulation that counts the sends whose destination was
reachable over the connectivity graph at send time, which no protocol can
beat, and names the call site of each DATA drop.

Run from the repository root, this prints the table README's highway
paragraph reports:

    PYTHONPATH=src python tests/highway.py
"""
import inspect
import random
import sys
from collections import Counter

from manetsim.aodv import AodvNode
from manetsim.dsdv import DsdvNode
from manetsim.packets import DATA
from manetsim.scenario import ScenarioSpec, TrafficFlow
from manetsim.simulation import Simulation
from manetsim.world import Movement, Position, RadioModel

ROAD, LANE_GAP, PLACED = 8000.0, 10.0, (2500.0, 5500.0)
VEHICLES, FLOWS, RATE, SIZE = 60, 5, 10.0, 512
FLOW_SPAN = (300.0, 900.0)      # distance between a flow's vehicles at t = 0
FLOW_START, FLOW_TAIL = 1.0, 0.5    # flows start at 1 s and stop this long before the end
SPEEDS = (0.0, 10.0, 20.0, 30.0, 40.0)  # the v of the claim, in m/s

# per function, a name for each of its `dropped(` calls in source order
DROP_NAMES = {
    AodvNode._drop_queued: ("aodv buffered, discovery gave up or link broke",),
    AodvNode.handle_data: ("aodv unicast failed", "aodv relay without route",
                           "aodv buffer full"),
    DsdvNode.forward_data: ("dsdv no route", "dsdv unicast failed"),
}


def drop_sites() -> dict[tuple, str]:
    """(code object, line) of each DATA drop call -> its name, from the source
    as it is now, so the mapping moves when the code moves."""
    sites = {}
    for fn, names in DROP_NAMES.items():
        lines, first = inspect.getsourcelines(fn)
        calls = [first + i for i, line in enumerate(lines) if ".dropped(" in line]
        if len(calls) != len(names):
            raise RuntimeError(f"{fn.__qualname__} has {len(calls)} drop calls, "
                               f"DROP_NAMES names {len(names)}")
        sites.update(((fn.__code__, line), name) for line, name in zip(calls, names))
    return sites


SITES = drop_sites()


def highway(v: float, seed: int, duration: float = 30.0) -> ScenarioSpec:
    rng = random.Random(seed)
    nodes, movements = [], []
    for i in range(VEHICLES):
        lane = i % 2
        here = Position(rng.uniform(*PLACED), lane * LANE_GAP)
        nodes.append(here)
        speed = v * rng.uniform(0.8, 1.2)
        if speed > 0:
            end_x = here.x + (1 - 2 * lane) * speed * duration
            movements.append(Movement(0.0, i, Position(end_x, here.y), speed))
    pairs = []
    while len(pairs) < FLOWS:
        src, dst = rng.sample(range(VEHICLES), 2)
        gap = abs(nodes[src].x - nodes[dst].x)
        if FLOW_SPAN[0] <= gap <= FLOW_SPAN[1] and (src, dst) not in pairs:
            pairs.append((src, dst))
    flows = [TrafficFlow(src, dst, RATE, SIZE, FLOW_START, duration - FLOW_TAIL)
             for src, dst in pairs]
    return ScenarioSpec(area=(ROAD, LANE_GAP), radio=RadioModel(), nodes=nodes,
                        movements=movements, flows=flows, end_time=duration,
                        name=f"highway-v{v:g}-seed{seed}")


class Probe(Simulation):
    """A run that also counts its sends, the sends whose destination was
    reachable at send time, and its DATA drops by call site."""

    def __init__(self, *args, **kwargs):
        self.sends = self.reachable = 0
        self.drops: Counter[str] = Counter()
        super().__init__(*args, **kwargs)

    def emit_data(self, flow: TrafficFlow) -> None:
        self.sends += 1
        self.reachable += self._bfs_hops(flow.src, flow.dst) is not None
        super().emit_data(flow)

    def dropped(self, node: int, msg) -> None:
        if msg.kind == DATA:
            caller = sys._getframe(1)
            self.drops[SITES[caller.f_code, caller.f_lineno]] += 1
        super().dropped(node, msg)


def measure(protocol: str, v: float, seeds=(1, 2, 3), duration: float = 30.0) -> dict:
    """Sends, reachable sends, deliveries and drops by site, summed over seeds."""
    total = {"sends": 0, "reachable": 0, "received": 0, "drops": Counter()}
    for seed in seeds:
        run = Probe(highway(v, seed, duration), protocol=protocol, seed=seed).run()
        total["sends"] += run.sends
        total["reachable"] += run.reachable
        total["received"] += run.ledger.received
        total["drops"] += run.drops
    return total


def ratio(m: dict) -> float:
    """PDR over the reachable share: deliveries per reachable send."""
    return m["received"] / m["reachable"]


if __name__ == "__main__":
    print("| v (m/s) | reachable at send | AODV PDR | AODV PDR / reachable "
          "| DSDV PDR | DSDV PDR / reachable |")
    for v in SPEEDS:
        aodv, dsdv = measure("aodv", v), measure("dsdv", v)
        print(f"| {v:g} | {aodv['reachable'] / aodv['sends']:.3f} "
              f"| {aodv['received'] / aodv['sends']:.3f} | {ratio(aodv):.3f} "
              f"| {dsdv['received'] / dsdv['sends']:.3f} | {ratio(dsdv):.3f} |")
        for name, m in (("aodv", aodv), ("dsdv", dsdv)):
            print(f"  {name} drops: {dict(m['drops'].most_common())}")
