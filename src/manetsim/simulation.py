"""Wiring of engine, world, ledger and per-node protocol instances.

One Simulation owns one run; nothing is shared between instances. The
Engine keeps the clock and queue, and files every timer, drain and
emission, an entry (fn, args), through Engine.post_all onto the
microsecond grid of engine.quantize. The World keeps geometry and frame
delivery, and files its frames onto the same grid itself. The
Simulation alone keeps the run's record: ledger, message uids and route
history. Each protocol node
holds its Simulation and acts through it: `engine` for the clock and
timers, and the methods below to number and send frames, record what it
did or tell the route observer a route changed. Once the traffic is
scheduled, each node's `start()` arms its own periodic work through
`every`. Each node class declares one table, HANDLERS, of the method
its nodes take each kind of frame with, and `world.on_receive` holds
those methods per kind and receiver. Every frame, broadcast or unicast,
goes from the engine straight to the receiver's handler, so the DATA
frames in flight are the queued entries that carry a DATA message.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass

from . import scenario as scenario_mod
from .aodv import AodvNode
from .dsdv import DsdvNode
from .engine import TICK, Engine, valid_period
from .metrics import (CONTROL_TX, DATA_TX, DROPPED, RECEIVED, SENT, MetricsLedger, RunSeries,
                      control_overhead, delivery_ratio, mean_value, run_series,
                      transmission_efficiency)
# unused here, but perfbench/tracer.py patches these names in this module
# (ROADMAP item 3 moves the tracer off them)
from .metrics import delay_series, throughput_series  # noqa: F401
from .packets import DATA, DataPacket
from .scenario import ScenarioSpec, TrafficFlow
from .world import UNICAST_SENT, World

NODE_CLASSES = {"aodv": AodvNode, "dsdv": DsdvNode}
PROTOCOLS = tuple(NODE_CLASSES)
HELLO_RULE = f"hello_interval must be 0 or finite and at least {TICK} s"


def valid_hello_interval(value: float) -> bool:
    """HELLO_RULE: 0 turns hellos off; any other interval must be a valid_period."""
    return value == 0 or valid_period(value)


@dataclass
class RunReport:
    """Summary of one run; every number is recomputable from the trace."""

    scenario: str
    protocol: str
    seed: int
    sent: int
    received: int
    dropped: int
    unresolved: int
    lost: int
    delivery_ratio: float
    transmission_efficiency: float | None
    mean_throughput_bps: float
    mean_delay_s: float
    mean_route_stretch: float
    route_changes: int
    control_tx: dict[str, int]


class Simulation:
    """One deterministic run of a scenario under one protocol."""

    def __init__(self, spec: ScenarioSpec, protocol: str = "aodv", seed: int = 0,
                 hello_interval: float = 1.0):
        """hello_interval is the AODV beacon period; see valid_hello_interval."""
        if protocol not in NODE_CLASSES:
            raise ValueError(f"unknown protocol '{protocol}'")
        if not valid_hello_interval(hello_interval):
            raise ValueError(f"{HELLO_RULE}, got {hello_interval}")
        self.spec = spec
        self.protocol = protocol
        self.seed = seed
        self.engine = Engine()
        self.ledger = MetricsLedger()
        self._uid_counter = 0
        self.world = World(self.engine, spec.nodes, spec.radio, spec.movements, seed=seed)
        self.hello_interval = hello_interval
        node_class = NODE_CLASSES[protocol]
        self.nodes = [node_class(i, self) for i in range(len(spec.nodes))]
        # looked up as the run is built, so a wrapper patched onto the class is wired
        self.world.on_receive = {kind: [getattr(node, name) for node in self.nodes]
                                 for kind, name in node_class.HANDLERS.items()}
        # per flow, (t, path, hops): hops is the BFS hop count at t, None out of reach
        self.route_history: dict[tuple[int, int], list[tuple[float, list[int], int | None]]] = {
            (f.src, f.dst): [] for f in spec.flows}
        # per destination, the (src, history) pairs of its flows; see _after_event
        self._flows_to: dict[int, list[tuple[int, list]]] = {}
        for (src, dst), history in self.route_history.items():
            self._flows_to.setdefault(dst, []).append((src, history))
        self.changed_dsts: set[int] = set()   # filled by route_changed
        self.engine.after_event = self._after_event
        self.engine.watch = self.changed_dsts
        # callables run after every processed event: the engine's own list
        self.event_hooks = self.engine.event_hooks
        scenario_mod.compile(spec, self)
        # after the traffic, so an emission fires before a tick due at its time
        for node in self.nodes:
            node.start()

    # -- what protocol nodes call -------------------------------------------

    def every(self, first_at: float, action, interval: float) -> None:
        """Run action at first_at, then every interval while within the run.

        Nothing cancels the chain, so no tick has a handle."""
        self.engine.post_all(((first_at, (self._tick, (action, interval))),))

    def _tick(self, action, interval: float) -> None:
        # re-armed with a fresh entry: a closure that scheduled itself
        # would be a reference cycle left behind when its chain ends
        action()
        next_at = self.engine.now + interval
        if next_at <= self.spec.end_time:
            self.engine.post_all(((next_at, (self._tick, (action, interval))),))

    def route_changed(self, dst: int) -> None:
        """Tell the route observer a node installed or invalidated dst, if a flow goes there."""
        if dst in self._flows_to:
            self.changed_dsts.add(dst)

    def has_active_flow(self, src: int, dst: int) -> bool:
        now = self.engine.now
        return any(f.src == src and f.dst == dst and now < f.stop for f in self.spec.flows)

    def next_uid(self) -> int:
        self._uid_counter += 1
        return self._uid_counter

    def data_received(self, node: int, pkt: DataPacket) -> None:
        # every delivered packet ends here
        self.ledger.record((self.engine.now, RECEIVED, node, DATA, pkt.size, pkt.uid,
                            pkt.src, pkt.dst))

    def dropped(self, node: int, msg) -> None:
        """Record msg dropped at node. Each recorder builds its row as a plain
        tuple in LedgerEvent's field order: the ledger packs it into columns
        soon, and a tuple is the cheapest to build."""
        self.ledger.record((self.engine.now, DROPPED, node, msg.kind, msg.size,
                            msg.uid, msg.src, msg.dst))

    def broadcast(self, sender: int, msg) -> list[int]:
        """Send a control message to every node in range; one transmission."""
        self.ledger.record((self.engine.now, CONTROL_TX, sender, msg.kind, msg.size,
                            msg.uid, msg.src, msg.dst))
        return self.world.broadcast(sender, msg)

    def send_unicast(self, sender: int, next_hop: int, msg) -> bool:
        """Unicast and record msg; False on a link break."""
        if self.world.unicast(sender, next_hop, msg) is not UNICAST_SENT:
            return False
        kind = msg.kind
        self.ledger.record((self.engine.now, DATA_TX if kind is DATA else CONTROL_TX, sender,
                            kind, msg.size, msg.uid, msg.src, msg.dst))
        return True

    # -- engine plumbing -----------------------------------------------------

    def emit_data(self, flow: TrafficFlow) -> None:
        """Send one packet of flow. Every packet starts here, so it numbers the
        packet itself, as next_uid would."""
        self._uid_counter = uid = self._uid_counter + 1
        src, dst, size = flow.src, flow.dst, flow.packet_size
        self.ledger.record((self.engine.now, SENT, src, DATA, size, uid, src, dst))
        self.nodes[src].originate_data(DataPacket(uid, src, dst, size))

    def _after_event(self) -> None:
        # Only flows toward a destination whose entries changed are walked.
        # With next hops fixed, time passing can only turn a complete path
        # into None (expiry), never into a different complete path, and None
        # is never recorded; so refreshing the expiry of an already-active
        # entry needs no route_changed call. Walking and BFS only read state, so
        # each history gets its entries in time order in any walking order.
        changed = self.changed_dsts
        t = self.engine.now
        flows_to = self._flows_to
        for dst in changed:
            for src, history in flows_to.get(dst, ()):
                path = self.walk_route(src, dst)
                if path is not None and (not history or history[-1][1] != path):
                    history.append((t, path, self._bfs_hops(src, dst)))
        changed.clear()

    # -- inspection ----------------------------------------------------------

    def _bfs_hops(self, src: int, dst: int) -> int | None:
        """Minimum hop count in the connectivity graph frozen at the clock."""
        t = self.engine.now
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.world.neighbors_of(u, t):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        if v == dst:
                            return dist[v]
                        nxt.append(v)
            frontier = nxt
        return dist.get(dst)

    def walk_route(self, src: int, dst: int) -> list[int] | None:
        """Follow next hops from src; None unless a complete path exists."""
        path = [src]
        current = src
        seen = {src}
        while current != dst:
            nxt = self.nodes[current].next_hop_for(dst)
            if nxt is None or nxt in seen:
                return None
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path

    @property
    def unresolved_census(self) -> int:
        """Packets still buffered at nodes or in flight when the run ended:
        a frame in flight is a queued entry (handler, (sender, msg))."""
        in_flight = sum(len(args) == 2 and getattr(args[1], "kind", None) is DATA
                        for _, args in self.engine.pending())
        return in_flight + sum(n.queued_count() for n in self.nodes)

    # -- running -------------------------------------------------------------

    def run(self) -> Simulation:
        """Run to the scenario's end with the cyclic collector paused; return self.

        The simulator's own code makes no reference cycles during a run
        (tests/test_simulation.py guards this), so pausing the collector
        frees nothing later that it would have freed now; it only skips its
        passes over the growing heap. event_hooks run paused too, so a cycle
        a hook makes stays in memory until the collector runs after run().

        The route observer has nothing to do after an event that changed no
        route, so the engine calls it only after an event that left
        changed_dsts non-empty, whether or not event_hooks holds a callable.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.engine.run_until(self.spec.end_time)
        finally:
            if collecting:
                gc.enable()
        return self

    # -- results -------------------------------------------------------------

    def report(self, window: float = 0.5) -> RunReport:
        """Summary with throughput averaged over sliding windows of `window` s."""
        return self.summarize(run_series(self.ledger, window, t_end=self.spec.end_time))

    def summarize(self, series: RunSeries) -> RunReport:
        """Summary from this run's series, already derived. The stretch stays
        in ints until its one division, so its sum is exact in any order."""
        led, histories = self.ledger, self.route_history.values()
        extra = [len(path) - 1 - hops for h in histories for _, path, hops in h
                 if hops is not None]
        return RunReport(
            scenario=self.spec.name, protocol=self.protocol, seed=self.seed,
            sent=led.sent, received=led.received, dropped=led.dropped_data,
            unresolved=led.unresolved, lost=led.lost,
            delivery_ratio=delivery_ratio(led),
            transmission_efficiency=transmission_efficiency(led),
            mean_throughput_bps=mean_value(series.throughput),
            mean_delay_s=mean_value(series.delay),
            mean_route_stretch=sum(extra) / len(extra) if extra else 0.0,
            route_changes=sum(max(0, len(h) - 1) for h in histories),
            control_tx=control_overhead(led),
        )
