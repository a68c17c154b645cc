"""Node positions, waypoint mobility and unit-disk frame delivery.

The radio is an idealized shared medium: two nodes hear each other iff
their Euclidean distance is within the transmission range (boundary
inclusive), every link traversal costs hop_latency plus a small seeded
jitter, and there is no contention or loss beyond being out of range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .engine import Engine
from .errors import OverlappingLegError, UnknownNodeError
from .metrics import EventKind, LedgerEvent, MetricsLedger

# jitter stays below hop_latency/10 so a k-hop flood always beats a
# (k+1)-hop copy for k <= 9; see the shortest-path discovery invariant
JITTER_FRACTION = 0.05


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RadioModel:
    range: float = 250.0
    hop_latency: float = 0.001

    def __post_init__(self):
        if self.range <= 0 or self.hop_latency <= 0:
            raise ValueError("radio range and hop latency must be positive")


@dataclass
class WaypointLeg:
    """Straight-line move of one node, active from start_time to arrival."""

    node: int
    start_time: float
    dest: Position
    speed: float
    start_pos: Position = field(default=None, repr=False)  # filled on registration

    @property
    def arrival_time(self) -> float:
        return self.start_time + self.start_pos.distance_to(self.dest) / self.speed


class UnicastOutcome(Enum):
    SENT = "sent"
    LINK_BREAK = "link-break"


class World:
    """Geometry and frame delivery for one engine instance."""

    def __init__(self, engine: Engine, node_positions: list[Position],
                 radio: RadioModel = RadioModel(), ledger: MetricsLedger | None = None,
                 jitter: float | None = None):
        self.engine = engine
        self.radio = radio
        self.ledger = ledger
        self.jitter = radio.hop_latency * JITTER_FRACTION if jitter is None else jitter
        self._initial = list(node_positions)
        self._legs: dict[int, list[WaypointLeg]] = {i: [] for i in range(len(node_positions))}
        # wired by the simulation: (receiver, sender, message) -> None
        self.deliver: Callable[[int, int, object], None] = lambda r, s, m: None
        self._uid_counter = 0

    def node_ids(self) -> range:
        return range(len(self._initial))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._initial):
            raise UnknownNodeError(f"node {node} not deployed")

    def next_uid(self) -> int:
        self._uid_counter += 1
        return self._uid_counter

    # -- mobility ----------------------------------------------------------

    def apply_movement(self, leg: WaypointLeg) -> None:
        """Register a leg; position_at reflects it from start_time onward."""
        self._check_node(leg.node)
        if leg.speed <= 0:
            raise ValueError("leg speed must be positive")
        existing = self._legs[leg.node]
        if existing and leg.start_time < existing[-1].arrival_time:
            raise OverlappingLegError(
                f"node {leg.node}: leg at {leg.start_time} overlaps one ending "
                f"at {existing[-1].arrival_time:.3f}")
        leg.start_pos = self.position_at(leg.node, leg.start_time)
        existing.append(leg)

    def position_at(self, node: int, t: float) -> Position:
        """Linear interpolation along the active leg, clamped at its end."""
        self._check_node(node)
        pos = self._initial[node]
        for leg in self._legs[node]:
            if t < leg.start_time:
                break
            total = leg.start_pos.distance_to(leg.dest)
            travelled = min(total, leg.speed * (t - leg.start_time))
            if total == 0:
                pos = leg.dest
                continue
            f = travelled / total
            pos = Position(leg.start_pos.x + (leg.dest.x - leg.start_pos.x) * f,
                           leg.start_pos.y + (leg.dest.y - leg.start_pos.y) * f)
        return pos

    def in_range(self, a: int, b: int, t: float) -> bool:
        self._check_node(a)
        self._check_node(b)
        return self.position_at(a, t).distance_to(self.position_at(b, t)) <= self.radio.range

    def neighbors_of(self, node: int, t: float) -> list[int]:
        return [n for n in self.node_ids() if n != node and self.in_range(node, n, t)]

    # -- frame delivery ----------------------------------------------------

    def _delivery_delay(self) -> float:
        return self.radio.hop_latency + self.engine.rng.uniform(0.0, self.jitter)

    def _record_tx(self, sender: int, msg) -> None:
        if self.ledger is None:
            return
        kind = EventKind.CONTROL_TX if msg.kind.is_control else EventKind.DATA_TX
        self.ledger.record(LedgerEvent.of(self.engine.now, kind, sender, msg))

    def broadcast(self, sender: int, msg) -> list[int]:
        """Deliver to every node currently in range; counted as one transmission."""
        self._check_node(sender)
        now = self.engine.now
        receivers = self.neighbors_of(sender, now)
        self._record_tx(sender, msg)
        for r in receivers:
            self.engine.schedule(now + self._delivery_delay(),
                                 lambda r=r: self.deliver(r, sender, msg))
        return receivers

    def unicast(self, sender: int, next_hop: int, msg) -> UnicastOutcome:
        """Point delivery to next_hop, or LinkBreak if it moved out of range."""
        self._check_node(sender)
        self._check_node(next_hop)
        if sender == next_hop:
            raise ValueError("unicast to self")
        now = self.engine.now
        if not self.in_range(sender, next_hop, now):
            return UnicastOutcome.LINK_BREAK
        self._record_tx(sender, msg)
        self.engine.schedule(now + self._delivery_delay(),
                             lambda: self.deliver(next_hop, sender, msg))
        return UnicastOutcome.SENT
