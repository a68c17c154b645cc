"""Node positions, waypoint mobility and unit-disk frame delivery.

The radio is an idealized shared medium: two nodes hear each other iff
their Euclidean distance is within the transmission range (boundary
inclusive), every link traversal costs hop_latency plus a small seeded
jitter, and there is no contention or loss beyond being out of range.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .engine import Engine
from .errors import OverlappingLegError, UnknownNodeError
from .metrics import EventKind, LedgerEvent, MetricsLedger

# jitter adds at most this share of hop_latency per hop, so a k-hop flood
# beats a (k+1)-hop copy while k * 1.05 < k + 1, that is for k <= 19; see
# the shortest-path discovery invariant
JITTER_FRACTION = 0.05
# simulated seconds one neighbour grid stays valid; see World._grid_at
GRID_WINDOW = 0.5
# grid cells are widened by this share of (reach + largest coordinate) so
# float rounding of positions can never move a neighbour two cells away
GRID_SLACK = 1e-6


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


@dataclass(frozen=True)
class Movement:
    """Straight-line move of one node toward dest, from start_time on."""

    start_time: float
    node: int
    dest: Position
    speed: float


def grid_cell(radio_range: float, v_max: float, extent: float) -> float:
    """Width of a neighbour-grid cell when no node is faster than v_max and
    no coordinate is larger than extent in absolute value when it is built.

    Over GRID_WINDOW coordinates grow by less than the reach, so the
    rounding margin, a share of reach + extent, holds for the whole window.
    """
    reach = radio_range + 2 * v_max * GRID_WINDOW
    return reach + GRID_SLACK * (reach + extent)


class UnicastOutcome(Enum):
    SENT = "sent"
    LINK_BREAK = "link-break"


class World:
    """Geometry and frame delivery for one engine instance.

    Positions are cached for the last query time, and neighbour queries
    only test the nodes binned in the 3x3 grid cells around the asking
    node; the test itself is the exact unit-disk one.
    """

    def __init__(self, engine: Engine, node_positions: list[Position],
                 radio: RadioModel = RadioModel(), ledger: MetricsLedger | None = None,
                 jitter: float | None = None):
        self.engine = engine
        self.radio = radio
        self.ledger = ledger
        self.jitter = radio.hop_latency * JITTER_FRACTION if jitter is None else jitter
        self._initial = list(node_positions)
        # node with legs -> (leg start times, (sx, sy, ex, ey, speed, length, arrival) per leg)
        self._tracks: dict[int, tuple[list[float], list[tuple]]] = {}
        # (x, y) of the nodes that never move, None for the ones that do
        self._fixed: list[tuple[float, float] | None] = [(p.x, p.y) for p in node_positions]
        self._v_max = 0.0
        self._cache_t: float | None = None
        self._cache: list[tuple[float, float] | None] = []
        self._grid: tuple[dict, list] | None = None
        self._grid_span = (0.0, 0.0)
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

    def apply_movement(self, leg: Movement) -> None:
        """Register a leg; position_at reflects it from start_time onward."""
        node = leg.node
        self._check_node(node)
        if leg.speed <= 0:
            raise ValueError("leg speed must be positive")
        starts, paths = self._tracks.setdefault(node, ([], []))
        if paths and leg.start_time < paths[-1][-1]:
            raise OverlappingLegError(
                f"node {node}: leg at {leg.start_time} overlaps one ending "
                f"at {paths[-1][-1]}")
        sx, sy = self._locate(node, leg.start_time)
        ex, ey = leg.dest.x, leg.dest.y
        total = math.hypot(sx - ex, sy - ey)
        starts.append(leg.start_time)
        paths.append((sx, sy, ex, ey, leg.speed, total,
                      leg.start_time + total / leg.speed))
        self._fixed[node] = None
        if leg.speed > self._v_max:
            self._v_max = leg.speed
        self._cache_t = None
        self._grid = None

    def _locate(self, node: int, t: float) -> tuple[float, float]:
        """Uncached position of a node with legs: along the last leg started
        by t, clamped at its end."""
        starts, paths = self._tracks[node]
        i = bisect_right(starts, t)
        if i == 0:
            p = self._initial[node]
            return p.x, p.y
        sx, sy, ex, ey, speed, total, _ = paths[i - 1]
        if total == 0:
            return ex, ey
        f = min(total, speed * (t - starts[i - 1])) / total
        return sx + (ex - sx) * f, sy + (ey - sy) * f

    def _xy(self, node: int, t: float) -> tuple[float, float]:
        """Position of a known node at t, computed at most once per query time."""
        if t != self._cache_t:
            self._cache_t = t
            self._cache = self._fixed.copy()
        p = self._cache[node]
        if p is None:
            p = self._cache[node] = self._locate(node, t)
        return p

    def position_at(self, node: int, t: float) -> Position:
        """Linear interpolation along the active leg, clamped at its end."""
        self._check_node(node)
        return Position(*self._xy(node, t))

    def _linked(self, a: int, b: int, t: float) -> bool:
        xa, ya = self._xy(a, t)
        xb, yb = self._xy(b, t)
        return math.hypot(xa - xb, ya - yb) <= self.radio.range

    def in_range(self, a: int, b: int, t: float) -> bool:
        self._check_node(a)
        self._check_node(b)
        return self._linked(a, b, t)

    def _grid_at(self, t: float) -> tuple[dict, list]:
        """(cell -> sorted nodes of its 3x3 block, cell of each node), valid at t.

        A grid built at t0 serves [t0, t0 + GRID_WINDOW]. In that window a
        node moves at most v_max * GRID_WINDOW from where it was binned
        (Verlet, Phys. Rev. 159, 1967), so two nodes in range at t were
        within range + 2 * v_max * GRID_WINDOW of each other at t0; cells
        that wide (plus a margin for float rounding) put them in adjacent
        cells. Without mobility the grid never expires.
        """
        start, stop = self._grid_span
        if self._grid is not None and start <= t <= stop:
            return self._grid
        coords = [self._xy(node, t) for node in self.node_ids()]
        extent = max((max(abs(x), abs(y)) for x, y in coords), default=0.0)
        cell = grid_cell(self.radio.range, self._v_max, extent)
        home = [(x // cell, y // cell) for x, y in coords]
        members: dict[tuple[float, float], list[int]] = {}
        for node, key in enumerate(home):
            members.setdefault(key, []).append(node)
        blocks = {(cx, cy): sorted(n for i in (cx - 1, cx, cx + 1)
                                   for j in (cy - 1, cy, cy + 1)
                                   for n in members.get((i, j), ()))
                  for cx, cy in members}
        self._grid = blocks, home
        self._grid_span = ((t, t + GRID_WINDOW) if self._v_max > 0
                           else (-math.inf, math.inf))
        return self._grid

    def neighbors_of(self, node: int, t: float) -> list[int]:
        """Nodes within range of node at t, in ascending id order."""
        self._check_node(node)
        blocks, home = self._grid_at(t)
        x, y = self._xy(node, t)
        cache, locate, hypot, r = self._cache, self._locate, math.hypot, self.radio.range
        found = []
        for m in blocks[home[node]]:
            p = cache[m]
            if p is None:
                p = cache[m] = locate(m, t)
            if m != node and hypot(x - p[0], y - p[1]) <= r:
                found.append(m)
        return found

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
        now = self.engine.now
        receivers = self.neighbors_of(sender, now)
        self._record_tx(sender, msg)
        for r in receivers:
            self.engine.post(now + self._delivery_delay(),
                             lambda r=r: self.deliver(r, sender, msg))
        return receivers

    def unicast(self, sender: int, next_hop: int, msg) -> UnicastOutcome:
        """Point delivery to next_hop, or LinkBreak if it moved out of range."""
        self._check_node(sender)
        self._check_node(next_hop)
        if sender == next_hop:
            raise ValueError("unicast to self")
        now = self.engine.now
        if not self._linked(sender, next_hop, now):
            return UnicastOutcome.LINK_BREAK
        self._record_tx(sender, msg)
        self.engine.post(now + self._delivery_delay(),
                         lambda: self.deliver(next_hop, sender, msg))
        return UnicastOutcome.SENT
