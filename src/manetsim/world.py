"""Node positions, waypoint mobility and unit-disk frame delivery.

A node moves along straight legs and sits exactly at a leg's
destination from its arrival on. The radio is an idealized shared
medium: two nodes hear each other iff their Euclidean distance is
within the transmission range (boundary inclusive), every link
traversal costs hop_latency plus a jitter of up to JITTER_FRACTION of
it, drawn from the world's own seeded RNG, and there is no contention
or loss beyond being out of range. A frame goes onto the event queue
as the entry (handler, (sender, msg)), to the handler on_receive names
for its kind and receiver; a broadcast's receivers share one
(sender, msg). World files its frames itself, quantizing each fire time
with Engine.post_all's arithmetic written out, so a transmission makes
no pair list and no call into the engine. The world keeps no record of
the run: the Simulation that sends a frame logs it.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappush
from typing import Callable

from .engine import HALF_EVEN, TICK_LIMIT, TICKS_PER_S, TIME_RESOLUTION_DIGITS, Engine
from .errors import PastTimeError, ScenarioSemanticError, UnknownNodeError
from .packets import MESSAGE_KINDS

# jitter adds at most this share of hop_latency per hop, so a k-hop flood
# beats a (k+1)-hop copy while k * 1.05 < k + 1, that is for k <= 19; see
# the shortest-path discovery invariant
JITTER_FRACTION = 0.05
# simulated seconds one positions snapshot stays valid; see World._snapshot.
# A query locates every member of the Verlet shell, 2 * v_max * GRID_WINDOW
# wide on each side of the range: 2 m at 20 m/s, not 20 m as at 0.5 s.
# Floods follow the synchronized 1 s dumps, so a short window adds few
# snapshots: on dsdv-rwp-40, 0.5 -> 0.05 s cut the shell members tested from
# 188,219 to 17,693 for 78 snapshots instead of 59. Shorter ran no faster.
GRID_WINDOW = 0.05
# the Verlet slack is widened by this share of (reach + largest coordinate)
# so float rounding can never leave a node in range out of both lists
GRID_SLACK = 1e-6


@dataclass(frozen=True)
class Position:
    x: float
    y: float


@dataclass(frozen=True)
class RadioModel:
    range: float = 250.0
    hop_latency: float = 0.001

    def __post_init__(self):
        if not (0 < self.range < math.inf and 0 < self.hop_latency < math.inf):
            raise ScenarioSemanticError("radio range and hop latency must be positive and finite")


@dataclass(frozen=True)
class Movement:
    """Straight-line move of one node toward dest, from start_time on."""

    start_time: float
    node: int
    dest: Position
    speed: float


def tracks(initial: list[Position], legs) -> dict[int, tuple[list[float], list[tuple]]]:
    """Per node with legs: its leg start times and one (sx, sy, ex, ey, speed,
    length, arrival) per leg. A leg starts where the node's leg before it
    ends, or at its initial position, and not before that leg's arrival.

    Raises ScenarioSemanticError for an unknown node, counting an id that
    is not an int, such as 1.0 or True; a speed that is not positive and
    finite; or a leg that overlaps the one before it.
    """
    out: dict[int, tuple[list[float], list[tuple]]] = {}
    for leg in legs:
        node, start, speed = leg.node, leg.start_time, leg.speed
        if type(node) is not int or not 0 <= node < len(initial):
            raise ScenarioSemanticError(f"move references unknown node {node!r}")
        if not 0 < speed < math.inf:
            raise ScenarioSemanticError(f"move for node {node} has speed {speed}")
        starts, paths = out.setdefault(node, ([], []))
        if paths:
            _, _, sx, sy, _, _, arrival = paths[-1]
            if start < arrival:
                raise ScenarioSemanticError(
                    f"node {node}: leg at {start} overlaps one ending at {arrival}")
        else:
            sx, sy = initial[node].x, initial[node].y
        ex, ey = leg.dest.x, leg.dest.y
        length = math.hypot(sx - ex, sy - ey)
        starts.append(start)
        paths.append((sx, sy, ex, ey, speed, length, start + length / speed))
    return out


def _ignore(*frame) -> None:
    """Frame handler of a World no Simulation has wired."""


class UnicastOutcome(Enum):
    SENT = "sent"
    LINK_BREAK = "link-break"


# bound once: on CPython 3.11 UnicastOutcome.X is a descriptor lookup per call
UNICAST_SENT, LINK_BREAK = UnicastOutcome


class World:
    """Geometry, mobility and frame delivery for one engine instance.

    A node that never moves is at its fixed point, any other where its legs put
    it; no position is kept per query time. A snapshot keeps the positions and
    x order of its start t0, and a node's first neighbour query in its window
    splits the band of nodes whose x is within range + slack of its own into
    Verlet lists: `sure` within range - slack and `shell` within range + slack.
    slack is 2 * v_max * GRID_WINDOW plus a rounding margin, a 1e-6 share of
    reach + extent, ten orders of magnitude above the rounding error of
    positions and distances. Two nodes' distance changes by at most 2 * v_max *
    (t - t0), so at every query in the window, in any order, every sure node is
    in range and no node outside both lists is: queries test only the shell.
    """

    def __init__(self, engine: Engine, node_positions: list[Position], radio: RadioModel,
                 legs=(), seed: int = 0):
        """legs are Movements, in time order per node; see tracks."""
        self.engine = engine
        self.radio = radio
        self.rng = random.Random(seed)
        self.jitter = radio.hop_latency * JITTER_FRACTION
        self._initial = list(node_positions)
        self._tracks = tracks(self._initial, legs)
        # (x, y) of the nodes that never move, None for the ones that do
        self._fixed: list[tuple[float, float] | None] = [
            None if node in self._tracks else (p.x, p.y) for node, p in enumerate(self._initial)]
        self._v_max = max((path[4] for _, paths in self._tracks.values() for path in paths),
                          default=0.0)
        self._span = (math.inf, -math.inf)   # empty until a snapshot is taken
        # the snapshot's positions at t0, ids sorted by x, their x and slack,
        # and per node its (sure, shell) lists in its window; see the class docstring
        self._coords, self._by_x, self._xs, self._slack = [], [], [], 0.0
        self._lists: list[tuple[list[int], list[int]] | None] = []
        # wired by the simulation: on_receive[kind][r](sender, message) takes
        # node r's frames of that kind; until then frames are dropped on arrival
        self.on_receive: dict[str, list[Callable[[int, object], None]]] = {
            kind: [_ignore] * len(node_positions) for kind in MESSAGE_KINDS}

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._initial):
            raise UnknownNodeError(f"node {node} not deployed")

    def _locate(self, node: int, t: float) -> tuple[float, float]:
        """Position of a node with legs: along the last leg started by t,
        exactly at its destination from its arrival on."""
        starts, paths = self._tracks[node]
        i = bisect_right(starts, t)
        if i == 0:
            p = self._initial[node]
            return p.x, p.y
        sx, sy, ex, ey, speed, total, arrival = paths[i - 1]
        if t >= arrival:
            return ex, ey
        f = min(total, speed * (t - starts[i - 1])) / total
        return sx + (ex - sx) * f, sy + (ey - sy) * f

    def _xy(self, node: int, t: float) -> tuple[float, float]:
        """Position of a known node at t; see the class docstring."""
        return self._fixed[node] or self._locate(node, t)

    def position_at(self, node: int, t: float) -> Position:
        """Linear interpolation along the active leg, clamped at its end."""
        self._check_node(node)
        return Position(*self._xy(node, t))

    def in_range(self, a: int, b: int, t: float) -> bool:
        self._check_node(a)
        self._check_node(b)
        xa, ya = self._xy(a, t)
        xb, yb = self._xy(b, t)
        return math.hypot(xa - xb, ya - yb) <= self.radio.range

    def _snapshot(self, t: float) -> None:
        """Take every node's position at t and the node ids sorted by x,
        valid in _span.

        A snapshot taken at t0 serves [t0, t0 + GRID_WINDOW]. In that window
        a node moves at most v_max * GRID_WINDOW (Verlet, Phys. Rev. 159,
        1967), so two nodes in range at t were within the reach, range +
        2 * v_max * GRID_WINDOW, of each other at t0, and their x within it
        too; range + slack exceeds the reach by the rounding margin. Without
        mobility the snapshot never expires.
        """
        coords = [self._xy(node, t) for node in range(len(self._initial))]
        extent = max((max(abs(x), abs(y)) for x, y in coords), default=0.0)
        reach = self.radio.range + 2 * self._v_max * GRID_WINDOW
        xs_by_id = [x for x, _ in coords]
        self._by_x = sorted(range(len(coords)), key=xs_by_id.__getitem__)
        self._xs = [xs_by_id[node] for node in self._by_x]
        self._span = (t, t + GRID_WINDOW) if self._v_max > 0 else (-math.inf, math.inf)
        self._coords = coords
        self._slack = 2 * self._v_max * GRID_WINDOW + GRID_SLACK * (reach + extent)
        self._lists = [None] * len(coords)

    def neighbors_of(self, node: int, t: float) -> list[int]:
        """Nodes within range of node at t, in ascending id order, from the
        node's Verlet lists, split from the snapshot's positions and kept
        for its window; see the World docstring. Inlines _check_node and _xy."""
        if not 0 <= node < len(self._initial):
            raise UnknownNodeError(f"node {node} not deployed")
        start, stop = self._span
        if not start <= t <= stop:
            self._snapshot(t)
        lists = self._lists[node]
        if lists is None:
            lists = self._lists[node] = self._split(node)
        sure, shell = lists
        found = sure.copy()
        if shell:
            fixed, locate, hypot, r = self._fixed, self._locate, math.hypot, self.radio.range
            x, y = fixed[node] or locate(node, t)
            for m in shell:
                p = fixed[m] or locate(m, t)
                if hypot(x - p[0], y - p[1]) <= r:
                    found.append(m)
            if len(found) > len(sure):
                found.sort()
        return found

    def _split(self, node: int) -> tuple[list[int], list[int]]:
        """(sure, shell): node's Verlet lists, split from its band in id order."""
        coords, dist, xs = self._coords, math.dist, self._xs
        here = coords[node]
        inner, outer = self.radio.range - self._slack, self.radio.range + self._slack
        band = self._by_x[bisect_left(xs, here[0] - outer):bisect_right(xs, here[0] + outer)]
        sure, shell = [], []
        for m in sorted(band):
            d = dist(here, coords[m])
            if d <= outer and m != node:
                (sure if d <= inner else shell).append(m)
        return sure, shell

    # -- frame delivery ----------------------------------------------------
    #
    # Both senders file their frames themselves: fire_at = now + (latency +
    # jitter * draw()), quantized as Engine.post_all quantizes it, whose
    # comment proves the integer-tick step exact (k / TICKS_PER_S, k the
    # whole number of ticks x rounds to), then appended to its bucket list;
    # a new bucket's time goes on the engine's heap. A frame filed for the
    # bucket the engine is draining joins its back and runs in that drain.
    # broadcast binds the tick constants once, outside its receiver loop.
    # rng.uniform(0.0, j) is 0.0 + j * rng.random(): the draw is the same
    # float, and the parentheses keep the sum's rounding.

    def broadcast(self, sender: int, msg) -> list[int]:
        """Deliver to every node currently in range; one transmission.

        Each frame goes straight to the receiver's handler for msg's kind,
        looked up once per broadcast, one hop_latency plus a jitter draw
        from now, drawn in receiver order.
        """
        engine = self.engine
        now = engine.now
        receivers = self.neighbors_of(sender, now)
        handlers, draw, frame = self.on_receive[msg.kind], self.rng.random, (sender, msg)
        latency, jitter = self.radio.hop_latency, self.jitter
        queue, buckets = engine._queue, engine._buckets
        ticks_per_s, half_even, tick_limit = TICKS_PER_S, HALF_EVEN, TICK_LIMIT
        for receiver in receivers:
            fire_at = now + (latency + jitter * draw())
            x = fire_at * ticks_per_s
            k = x + half_even - half_even
            r = x - k
            if 0.0 < x < tick_limit and r * r < 0.2401:
                fire_at = k / ticks_per_s
            else:
                fire_at = round(fire_at, TIME_RESOLUTION_DIGITS)
            if not fire_at >= now:
                raise PastTimeError(f"schedule at {fire_at} before clock {now}")
            bucket = buckets.get(fire_at)
            if bucket is None:
                bucket = buckets[fire_at] = []
                heappush(queue, fire_at)
            bucket.append((handlers[receiver], frame))
        return receivers

    def unicast(self, sender: int, next_hop: int, msg) -> UnicastOutcome:
        """Point delivery to next_hop, or LinkBreak if it moved out of range.

        sender is the calling node's own id; next_hop is checked, so a bad
        routing entry raises instead of indexing another node. The frame
        goes to next_hop's handler for msg's kind like a broadcast frame,
        after the same jitter draw. Every data hop runs this, so it inlines
        in_range's distance test and _xy; math.dist(a, b) is math.hypot of
        the coordinate differences, computed the same way.
        """
        if not 0 <= next_hop < len(self._initial):
            raise UnknownNodeError(f"node {next_hop} not deployed")
        if sender == next_hop:
            raise ValueError("unicast to self")
        engine = self.engine
        now = engine.now
        fixed = self._fixed
        a = fixed[sender] or self._locate(sender, now)
        b = fixed[next_hop] or self._locate(next_hop, now)
        if not math.dist(a, b) <= self.radio.range:
            return LINK_BREAK
        entry = (self.on_receive[msg.kind][next_hop], (sender, msg))
        fire_at = now + (self.radio.hop_latency + self.jitter * self.rng.random())
        x = fire_at * TICKS_PER_S
        k = x + HALF_EVEN - HALF_EVEN
        r = x - k
        if 0.0 < x < TICK_LIMIT and r * r < 0.2401:
            fire_at = k / TICKS_PER_S
        else:
            fire_at = round(fire_at, TIME_RESOLUTION_DIGITS)
        if not fire_at >= now:
            raise PastTimeError(f"schedule at {fire_at} before clock {now}")
        bucket = engine._buckets.get(fire_at)
        if bucket is None:
            bucket = engine._buckets[fire_at] = []
            heappush(engine._queue, fire_at)
        bucket.append(entry)
        return UNICAST_SENT
