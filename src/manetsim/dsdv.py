"""Per-node DSDV state machine.

Proactive table-driven baseline: every node keeps a route to every
known destination, re-broadcasts its full table periodically, and
floods incremental updates the moment anything changes. Freshness is
carried by per-destination sequence numbers; even numbers mean
reachable, odd numbers mark a break.

Each node keeps `ranks`, one rank per destination id, and `table`, which
maps each destination it knows, in the order it learned them, to the
next hop. A rank orders routes the way the adopt rule does: rank(seq,
metric) is seq * RANK_SPAN for a break (odd seq, or no metric) and
seq * RANK_SPAN + RANK_SPAN - 1 - metric otherwise. A rank lies in
[seq * RANK_SPAN, (seq + 1) * RANK_SPAN), so a fresher sequence always
ranks higher; at an equal even sequence the shorter metric ranks higher,
and at an equal odd one neither does. A break's rank is a multiple of
RANK_SPAN and a reachable rank is not; every stored rank is above 0, the
rank of an unknown destination. An advertisement carries (dst, offer)
pairs, the offer being the rank the receiver would store: rank - 1 for a
reachable entry, one hop longer, and the rank itself for a break. A
receiver adopts the offers above the ranks it holds, bar its own and a
break of a destination it does not know: one list index and compare each.
"""
from __future__ import annotations

from dataclasses import dataclass

from .packets import DATA, DSDV_UPDATE, DataPacket

UPDATE_BASE_SIZE = 8
UPDATE_PER_ENTRY_SIZE = 12
UPDATE_INTERVAL = 1.0       # seconds between full-table dumps
RANK_SPAN = 2 ** 32         # ranks per sequence number: above every hop count


def rank(seq: int, metric: int | None) -> int:
    """The adopt order of a route; see the module docstring."""
    if seq % 2 or metric is None:
        return seq * RANK_SPAN
    return seq * RANK_SPAN + RANK_SPAN - 1 - metric


@dataclass(slots=True, init=False)
class UpdatePacket:
    """Route advertisement: (dst, offer) pairs; see the module docstring."""

    src: int
    entries: list[tuple[int, int]]
    uid: int
    dst: int
    size: int

    kind = DSDV_UPDATE

    def __init__(self, src: int, entries: list[tuple[int, int]], uid: int, dst: int = -1):
        self.src, self.entries, self.uid, self.dst = src, entries, uid, dst
        self.size = UPDATE_BASE_SIZE + UPDATE_PER_ENTRY_SIZE * len(entries)    # once, not per read


class DsdvNode:
    """One node's table plus the periodic/triggered advertisement logic."""

    # the method a node takes each kind of frame with; see AodvNode.HANDLERS
    HANDLERS = {DATA: "on_receive", DSDV_UPDATE: "handle_update"}

    def __init__(self, node_id: int, sim):
        self.node_id = node_id
        self.sim = sim
        self.ranks = [0] * len(sim.spec.nodes)     # ids are dense: the spec lists the nodes
        self.ranks[node_id] = rank(0, 0)
        self.table: dict[int, int] = {node_id: node_id}

    def start(self) -> None:
        """Arm the full-table dump at 0.0 and every UPDATE_INTERVAL after."""
        self.sim.every(0.0, self.periodic_dump, UPDATE_INTERVAL)

    def next_hop_for(self, dst: int) -> int | None:
        if dst == self.node_id or not self.ranks[dst] % RANK_SPAN:
            return None
        return self.table[dst]

    def queued_count(self) -> int:
        return 0    # table-driven: nothing is ever buffered

    # -- advertisements ----------------------------------------------------

    def periodic_dump(self) -> None:
        """Advertise the full table, in id order, with a fresh (still even) own sequence."""
        ranks = self.ranks
        ranks[self.node_id] += 2 * RANK_SPAN
        self._advertise([(dst, r - 1 if r % RANK_SPAN else r)
                         for dst, r in enumerate(ranks) if r])

    def _advertise(self, offers: list[tuple[int, int]]) -> None:
        """Broadcast (dst, offer) pairs in one update."""
        self.sim.broadcast(self.node_id, UpdatePacket(self.node_id, offers, self.sim.next_uid()))

    triggered_update = _advertise   # changed entries, flooded as they change

    def handle_update(self, sender: int, pkt: UpdatePacket) -> int:
        """Adopt fresher or shorter advertisements; re-flood what changed.

        Most entries change nothing: an offer no higher than the rank held
        is dropped first, by one list index and one compare.
        """
        ranks, offers = self.ranks, None    # no list until an offer is adopted
        for dst, offer in pkt.entries:
            if offer <= ranks[dst] or dst == self.node_id:
                continue
            reachable = offer % RANK_SPAN
            if not (reachable or ranks[dst]):
                continue    # nothing to tear down for an unknown destination
            ranks[dst] = offer
            self.table[dst] = sender
            self.sim.route_changed(dst)
            if offers is None:
                offers = []
            offers.append((dst, offer - 1 if reachable else offer))
        if offers is None:
            return 0
        self.triggered_update(offers)
        return len(offers)

    # -- data path ---------------------------------------------------------

    def forward_data(self, packet: DataPacket) -> None:
        """Unicast via the current table; no discovery, no buffering."""
        dst = packet.dst
        if dst == self.node_id:
            self.sim.data_received(self.node_id, packet)
        elif not self.ranks[dst] % RANK_SPAN:
            self.sim.dropped(self.node_id, packet)
        elif not self.sim.send_unicast(self.node_id, self.table[dst], packet):
            self.sim.dropped(self.node_id, packet)
            self.mark_broken(self.table[dst])

    # the engine drives both protocols through the same entry points
    originate_data = forward_data

    def mark_broken(self, dead_neighbor: int) -> None:
        """Poison every route through a lost neighbor with the next (odd)
        sequence number and flood the news, in the order the table learned
        the destinations."""
        ranks, offers = self.ranks, []
        for dst, next_hop in self.table.items():
            if next_hop == dead_neighbor and dst != self.node_id and ranks[dst] % RANK_SPAN:
                ranks[dst] = r = (ranks[dst] // RANK_SPAN + 1) * RANK_SPAN
                self.sim.route_changed(dst)
                offers.append((dst, r))
        if offers:
            self.triggered_update(offers)

    def on_receive(self, sender: int, msg: DataPacket) -> None:
        """Take a DATA frame, the kind HANDLERS sends here."""
        self.forward_data(msg)
