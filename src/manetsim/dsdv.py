"""Per-node DSDV state machine.

Proactive table-driven baseline: every node keeps a route to every
known destination, re-broadcasts its full table periodically, and
floods incremental updates the moment anything changes. Freshness is
carried by per-destination sequence numbers; even numbers mean
reachable, odd numbers mark a break.

The table maps a destination to the pair (next_hop, rank), the rank
being one integer that orders routes the way the adopt rule does:
rank(seq, metric) is seq * RANK_SPAN for a break (odd seq, or no
metric) and seq * RANK_SPAN + RANK_SPAN - 1 - metric otherwise. A rank
lies in [seq * RANK_SPAN, (seq + 1) * RANK_SPAN), so a fresher sequence
always ranks higher; at an equal even sequence the shorter metric ranks
higher, and at an equal odd one neither does. A break's rank is a
multiple of RANK_SPAN and a reachable rank is not. An advertisement
carries (dst, offer) pairs, the offer being the rank the receiver would
store: rank - 1 for a reachable entry, one hop longer, and the rank
itself for a break. A receiver adopts exactly the entries that offer
more than the rank it holds: one integer compare per entry.
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


@dataclass(slots=True)
class UpdatePacket:
    """Route advertisement: (dst, offer) pairs; see the module docstring."""

    src: int
    entries: list[tuple[int, int]]
    uid: int
    dst: int = -1

    kind = DSDV_UPDATE

    @property
    def size(self) -> int:
        return UPDATE_BASE_SIZE + UPDATE_PER_ENTRY_SIZE * len(self.entries)


class DsdvNode:
    """One node's table plus the periodic/triggered advertisement logic."""

    # the method a node takes each kind of frame with; see AodvNode.HANDLERS
    HANDLERS = {DATA: "on_receive", DSDV_UPDATE: "handle_update"}

    def __init__(self, node_id: int, sim):
        self.node_id = node_id
        self.sim = sim
        self.table: dict[int, tuple[int, int]] = {node_id: (node_id, rank(0, 0))}

    def start(self) -> None:
        """Arm the full-table dump at 0.0 and every UPDATE_INTERVAL after."""
        self.sim.every(0.0, self.periodic_dump, UPDATE_INTERVAL)

    def next_hop_for(self, dst: int) -> int | None:
        route = self.table.get(dst)
        if dst == self.node_id or route is None or not route[1] % RANK_SPAN:
            return None
        return route[0]

    def queued_count(self) -> int:
        return 0    # table-driven: nothing is ever buffered

    # -- advertisements ----------------------------------------------------

    def periodic_dump(self) -> None:
        """Advertise the full table with a fresh (still even) own sequence."""
        me = self.node_id
        self.table[me] = (me, self.table[me][1] + 2 * RANK_SPAN)
        self._advertise([(dst, r - 1 if r % RANK_SPAN else r)
                         for dst, (_, r) in sorted(self.table.items())])

    def _advertise(self, offers: list[tuple[int, int]]) -> None:
        """Broadcast (dst, offer) pairs in one update."""
        self.sim.broadcast(self.node_id, UpdatePacket(self.node_id, offers, self.sim.next_uid()))

    triggered_update = _advertise   # changed entries, flooded as they change

    def handle_update(self, sender: int, pkt: UpdatePacket) -> int:
        """Adopt fresher or shorter advertisements; re-flood what changed.

        Most entries change nothing, so an offer no higher than the rank
        held is dropped first, by one compare; see the module docstring.
        """
        table, me = self.table, self.node_id
        offers = []
        for dst, offer in pkt.entries:
            existing = table.get(dst)
            if existing is None:
                if not offer % RANK_SPAN:
                    continue    # nothing to tear down for an unknown destination
            elif offer <= existing[1] or dst == me:
                continue
            table[dst] = (sender, offer)
            self.sim.route_changed(dst)
            offers.append((dst, offer - 1 if offer % RANK_SPAN else offer))
        if offers:
            self.triggered_update(offers)
        return len(offers)

    # -- data path ---------------------------------------------------------

    def forward_data(self, packet: DataPacket) -> None:
        """Unicast via the current table; no discovery, no buffering."""
        if packet.dst == self.node_id:
            self.sim.data_received(self.node_id, packet)
            return
        route = self.table.get(packet.dst)
        if route is None or not route[1] % RANK_SPAN:
            self.sim.dropped(self.node_id, packet)
        elif not self.sim.send_unicast(self.node_id, route[0], packet):
            self.sim.dropped(self.node_id, packet)
            self.mark_broken(route[0])

    # the engine drives both protocols through the same entry points
    originate_data = forward_data

    def mark_broken(self, dead_neighbor: int) -> None:
        """Poison every route through a lost neighbor with the next (odd)
        sequence number and flood the news."""
        table, offers = self.table, []
        for dst, (next_hop, r) in table.items():
            if next_hop == dead_neighbor and dst != self.node_id and r % RANK_SPAN:
                r = (r // RANK_SPAN + 1) * RANK_SPAN
                table[dst] = (next_hop, r)  # same key: the table keeps its order
                self.sim.route_changed(dst)
                offers.append((dst, r))
        if offers:
            self.triggered_update(offers)

    def on_receive(self, sender: int, msg: DataPacket) -> None:
        """Take a DATA frame, the kind HANDLERS sends here."""
        self.forward_data(msg)
