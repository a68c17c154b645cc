"""Per-node DSDV state machine.

Proactive table-driven baseline: every node keeps a route to every
known destination, re-broadcasts its full table periodically, and
floods incremental updates the moment anything changes. Freshness is
carried by per-destination sequence numbers; even numbers mean
reachable, odd numbers mark a break.
"""
from __future__ import annotations

from dataclasses import dataclass

from .packets import DATA, DSDV_UPDATE, DataPacket

UPDATE_BASE_SIZE = 8
UPDATE_PER_ENTRY_SIZE = 12
UPDATE_INTERVAL = 1.0       # seconds between full-table dumps


@dataclass(slots=True)
class UpdatePacket:
    """Route advertisement; hops is None for an unreachable marker."""

    src: int
    entries: list[tuple[int, int, int | None]]  # (dst, dst_seq, hops)
    uid: int
    dst: int = -1

    kind = DSDV_UPDATE

    @property
    def size(self) -> int:
        return UPDATE_BASE_SIZE + UPDATE_PER_ENTRY_SIZE * len(self.entries)


@dataclass(slots=True)
class DsdvEntry:
    dst: int
    next_hop: int
    hop_count: int | None   # None once the route is marked broken
    dst_seq: int

    @property
    def broken(self) -> bool:
        return self.dst_seq % 2 == 1


class DsdvNode:
    """One node's table plus the periodic/triggered advertisement logic."""

    # the method a node takes each kind of frame with; see AodvNode.HANDLERS
    HANDLERS = {DATA: "on_receive", DSDV_UPDATE: "handle_update"}

    def __init__(self, node_id: int, sim):
        self.node_id = node_id
        self.sim = sim
        self.table: dict[int, DsdvEntry] = {
            node_id: DsdvEntry(node_id, node_id, 0, 0)}

    def start(self) -> None:
        """Arm the full-table dump at 0.0 and every UPDATE_INTERVAL after."""
        self.sim.every(0.0, self.periodic_dump, UPDATE_INTERVAL)

    def next_hop_for(self, dst: int) -> int | None:
        e = self.table.get(dst)
        if dst == self.node_id or e is None or e.broken:
            return None
        return e.next_hop

    def queued_count(self) -> int:
        return 0    # table-driven: nothing is ever buffered

    # -- advertisements ----------------------------------------------------

    def periodic_dump(self) -> None:
        """Advertise the full table with a fresh (still even) own sequence."""
        self.table[self.node_id].dst_seq += 2
        self._advertise(e for _, e in sorted(self.table.items()))

    def triggered_update(self, changes: list[DsdvEntry]) -> None:
        """Flood changed entries immediately; breaks carry odd sequences."""
        self._advertise(changes)

    def _advertise(self, entries) -> None:
        pkt = UpdatePacket(src=self.node_id,
                           entries=[(e.dst, e.dst_seq, e.hop_count) for e in entries],
                           uid=self.sim.next_uid())
        self.sim.broadcast(self.node_id, pkt)

    def handle_update(self, sender: int, pkt: UpdatePacket) -> int:
        """Adopt fresher or shorter advertisements; re-flood what changed.

        Most entries change nothing, so a stale sequence, or an equal one
        that is odd, unreachable or not shorter, is dropped first.
        """
        table = self.table
        changed: list[DsdvEntry] = []
        for dst, seq, hops in pkt.entries:
            existing = table.get(dst)
            if existing is not None:
                old = existing.dst_seq
                if seq <= old and (seq < old or seq % 2 or hops is None
                                   or hops + 1 >= existing.hop_count):
                    continue
            if dst == self.node_id:
                continue
            metric = None if seq % 2 or hops is None else hops + 1
            if metric is None and existing is None:
                continue    # nothing to tear down for an unknown destination
            entry = table[dst] = DsdvEntry(dst, sender, metric, seq)
            self.sim.route_changed(dst)
            changed.append(entry)
        if changed:
            self.triggered_update(changed)
        return len(changed)

    # -- data path ---------------------------------------------------------

    def forward_data(self, packet: DataPacket) -> None:
        """Unicast via the current table; no discovery, no buffering."""
        if packet.dst == self.node_id:
            self.sim.data_received(self.node_id, packet)
            return
        e = self.table.get(packet.dst)
        if e is None or e.broken:
            self.sim.dropped(self.node_id, packet)
        elif not self.sim.send_unicast(self.node_id, e.next_hop, packet):
            self.sim.dropped(self.node_id, packet)
            self.mark_broken(e.next_hop)

    # the engine drives both protocols through the same entry points
    originate_data = forward_data

    def mark_broken(self, dead_neighbor: int) -> list[DsdvEntry]:
        """Poison every route through a lost neighbor and flood the news."""
        changed = []
        for e in self.table.values():
            if e.dst != self.node_id and not e.broken and e.next_hop == dead_neighbor:
                e.dst_seq += 1
                e.hop_count = None
                self.sim.route_changed(e.dst)
                changed.append(e)
        if changed:
            self.triggered_update(changed)
        return changed

    def on_receive(self, sender: int, msg: DataPacket) -> None:
        """Take a DATA frame, the kind HANDLERS sends here."""
        self.forward_data(msg)
