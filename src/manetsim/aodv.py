"""Per-node AODV state machine.

Routes are built only when traffic needs them: a source floods a route
request, the destination (or a node with a fresh-enough cached route)
unicasts a reply back along the stored reverse path, and data then
follows the installed next hops. Link breaks and route errors share one
rule, `_invalidate`: the entries go inactive and the precursors are warned.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from .engine import Handle
from .packets import DATA, HELLO, RERR, RREP, RREQ, DataPacket

RREQ_SIZE = 24
RREP_SIZE = 20
HELLO_SIZE = 20
RERR_BASE_SIZE = 4
RERR_PER_DEST_SIZE = 8
ACTIVE_ROUTE_TIMEOUT = 3.0  # seconds a route lives without being used
REVERSE_PATH_LIFETIME = 1.0 # seconds a reverse path waits for the reply
RREP_WAIT = 0.2             # seconds a source waits for a reply per attempt
DISCOVERY_RETRIES = 2       # RREQ retries after the first attempt
BUFFER_CAPACITY = 64        # packets buffered per destination, drop-oldest
ALLOWED_HELLO_LOSS = 2      # silent hello intervals before a neighbor is lost
FLUSH_GAP = 0.0001          # frame serialization while draining a buffer
PATH_DISCOVERY_TIME = 5.6   # seconds a (src, bcast_id) is remembered (RFC 3561 §10)


@dataclass(slots=True)
class Rreq:
    """Flooded route request; (src, bcast_id) identifies one discovery."""

    src: int
    bcast_id: int
    dst: int
    dst_last_seq: int
    hop_count: int
    uid: int

    kind = RREQ
    size = RREQ_SIZE


@dataclass(slots=True)
class Rrep:
    """Route reply, unicast hop by hop back toward the discovery source."""

    src: int            # discovery originator the reply travels toward
    dst: int            # destination the new route leads to
    dst_seq: int
    hop_count: int
    lifetime: float
    uid: int

    kind = RREP
    size = RREP_SIZE


@dataclass(slots=True)
class Rerr:
    """Route error listing destinations that became unreachable."""

    unreachable: list[tuple[int, int]]  # (dst, dst_seq) pairs
    uid: int
    src: int = -1
    dst: int = -1

    kind = RERR

    @property
    def size(self) -> int:
        return RERR_BASE_SIZE + RERR_PER_DEST_SIZE * len(self.unreachable)


@dataclass(slots=True)
class Hello:
    """Periodic beacon; receipt only refreshes neighbor liveness."""

    src: int
    uid: int
    dst: int = -1

    kind = HELLO
    size = HELLO_SIZE


@dataclass(slots=True)
class RouteEntry:
    next_hop: int
    hop_count: int
    dst_seq: int
    expires_at: float
    active: bool = True
    precursors: set[int] = field(default_factory=set)


class RreqAction(Enum):
    DUPLICATE = "duplicate"
    REPLIED = "replied"
    FORWARDED = "forwarded"


# bound once: on CPython 3.11 RreqAction.X is a descriptor lookup per call
DUPLICATE, REPLIED, FORWARDED = RreqAction


class AodvNode:
    """One node's routing state, driven entirely by the engine loop."""

    # the method a node takes each kind of frame with, which Simulation wires
    # every frame straight to; each refreshes hello supervision (RFC 3561
    # §6.10). RREP and RERR pass on_receive, which perfbench times for AODV
    HANDLERS = {DATA: "handle_data", RREQ: "handle_rreq", HELLO: "handle_hello",
                RREP: "on_receive", RERR: "on_receive"}

    def __init__(self, node_id: int, sim):
        self.node_id = node_id
        self.sim = sim
        self.own_seq = 0
        self.bcast_id = 0
        self.routes: dict[int, RouteEntry] = {}     # keyed by destination
        # src -> (via, expires_at): the neighbor its request arrived from
        self.reverse_paths: dict[int, tuple[int, float]] = {}
        self.seen_rreqs: set[tuple[int, int]] = set()
        # (forget_at, key) in the order keys were added, so oldest first
        self._seen_order: deque[tuple[float, tuple[int, int]]] = deque()
        # dst -> its discovery's reply wait, whose entry carries the retries left
        self.pending: dict[int, Handle] = {}
        self.queues: dict[int, deque[DataPacket]] = {}
        self.hello_last_heard: dict[int, float] = {}

    def start(self) -> None:
        """Arm the hello chain, unless hellos are off."""
        interval = self.sim.hello_interval
        if interval > 0:
            self.sim.every(interval, self.hello_tick, interval)

    # -- route table -------------------------------------------------------

    def route_is_active(self, dst: int) -> bool:
        e = self.routes.get(dst)
        return e is not None and e.active and e.expires_at > self.sim.engine.now

    def next_hop_for(self, dst: int) -> int | None:
        if self.route_is_active(dst):
            return self.routes[dst].next_hop
        return None

    def update_route(self, dst: int, candidate: RouteEntry) -> bool:
        """Install candidate for dst iff it is fresher, or equally fresh and shorter."""
        existing = self.routes.get(dst)
        if existing is not None:
            fresher = candidate.dst_seq > existing.dst_seq
            shorter = (candidate.dst_seq == existing.dst_seq
                       and candidate.hop_count < existing.hop_count)
            if not (fresher or shorter):
                return False
            candidate.precursors |= existing.precursors
        self.routes[dst] = candidate
        self.sim.route_changed(dst)
        return True

    def queued_count(self) -> int:
        return sum(len(q) for q in self.queues.values())

    # -- data path ---------------------------------------------------------

    def originate_data(self, packet: DataPacket) -> None:
        """Every packet starts here; handle_data takes it as its source's."""
        self.handle_data(self.node_id, packet)

    def _drop_queued(self, dst: int) -> None:
        """Drop everything buffered for dst, oldest first."""
        q = self.queues.get(dst)
        while q:
            self.sim.dropped(self.node_id, q.popleft())

    def handle_data(self, sender: int, packet: DataPacket) -> None:
        """Deliver a DATA packet here or send it on. The source (sender is
        this node), its buffer flush and every relay send through here, so
        the active-route test and the send are written out here."""
        now = self.sim.engine.now
        heard = self.hello_last_heard
        if sender in heard:
            heard[sender] = now
        dst = packet.dst
        if dst == self.node_id:
            self.sim.data_received(self.node_id, packet)
            return
        entry = self.routes.get(dst)
        if entry is not None and entry.active and entry.expires_at > now:
            if self.sim.send_unicast(self.node_id, entry.next_hop, packet):
                entry.expires_at = now + ACTIVE_ROUTE_TIMEOUT
            else:
                self.sim.dropped(self.node_id, packet)
                self.on_link_break(entry.next_hop)
        elif sender != self.node_id:
            # no repair at relays; only the source rediscovers
            self.sim.dropped(self.node_id, packet)
        else:
            q = self.queues.setdefault(dst, deque())
            if len(q) >= BUFFER_CAPACITY:
                self.sim.dropped(self.node_id, q.popleft())
            q.append(packet)
            if dst not in self.pending:
                self.start_discovery(dst)

    def _drain_one(self, dst: int) -> None:
        q = self.queues.get(dst)
        if not q:
            return
        if self.route_is_active(dst):
            self.handle_data(self.node_id, q.popleft())
        elif dst not in self.pending:
            self.start_discovery(dst)

    # -- discovery ---------------------------------------------------------

    def start_discovery(self, dst: int) -> Rreq:
        """Flood a fresh RREQ and arm the reply-wait timer."""
        if dst in self.pending:
            raise RuntimeError(f"discovery for {dst} already pending")
        return self._broadcast_rreq(dst, DISCOVERY_RETRIES)

    def _broadcast_rreq(self, dst: int, retries_left: int) -> Rreq:
        """Flood one attempt and file its reply wait as pending[dst]."""
        self.own_seq += 1   # RFC 3561 §6.1; read when this node answers as a destination
        self.bcast_id += 1
        last_seq = self.routes[dst].dst_seq if dst in self.routes else 0
        rreq = Rreq(src=self.node_id, bcast_id=self.bcast_id, dst=dst,
                    dst_last_seq=last_seq, hop_count=0, uid=self.sim.next_uid())
        self._remember_rreq((self.node_id, self.bcast_id))
        self.sim.broadcast(self.node_id, rreq)
        engine = self.sim.engine
        self.pending[dst] = engine.schedule(
            engine.now + RREP_WAIT, partial(self._discovery_timeout, dst, retries_left))
        return rreq

    def _discovery_timeout(self, dst: int, retries_left: int) -> None:
        # a reply cancels the wait, so it fires only while pending[dst] is it
        if retries_left > 0:
            self._broadcast_rreq(dst, retries_left - 1)
            return
        # retries exhausted: everything waiting for this route is lost
        del self.pending[dst]
        self._drop_queued(dst)

    def _remember_rreq(self, key: tuple[int, int]) -> None:
        self.seen_rreqs.add(key)
        self._seen_order.append((self.sim.engine.now + PATH_DISCOVERY_TIME, key))

    def handle_rreq(self, sender: int, rreq: Rreq) -> RreqAction:
        now = self.sim.engine.now
        if sender in self.hello_last_heard:
            self.hello_last_heard[sender] = now
        order = self._seen_order
        while order and order[0][0] <= now:
            self.seen_rreqs.discard(order.popleft()[1])
        key = (rreq.src, rreq.bcast_id)
        if key in self.seen_rreqs:
            return DUPLICATE
        self._remember_rreq(key)
        self.reverse_paths[rreq.src] = (sender, now + REVERSE_PATH_LIFETIME)

        if rreq.dst == self.node_id:
            # answering destination: never reply with anything staler than
            # the poisoned sequence number the source is asking about
            self.own_seq = max(self.own_seq, rreq.dst_last_seq) + 1
            self._reply(sender, rreq, self.own_seq, 0, ACTIVE_ROUTE_TIMEOUT)
            return REPLIED

        cached = self.routes.get(rreq.dst)
        if (self.route_is_active(rreq.dst)
                and cached.dst_seq >= rreq.dst_last_seq):
            if self._reply(sender, rreq, cached.dst_seq, cached.hop_count,
                           cached.expires_at - now):
                cached.precursors.add(sender)
            return REPLIED

        fwd = Rreq(src=rreq.src, bcast_id=rreq.bcast_id, dst=rreq.dst,
                   dst_last_seq=rreq.dst_last_seq, hop_count=rreq.hop_count + 1,
                   uid=self.sim.next_uid())
        self.sim.broadcast(self.node_id, fwd)
        return FORWARDED

    def _reply(self, via: int, msg: Rreq | Rrep, dst_seq: int, hop_count: int,
               lifetime: float) -> bool:
        """Unicast a reply for msg's discovery (src, dst) to the neighbor via."""
        return self.sim.send_unicast(self.node_id, via, Rrep(
            src=msg.src, dst=msg.dst, dst_seq=dst_seq, hop_count=hop_count,
            lifetime=lifetime, uid=self.sim.next_uid()))

    def handle_rrep(self, sender: int, rrep: Rrep) -> None:
        now = self.sim.engine.now
        if sender in self.hello_last_heard:
            self.hello_last_heard[sender] = now
        entry = RouteEntry(next_hop=sender, hop_count=rrep.hop_count + 1,
                           dst_seq=rrep.dst_seq, expires_at=now + rrep.lifetime)
        installed = self.update_route(rrep.dst, entry)
        if rrep.src == self.node_id:
            if self.route_is_active(rrep.dst):
                wait = self.pending.pop(rrep.dst, None)
                if wait is not None:
                    self.sim.engine.cancel(wait)
                self._flush_queue(rrep.dst)
            return

        if not installed:
            return  # a better reply already went upstream; first-wins
        via, expires_at = self.reverse_paths.get(rrep.src, (None, now))
        if expires_at <= now:
            # reverse path gone: the reply cannot travel further
            self.sim.dropped(self.node_id, rrep)
            return
        if self._reply(via, rrep, rrep.dst_seq, rrep.hop_count + 1, rrep.lifetime):
            entry.precursors.add(via)   # installed, so routes[rrep.dst] is entry

    def _flush_queue(self, dst: int) -> None:
        q = self.queues.get(dst)
        if not q:
            return
        # one frame per serialization slot keeps FIFO order on the air
        now, drain = self.sim.engine.now, (self._drain_one, (dst,))
        self.sim.engine.post_all([(now + k * FLUSH_GAP, drain) for k in range(len(q))])

    # -- maintenance -------------------------------------------------------

    def on_link_break(self, dead_neighbor: int) -> None:
        """Break the active routes through a lost neighbor, one seq up."""
        now = self.sim.engine.now
        affected = [(dst, e) for dst, e in self.routes.items()
                    if e.next_hop == dead_neighbor and e.active and e.expires_at > now]
        # either detection path (failed unicast, hello silence) may fire first;
        # dropping the supervision entry keeps the second one from re-firing
        self.hello_last_heard.pop(dead_neighbor, None)
        if not affected:
            return
        for dst, _ in affected:
            self._drop_queued(dst)
        self.sim.next_uid()   # unused draw; uid numbering is pinned by the golden traces
        self._invalidate((dst, e, e.dst_seq + 1) for dst, e in affected)  # poisons stale copies

    def handle_rerr(self, sender: int, rerr: Rerr) -> None:
        """Break each active route via sender that rerr lists at a seq no lower than ours."""
        if sender in self.hello_last_heard:
            self.hello_last_heard[sender] = self.sim.engine.now
        # lazy, so a destination listed twice is tested after its first break
        self._invalidate((dst, e, seq) for dst, seq in rerr.unreachable
                         if (e := self.routes.get(dst)) is not None and e.active
                         and e.next_hop == sender and e.dst_seq <= seq)

    def _invalidate(self, broken) -> None:
        """The one rule for breaking routes: each (dst, entry, new_seq) in
        broken goes inactive at new_seq, then each precursor, in id order, gets
        one Rerr listing them all, and a source with an active flow rediscovers."""
        unreachable = []
        precursors: set[int] = set()
        for dst, e, seq in broken:
            e.active = False
            e.dst_seq = seq
            self.sim.route_changed(dst)
            unreachable.append((dst, seq))
            precursors |= e.precursors
        for p in sorted(precursors):
            self.sim.send_unicast(self.node_id, p, Rerr(unreachable=list(unreachable),
                                                        uid=self.sim.next_uid(),
                                                        src=self.node_id, dst=p))
        # a source with traffic still scheduled rediscovers right away
        for dst, _ in unreachable:
            if dst not in self.pending and self.sim.has_active_flow(self.node_id, dst):
                self.start_discovery(dst)

    # -- hello beaconing ---------------------------------------------------

    def hello_tick(self) -> None:
        """Check supervised neighbors for silence, then maybe beacon."""
        now = self.sim.engine.now
        threshold = ALLOWED_HELLO_LOSS * self.sim.hello_interval
        for n, last in sorted(self.hello_last_heard.items()):
            if now - last > threshold:
                self.on_link_break(n)
        if any(map(self.route_is_active, self.routes)):
            self.sim.broadcast(self.node_id, Hello(src=self.node_id, uid=self.sim.next_uid()))

    def handle_hello(self, sender: int, hello: Hello) -> None:
        """A beacon puts its sender under supervision, or refreshes it."""
        self.hello_last_heard[sender] = self.sim.engine.now

    # -- dispatch ----------------------------------------------------------

    def on_receive(self, sender: int, msg) -> None:
        """Take a RREP or RERR, the two kinds HANDLERS sends here."""
        if msg.kind is RREP:
            self.handle_rrep(sender, msg)
        else:
            self.handle_rerr(sender, msg)
