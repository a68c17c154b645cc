import math

import pytest

from conftest import build_sim, pending_count
from manetsim.aodv import (ACTIVE_ROUTE_TIMEOUT, BUFFER_CAPACITY, DISCOVERY_RETRIES,
                           PATH_DISCOVERY_TIME, REVERSE_PATH_LIFETIME, Hello, Rerr, RouteEntry,
                           Rrep, Rreq, RreqAction)
from manetsim.metrics import CONTROL_TX, DATA_TX, DROPPED, SENT, LedgerEvent
from manetsim.packets import DataPacket
from manetsim.scenario import TrafficFlow

CHAIN = [(0, 0), (200, 0), (400, 0), (600, 0)]   # 0-1-2-3 line, range 250


def packet(sim, src, dst):
    """Application packet with its Sent event on the ledger, like emit_data."""
    pkt = DataPacket(uid=sim.next_uid(), src=src, dst=dst,
                     size=512)
    sim.ledger.record(LedgerEvent(sim.engine.now, SENT, src, "DATA",
                                  pkt.size, pkt.uid, src, dst))
    return pkt


def control_count(sim, subkind):
    return sim.ledger.control_tx.get(subkind, 0)


def data_drops(sim):
    return [e for e in sim.ledger.events
            if e.kind == DROPPED and e.subkind == "DATA"]


def install_route(node, dst, next_hop, hop_count=1, dst_seq=2, ttl=100.0,
                  precursors=()):
    node.routes[dst] = RouteEntry(dst=dst, next_hop=next_hop, hop_count=hop_count,
                                  dst_seq=dst_seq, expires_at=ttl,
                                  precursors=set(precursors))


# -- update_route ------------------------------------------------------------

def test_update_route_fresher_seq_wins_despite_more_hops():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 3, next_hop=1, hop_count=2, dst_seq=4)
    assert node.update_route(RouteEntry(3, 2, 5, 6, 100.0)) is True
    assert node.routes[3].hop_count == 5


def test_update_route_equal_seq_fewer_hops_wins():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 3, next_hop=1, hop_count=4, dst_seq=4)
    assert node.update_route(RouteEntry(3, 2, 3, 4, 100.0)) is True
    assert node.routes[3].next_hop == 2


def test_update_route_lower_seq_kept():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 3, next_hop=1, hop_count=2, dst_seq=4)
    assert node.update_route(RouteEntry(3, 2, 1, 3, 100.0)) is False
    assert node.routes[3].next_hop == 1


def test_update_route_preserves_precursors_across_replacement():
    sim = build_sim(CHAIN)
    node = sim.nodes[1]
    install_route(node, 3, next_hop=2, dst_seq=2, precursors=[0])
    node.update_route(RouteEntry(3, 2, 1, 5, 100.0))
    assert 0 in node.routes[3].precursors


# -- discovery ----------------------------------------------------------------

def test_consecutive_discoveries_increment_bcast_id():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    r1 = node.start_discovery(2)
    r2 = node.start_discovery(3)
    assert r2.bcast_id == r1.bcast_id + 1


def test_unknown_destination_advertised_with_zero_seq():
    sim = build_sim(CHAIN)
    rreq = sim.nodes[0].start_discovery(3)
    assert rreq.dst_last_seq == 0


def test_known_destination_carries_last_seq():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 3, next_hop=1, dst_seq=7, ttl=0.0)  # expired entry
    rreq = node.start_discovery(3)
    assert rreq.dst_last_seq == 7


def test_own_seq_increments_per_discovery():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    before = node.own_seq
    node.start_discovery(3)
    assert node.own_seq == before + 1


def test_second_discovery_for_same_destination_raises():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    node.start_discovery(3)
    timer = node.pending[3].timer
    scheduled = pending_count(sim.engine)
    with pytest.raises(RuntimeError):
        node.start_discovery(3)
    assert node.pending[3].timer is timer and timer.pending
    assert pending_count(sim.engine) == scheduled  # no second timer, no second flood
    assert control_count(sim, "RREQ") == 1


def test_retry_exhaustion_drops_buffered_packets():
    # node 1 is unreachable: no replies, retries run out, queue is lost
    sim = build_sim([(0, 0), (700, 700)])
    node = sim.nodes[0]
    node.originate_data(packet(sim, 0, 1))
    node.originate_data(packet(sim, 0, 1))
    sim.engine.run_until(5.0)
    assert control_count(sim, "RREQ") == 1 + DISCOVERY_RETRIES
    assert len(data_drops(sim)) == 2
    assert node.pending == {} and node.queued_count() == 0


def test_discovery_end_to_end_installs_bfs_route():
    sim = build_sim(CHAIN, flows=[TrafficFlow(0, 3, 10.0, 512, 0.5, 1.0)])
    sim.engine.run_until(2.0)
    assert sim.walk_route(0, 3) == [0, 1, 2, 3]
    assert sim.nodes[0].routes[3].hop_count == 3


# -- originate_data --------------------------------------------------------------

def test_originate_with_route_forwards_immediately():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 1, next_hop=1)
    node.originate_data(packet(sim, 0, 1))
    assert sim.ledger.data_tx == 1
    assert not data_drops(sim)


def test_originate_without_route_buffers_and_floods():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    node.originate_data(packet(sim, 0, 3))
    assert node.queued_count() == 1
    assert control_count(sim, "RREQ") == 1
    # a second packet joins the same discovery
    node.originate_data(packet(sim, 0, 3))
    assert control_count(sim, "RREQ") == 1


def test_buffer_overflow_drops_oldest_and_records_loss():
    sim = build_sim([(0, 0), (700, 700)])
    node = sim.nodes[0]
    first = packet(sim, 0, 1)
    node.originate_data(first)
    for _ in range(BUFFER_CAPACITY):
        node.originate_data(packet(sim, 0, 1))
    assert node.queued_count() == BUFFER_CAPACITY
    drops = data_drops(sim)
    assert len(drops) == 1 and drops[0].uid == first.uid


# -- handle_rreq --------------------------------------------------------------------

def test_destination_replies_with_rrep_via_reverse_path():
    sim = build_sim(CHAIN)
    dst_node = sim.nodes[3]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=2, uid=sim.next_uid())
    assert dst_node.handle_rreq(2, rreq) is RreqAction.REPLIED
    assert control_count(sim, "RREP") == 1
    assert dst_node.reverse_paths[0].via == 2


def test_duplicate_rreq_discarded():
    sim = build_sim(CHAIN)
    dst_node = sim.nodes[3]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=2, uid=sim.next_uid())
    dst_node.handle_rreq(2, rreq)
    assert dst_node.handle_rreq(2, rreq) is RreqAction.DUPLICATE
    assert control_count(sim, "RREP") == 1


def test_rreq_remembered_for_path_discovery_time():
    sim = build_sim(CHAIN)
    mid = sim.nodes[1]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=0, uid=sim.next_uid())
    assert mid.handle_rreq(0, rreq) is RreqAction.FORWARDED
    sim.engine.run_until(PATH_DISCOVERY_TIME - 0.001)
    assert mid.handle_rreq(0, rreq) is RreqAction.DUPLICATE
    sim.engine.run_until(PATH_DISCOVERY_TIME)
    assert mid.handle_rreq(0, rreq) is RreqAction.FORWARDED
    assert mid.seen_rreqs == {(0, 1)}


def test_seen_rreqs_stay_bounded_over_a_long_run():
    # one packet every 4 s outlives ACTIVE_ROUTE_TIMEOUT: each one rediscovers
    flow = TrafficFlow(0, 3, rate=0.25, packet_size=512, start=0.5, stop=200.0)
    sim = build_sim(CHAIN, flows=[flow], end=200.0)
    sizes = []
    sim.event_hooks.append(lambda: sizes.extend(len(n.seen_rreqs) for n in sim.nodes))
    sim.run()
    assert sim.nodes[0].bcast_id >= 45
    assert max(sizes) <= math.ceil(PATH_DISCOVERY_TIME * flow.rate) + 1


def test_intermediary_without_route_rebroadcasts_with_hop_increment():
    sim = build_sim(CHAIN)
    mid = sim.nodes[1]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=0, uid=sim.next_uid())
    assert mid.handle_rreq(0, rreq) is RreqAction.FORWARDED
    fwd = [e for e in sim.ledger.events if e.subkind == "RREQ"]
    assert len(fwd) == 1
    assert control_count(sim, "RREQ") == 1


def test_intermediary_with_fresh_cached_route_replies():
    sim = build_sim(CHAIN)
    mid = sim.nodes[1]
    install_route(mid, 3, next_hop=2, hop_count=2, dst_seq=6)
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=4,
                hop_count=0, uid=sim.next_uid())
    assert mid.handle_rreq(0, rreq) is RreqAction.REPLIED
    assert 0 in mid.routes[3].precursors


def test_intermediary_with_stale_cached_route_forwards_instead():
    sim = build_sim(CHAIN)
    mid = sim.nodes[1]
    install_route(mid, 3, next_hop=2, hop_count=2, dst_seq=2)
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=4,
                hop_count=0, uid=sim.next_uid())
    assert mid.handle_rreq(0, rreq) is RreqAction.FORWARDED


def test_destination_seq_rises_above_poisoned_request():
    sim = build_sim(CHAIN)
    dst_node = sim.nodes[3]
    rreq = Rreq(src=0, src_seq=5, bcast_id=2, dst=3, dst_last_seq=9,
                hop_count=1, uid=sim.next_uid())
    dst_node.handle_rreq(2, rreq)
    assert dst_node.own_seq > 9


# -- handle_rrep -----------------------------------------------------------------------

def test_source_flushes_buffered_packets_fifo():
    sim = build_sim(CHAIN)
    src = sim.nodes[0]
    p1, p2, p3 = (packet(sim, 0, 3) for _ in range(3))
    for p in (p1, p2, p3):
        src.originate_data(p)
    sim.engine.run_until(1.0)   # discovery completes, queue drains
    forwards = [e.uid for e in sim.ledger.events
                if e.kind == DATA_TX and e.node == 0]
    assert forwards == [p1.uid, p2.uid, p3.uid]
    assert src.pending == {}


def test_intermediary_installs_route_and_relays_rrep():
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=1, uid=sim.next_uid())
    mid.handle_rreq(1, rreq)    # learns reverse path toward 0 via 1
    rrep = Rrep(src=0, dst=3, dst_seq=2, hop_count=0, lifetime=3.0,
                uid=sim.next_uid())
    mid.handle_rrep(3, rrep)
    assert mid.routes[3].next_hop == 3 and mid.routes[3].hop_count == 1
    assert control_count(sim, "RREP") == 1          # the relayed copy
    assert 1 in mid.routes[3].precursors


def test_rrep_dropped_when_reverse_path_expired():
    # node 2 sits alone so its RREQ rebroadcast reaches nobody
    sim = build_sim([(0, 0), (0, 600), (700, 700), (100, 600)])
    mid = sim.nodes[2]
    rreq = Rreq(src=0, src_seq=1, bcast_id=1, dst=3, dst_last_seq=0,
                hop_count=1, uid=sim.next_uid())
    mid.handle_rreq(1, rreq)
    sim.engine.run_until(REVERSE_PATH_LIFETIME + 0.5)   # reverse path now stale
    rrep = Rrep(src=0, dst=3, dst_seq=2, hop_count=0, lifetime=3.0, uid=77)
    sim.ledger.record(  # the copy we are about to drop was transmitted to us
        LedgerEvent(sim.engine.now, CONTROL_TX, 3, "RREP", 20, 77, 0, 3))
    mid.handle_rrep(3, rrep)
    drops = [e for e in sim.ledger.events
             if e.kind == DROPPED and e.subkind == "RREP"]
    assert len(drops) == 1
    assert control_count(sim, "RREP") == 1          # only the hand-recorded copy


# -- link breaks and RERR -------------------------------------------------------------------

def test_link_break_invalidates_poisons_and_warns_precursors():
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    install_route(mid, 3, next_hop=3, dst_seq=4, precursors=[1])
    mid.on_link_break(3)
    assert mid.routes[3].dst_seq == 5               # seq poisoned 4 -> 5
    assert not mid.routes[3].active
    assert control_count(sim, "RERR") == 1


def test_link_break_at_source_reinitiates_without_rerr():
    sim = build_sim(CHAIN, flows=[TrafficFlow(0, 3, 10.0, 512, 0.0, 9.0)])
    src = sim.nodes[0]
    install_route(src, 3, next_hop=1, dst_seq=2)    # no precursors at the source
    src.on_link_break(1)
    assert control_count(sim, "RERR") == 0
    assert control_count(sim, "RREQ") == 1          # rediscovery started
    assert 3 in src.pending


def test_link_break_for_unused_neighbor_is_noop():
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    install_route(mid, 3, next_hop=3, dst_seq=4)
    mid.on_link_break(1)
    assert mid.routes[3].active
    assert control_count(sim, "RERR") == 0


def test_rerr_traverses_precursor_chain_to_source():
    sim = build_sim(CHAIN)
    install_route(sim.nodes[0], 3, next_hop=1, hop_count=3, dst_seq=2)
    install_route(sim.nodes[1], 3, next_hop=2, hop_count=2, dst_seq=2, precursors=[0])
    install_route(sim.nodes[2], 3, next_hop=3, hop_count=1, dst_seq=2, precursors=[1])
    sim.nodes[2].on_link_break(3)
    sim.engine.run_until(1.0)
    assert control_count(sim, "RERR") == 2          # 2 -> 1, then 1 -> 0
    assert all(not sim.nodes[i].routes[3].active for i in (0, 1, 2))


def test_source_with_active_flow_rediscovers_on_rerr():
    sim = build_sim(CHAIN, flows=[TrafficFlow(0, 3, 10.0, 512, 0.0, 9.0)])
    src = sim.nodes[0]
    install_route(src, 3, next_hop=1, dst_seq=2)
    src.handle_rerr(1, Rerr(unreachable=[(3, 3)], uid=sim.next_uid()))
    assert not src.routes[3].active
    assert control_count(sim, "RREQ") == 1


def test_rerr_for_never_routed_destination_ignored():
    sim = build_sim(CHAIN)
    node = sim.nodes[1]
    node.handle_rerr(2, Rerr(unreachable=[(3, 5)], uid=sim.next_uid()))
    assert node.routes == {}
    assert sim.ledger.control_tx == {}


def test_rerr_from_non_next_hop_ignored():
    sim = build_sim(CHAIN)
    node = sim.nodes[1]
    install_route(node, 3, next_hop=2, dst_seq=2)
    node.handle_rerr(0, Rerr(unreachable=[(3, 3)], uid=sim.next_uid()))
    assert node.routes[3].active


def rerrs_sent(sim):
    """(sender, precursor, size) of every RERR on the ledger."""
    return [(e.node, e.dst, e.size) for e in sim.ledger.events if e.subkind == "RERR"]


# The two ways a route breaks filter their entries differently: handle_rerr
# does not test expiry and on_link_break does. No golden case or benchmark
# suite sends a RERR for an expired entry, so these pin both filters as
# they are.

def test_rerr_breaks_an_expired_route_and_warns_its_precursor():
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    install_route(mid, 3, next_hop=3, dst_seq=4, ttl=0.0, precursors=[1])
    assert not mid.route_is_active(3)               # expired at the clock's 0.0
    mid.handle_rerr(3, Rerr(unreachable=[(3, 6)], uid=sim.next_uid()))
    assert not mid.routes[3].active
    assert mid.routes[3].dst_seq == 6               # the advertised seq
    assert rerrs_sent(sim) == [(2, 1, 12)]


def test_link_break_through_an_expired_route_changes_nothing():
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    install_route(mid, 3, next_hop=3, dst_seq=4, ttl=0.0, precursors=[1])
    before = sim.next_uid()
    mid.on_link_break(3)
    assert mid.routes[3] == RouteEntry(dst=3, next_hop=3, hop_count=1, dst_seq=4,
                                       expires_at=0.0, precursors={1})
    assert sim.ledger.events == []
    assert sim.next_uid() == before + 1             # not even the unused draw


def test_rerr_listing_a_destination_twice_breaks_it_once():
    """Each listed pair is tested after the ones before it broke their
    entries, so the second (3, 3) finds the route already inactive."""
    sim = build_sim(CHAIN)
    mid = sim.nodes[2]
    install_route(mid, 3, next_hop=3, dst_seq=2, precursors=[1])
    changed = []
    sim.route_changed = changed.append
    mid.handle_rerr(3, Rerr(unreachable=[(3, 3), (3, 3)], uid=sim.next_uid()))
    assert changed == [3]
    assert (mid.routes[3].active, mid.routes[3].dst_seq) == (False, 3)
    assert rerrs_sent(sim) == [(2, 1, 12)]          # one destination: 4 + 8 bytes


# -- hello beaconing --------------------------------------------------------------------------

def test_silent_neighbor_declared_broken_after_allowance():
    from manetsim.scenario import Movement
    from manetsim.world import Position
    # node 1 beacons (it has a route), then walks out of range at t=3.2
    sim = build_sim([(0, 0), (100, 0)], hello_interval=1.0,
                    movements=[Movement(3.2, 1, Position(700, 0), 400.0)])
    src = sim.nodes[0]
    install_route(src, 1, next_hop=1, dst_seq=2, ttl=100.0)
    install_route(sim.nodes[1], 0, next_hop=0, dst_seq=2, ttl=100.0)
    sim.engine.run_until(4.5)
    assert src.route_is_active(1)                   # heard at 3.001, not yet silent 2 s
    sim.engine.run_until(6.0)                       # 6.0 - 3.001 > 2.0
    assert not src.route_is_active(1)


def test_hello_refreshes_timestamp_without_route_change():
    sim = build_sim([(0, 0), (100, 0)], hello_interval=1.0)
    src = sim.nodes[0]
    install_route(src, 1, next_hop=1, dst_seq=2, ttl=100.0)
    install_route(sim.nodes[1], 0, next_hop=0, dst_seq=2, ttl=100.0)
    sim.engine.run_until(5.0)
    assert src.route_is_active(1)
    assert src.hello_last_heard[1] >= 4.0


def send_frame(sim, kind):
    """Send node 0 one frame of kind from node 1, by broadcast or unicast."""
    if kind == "DATA":
        return sim.send_unicast(1, 0, packet(sim, 1, 0))
    if kind == "RREQ":
        return sim.broadcast(1, Rreq(src=1, src_seq=1, bcast_id=1, dst=0, dst_last_seq=0,
                                     hop_count=0, uid=sim.next_uid()))
    if kind == "RREP":
        return sim.send_unicast(1, 0, Rrep(src=0, dst=1, dst_seq=1, hop_count=0,
                                           lifetime=ACTIVE_ROUTE_TIMEOUT, uid=sim.next_uid()))
    if kind == "RERR":
        return sim.send_unicast(1, 0, Rerr(unreachable=[(1, 3)], uid=sim.next_uid(),
                                           src=1, dst=0))
    return sim.broadcast(1, Hello(src=1, uid=sim.next_uid()))


@pytest.mark.parametrize("supervised", [True, False], ids=["supervised", "unsupervised"])
@pytest.mark.parametrize("kind", ["DATA", "RREQ", "RREP", "RERR", "HELLO"])
def test_any_frame_from_a_supervised_neighbor_refreshes_it(kind, supervised):
    """RFC 3561 §6.10: any packet from a neighbor shows it is still there,
    but only a hello puts an unsupervised sender under supervision."""
    sim = build_sim([(0, 0), (100, 0)])
    node = sim.nodes[0]
    sim.engine.run_until(1.0)
    if supervised:
        node.hello_last_heard[1] = 0.5
    assert send_frame(sim, kind)
    sim.engine.run_until(1.5)
    if supervised or kind == "HELLO":
        assert node.hello_last_heard == {1: 1.001}     # heard on arrival, jitter off
    else:
        assert node.hello_last_heard == {}


def test_unicast_break_then_hello_timeout_single_rerr():
    sim = build_sim([(0, 0), (200, 0), (400, 0)], hello_interval=1.0)
    mid = sim.nodes[1]
    install_route(mid, 2, next_hop=2, dst_seq=2, precursors=[0])
    install_route(mid, 0, next_hop=0, dst_seq=2)    # every node keeps beaconing
    for end in (0, 2):
        install_route(sim.nodes[end], 1, next_hop=1, dst_seq=2)
    sim.engine.run_until(2.5)
    mid.hello_last_heard[2] = 2.0                   # supervised neighbor
    mid.on_link_break(2)                            # unicast-style detection
    assert control_count(sim, "RERR") == 1
    assert 2 not in mid.hello_last_heard            # supervision cleared
    sim.engine.run_until(8.0)                       # hello path must not re-fire
    assert control_count(sim, "RERR") == 1


def test_no_beacon_without_active_route_by_default():
    sim = build_sim([(0, 0), (100, 0)], hello_interval=1.0)
    sim.engine.run_until(5.0)
    assert control_count(sim, "HELLO") == 0


def test_beacon_sent_once_routes_exist():
    sim = build_sim([(0, 0), (100, 0)], hello_interval=1.0)
    install_route(sim.nodes[0], 1, next_hop=1, dst_seq=2, ttl=100.0)
    sim.engine.run_until(2.5)
    assert control_count(sim, "HELLO") == 2         # ticks at 1.0 and 2.0


# -- expiry ---------------------------------------------------------------------------------------

def test_untouched_route_expires_after_timeout():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 1, next_hop=1, dst_seq=2, ttl=ACTIVE_ROUTE_TIMEOUT)
    sim.engine.run_until(ACTIVE_ROUTE_TIMEOUT - 0.5)
    assert node.route_is_active(1)
    sim.engine.run_until(ACTIVE_ROUTE_TIMEOUT + 0.5)
    assert not node.route_is_active(1)


def test_forwarding_refreshes_expiry():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 1, next_hop=1, dst_seq=2, ttl=2.0)
    sim.engine.run_until(1.5)
    node.originate_data(packet(sim, 0, 1))
    assert node.routes[1].expires_at == pytest.approx(1.5 + ACTIVE_ROUTE_TIMEOUT)


def test_data_after_expiry_triggers_rediscovery():
    sim = build_sim(CHAIN)
    node = sim.nodes[0]
    install_route(node, 3, next_hop=1, dst_seq=2, ttl=1.0)
    sim.engine.run_until(2.0)
    node.originate_data(packet(sim, 0, 3))
    assert node.queued_count() == 1
    assert control_count(sim, "RREQ") == 1


# -- qualitative invariants -------------------------------------------------------------------------

def test_on_demand_zero_control_without_traffic():
    sim = build_sim([(0, 0), (150, 0), (300, 0), (300, 150)], hello_interval=0.0)
    sim.engine.run_until(10.0)
    assert sim.ledger.control_tx == {}


def test_own_sequence_number_never_decreases():
    sim = build_sim(CHAIN, flows=[TrafficFlow(0, 3, 20.0, 512, 0.5, 8.0)],
                    movements=[], end=9.0)
    last = {n.node_id: n.own_seq for n in sim.nodes}

    def check():
        for n in sim.nodes:
            assert n.own_seq >= last[n.node_id]
            last[n.node_id] = n.own_seq

    sim.event_hooks.append(check)
    sim.engine.run_until(9.0)


def test_data_arriving_at_relay_without_route_dropped():
    sim = build_sim(CHAIN)
    mid = sim.nodes[1]
    p = packet(sim, 0, 3)
    sim.in_flight_data += 1
    sim._deliver(1, 0, p)
    assert mid.queued_count() == 0
    assert len(data_drops(sim)) == 1
