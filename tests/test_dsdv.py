import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_loop_free, build_sim, build_spec, random_connected_positions,
                      random_scenario)
from manetsim.dsdv import DsdvEntry, DsdvNode, UpdatePacket
from manetsim.metrics import SENT, LedgerEvent
from manetsim.packets import DataPacket
from manetsim.simulation import Simulation

CHAIN = [(0, 0), (200, 0), (400, 0), (600, 0)]


def packet(sim, src, dst):
    pkt = DataPacket(uid=sim.next_uid(), src=src, dst=dst,
                     size=512)
    sim.ledger.record(LedgerEvent(sim.engine.now, SENT, src, "DATA",
                                  pkt.size, pkt.uid, src, dst))
    return pkt


def update_count(sim):
    return sim.ledger.control_tx.get("DSDV-UPDATE", 0)


# -- periodic dumps -----------------------------------------------------------

def test_five_second_run_one_second_interval_at_least_five_dumps_per_node():
    sim = build_sim(CHAIN, protocol="dsdv", end=5.0)
    sim.engine.run_until(5.0)
    full_dumps = [e for e in sim.ledger.events if e.subkind == "DSDV-UPDATE"]
    assert len(full_dumps) >= 5 * len(CHAIN)


def test_isolated_node_dump_still_counted_as_overhead():
    sim = build_sim([(0, 0), (700, 700)], protocol="dsdv", end=3.0)
    sim.engine.run_until(3.0)
    assert update_count(sim) >= 2 * 3  # both nodes, at least 3 dumps each


def test_dump_keeps_own_sequence_even_and_growing():
    sim = build_sim(CHAIN, protocol="dsdv")
    node = sim.nodes[0]
    seqs = []
    for _ in range(3):
        node.periodic_dump()
        seqs.append(node.table[0].dst_seq)
    assert seqs == [2, 4, 6]


def test_neighbor_learns_all_destinations_from_full_dump():
    sim = build_sim(CHAIN, protocol="dsdv", end=4.0)
    sim.engine.run_until(1.0)   # a couple of flood rounds
    assert set(sim.nodes[0].table) == {0, 1, 2, 3}
    assert sim.walk_route(0, 3) == [0, 1, 2, 3]


# -- triggered updates ----------------------------------------------------------

def test_link_break_floods_odd_sequence_network_wide():
    sim = build_sim(CHAIN, protocol="dsdv", end=6.0)
    sim.engine.run_until(1.5)   # between dump rounds
    before = update_count(sim)
    broken = sim.nodes[2].mark_broken(3)
    assert all(e.broken and e.dst_seq % 2 == 1 for e in broken)
    sim.engine.run_until(1.7)   # let the flood settle
    assert update_count(sim) > before
    # nodes 0 and 1 heard about it even though only 2 noticed the break
    assert sim.nodes[0].table[3].broken
    assert sim.nodes[1].table[3].broken
    sim.engine.run_until(2.2)   # node 3's next dump heals everyone
    assert not sim.nodes[0].table[3].broken


def test_break_flood_spans_connected_component():
    sim = build_sim(CHAIN, protocol="dsdv", end=6.0)
    sim.engine.run_until(1.0)
    tx_nodes_before = {e.node for e in sim.ledger.events
                       if e.subkind == "DSDV-UPDATE"}
    assert tx_nodes_before == {0, 1, 2, 3}
    n_before = update_count(sim)
    sim.nodes[2].mark_broken(3)
    sim.engine.run_until(1.2)
    tx_after = [e.node for e in sim.ledger.events
                if e.subkind == "DSDV-UPDATE"][n_before:]
    # every still-connected node re-transmitted during the flood round
    assert {0, 1, 2}.issubset(set(tx_after))


def test_new_neighbor_triggers_network_wide_broadcast():
    # node 3 starts alone, then walks into range of node 2 at t=2.5
    from manetsim.scenario import Movement
    from manetsim.world import Position
    sim = build_sim([(0, 0), (200, 0), (400, 0), (400, 700)], protocol="dsdv",
                    movements=[Movement(2.5, 3, Position(400, 240), 400.0)],
                    end=6.0)
    sim.engine.run_until(2.4)
    assert 3 not in sim.nodes[0].table
    sim.engine.run_until(5.0)   # next dumps cross the new link
    assert 3 in sim.nodes[0].table and not sim.nodes[0].table[3].broken


def test_no_change_no_triggered_update():
    sim = build_sim(CHAIN, protocol="dsdv", end=6.0)
    sim.engine.run_until(1.5)   # fully converged
    node = sim.nodes[1]
    before = update_count(sim)
    stale = UpdatePacket(src=0, entries=[(0, node.table[0].dst_seq, 0)],
                         uid=sim.next_uid())
    assert node.handle_update(0, stale) == 0
    assert update_count(sim) == before


# -- handle_update adoption rules ----------------------------------------------

def test_newer_seq_adopted_and_readvertised():
    sim = build_sim(CHAIN, protocol="dsdv")
    node = sim.nodes[1]
    pkt = UpdatePacket(src=0, entries=[(0, 4, 0)],
                       uid=sim.next_uid())
    assert node.handle_update(0, pkt) == 1
    assert node.table[0].next_hop == 0 and node.table[0].hop_count == 1
    assert update_count(sim) == 1   # re-broadcast of the adopted change


def test_stale_seq_ignored():
    sim = build_sim(CHAIN, protocol="dsdv")
    node = sim.nodes[1]
    node.handle_update(0, UpdatePacket(0, [(0, 4, 0)], sim.next_uid()))
    assert node.handle_update(0, UpdatePacket(0, [(0, 2, 0)],
                                              sim.next_uid())) == 0


def test_equal_seq_worse_metric_ignored():
    sim = build_sim(CHAIN, protocol="dsdv")
    node = sim.nodes[1]
    node.handle_update(0, UpdatePacket(0, [(0, 4, 0)], sim.next_uid()))
    assert node.handle_update(2, UpdatePacket(0, [(0, 4, 3)],
                                              sim.next_uid())) == 0
    assert node.table[0].next_hop == 0


def test_equal_seq_better_metric_adopted():
    sim = build_sim(CHAIN, protocol="dsdv")
    node = sim.nodes[1]
    node.handle_update(2, UpdatePacket(0, [(0, 4, 3)], sim.next_uid()))
    assert node.handle_update(0, UpdatePacket(0, [(0, 4, 0)],
                                              sim.next_uid())) == 1
    assert node.table[0].hop_count == 1


# -- handle_update against the adopt rule written out -------------------------

def adopts(existing, me, dst, seq, hops):
    """The adopt rule, one branch per case. existing is the (dst_seq,
    hop_count) the receiver holds for dst, or None."""
    if dst == me:
        return False
    broken = seq % 2 == 1 or hops is None
    if existing is None:
        return not broken   # nothing to tear down for an unknown destination
    old_seq, old_hops = existing
    if seq > old_seq:
        return True
    return seq == old_seq and not broken and old_seq % 2 == 0 and hops + 1 < old_hops


class Recorder:
    """The three Simulation calls handle_update makes, recorded."""

    def __init__(self):
        self.route_changes, self.sent = [], []

    def route_changed(self, dst):
        self.route_changes.append(dst)

    def next_uid(self):
        return 0

    def broadcast(self, sender, pkt):
        self.sent.append(pkt.entries)


def check_adopt_rule(me, rows, sender, entries):
    """handle_update on a table of rows {dst: (next_hop, hop_count, dst_seq)}
    against adopts: final table, route_changed order, triggered update and
    adopted count."""
    table = dict(rows)
    changes = []
    for dst, seq, hops in entries:
        if adopts((table[dst][2], table[dst][1]) if dst in table else None, me, dst, seq, hops):
            table[dst] = (sender, None if seq % 2 or hops is None else hops + 1, seq)
            changes.append((dst, seq, table[dst][1]))

    sim = Recorder()
    node = DsdvNode(me, sim)
    node.table = {dst: DsdvEntry(dst, *row) for dst, row in rows.items()}
    adopted = node.handle_update(sender, UpdatePacket(sender, list(entries), uid=0))
    assert {dst: (e.next_hop, e.hop_count, e.dst_seq) for dst, e in node.table.items()} == table
    assert sim.route_changes == [dst for dst, _, _ in changes]
    assert sim.sent == ([changes] if changes else [])
    assert adopted == len(changes)
    return adopted


@st.composite
def adopt_cases(draw, ids=6):
    """(me, rows, sender, entries): an even sequence carries a hop count and
    an odd one marks a break, as the protocol keeps them; a packet names
    each destination at most once, and may name the receiver."""
    me = draw(st.integers(0, ids - 1))
    rows = {me: (me, 0, 2 * draw(st.integers(0, 1)))}
    for dst in draw(st.sets(st.integers(0, ids - 1))) - {me}:
        seq = draw(st.integers(0, 3))
        rows[dst] = (draw(st.integers(0, ids - 1)), None if seq % 2 else draw(st.integers(1, 3)),
                     seq)
    sender = draw(st.integers(0, ids - 1).filter(lambda s: s != me))
    entries = []
    for dst in draw(st.lists(st.integers(0, ids - 1), unique=True, max_size=ids)):
        if dst in rows and draw(st.booleans()):
            # most of a neighbour's dump echoes the receiver's entry: the same
            # sequence, one hop shorter than it, or equal, or longer
            _, hop_count, seq = rows[dst]
            hops = None if hop_count is None else hop_count - 1 + draw(st.integers(-1, 1))
        else:
            seq, hops = draw(st.integers(0, 3)), draw(st.none() | st.integers(0, 2))
        entries.append((dst, seq, hops))
    return me, rows, sender, entries


@settings(max_examples=200, deadline=None)
@given(adopt_cases())
def test_handle_update_follows_the_adopt_rule(case):
    check_adopt_rule(*case)


@pytest.mark.parametrize("entries, adopted", [
    ([(0, 7, 1)], 0),                   # odd sequence for the receiver, above its own
    ([(0, 6, 0)], 0),                   # even sequence for the receiver, above its own
    ([(5, 3, None)], 0),                # broken entry for an unknown destination
    ([(5, 4, None)], 0),                # unreachable entry for an unknown destination
    ([(2, 5, 0)], 0),                   # equal sequence against a broken entry
    ([(2, 5, None)], 0),
    ([(2, 7, None)], 1),                # fresher break of a broken entry
    ([(3, 4, 1)], 0),                   # equal sequence, equal metric
    ([(3, 4, 0)], 1),                   # equal sequence, shorter metric
    ([(3, 4, 2), (2, 6, 1), (4, 2, 0)], 2),
], ids=["own-odd", "own-even", "unknown-broken", "unknown-unreachable", "equal-broken",
        "equal-broken-unreachable", "fresher-break", "equal-metric", "shorter-metric", "mixed"])
def test_adopt_rule_cases(entries, adopted):
    rows = {0: (0, 0, 4), 2: (1, None, 5), 3: (1, 2, 4)}
    assert check_adopt_rule(0, rows, 1, entries) == adopted


# -- forwarding ---------------------------------------------------------------------

def test_forward_with_entry_present():
    sim = build_sim(CHAIN, protocol="dsdv", end=6.0)
    sim.engine.run_until(1.0)
    tx = sim.ledger.data_tx
    sim.nodes[0].forward_data(packet(sim, 0, 3))
    assert sim.ledger.data_tx == tx + 1 and sim.ledger.dropped_data == 0
    sim.engine.run_until(1.5)
    assert sim.ledger.received == 1


def test_broken_entry_drops_immediately():
    sim = build_sim(CHAIN, protocol="dsdv", end=6.0)
    sim.engine.run_until(1.0)
    sim.nodes[0].mark_broken(1)
    sim.nodes[0].forward_data(packet(sim, 0, 3))
    assert sim.ledger.dropped_data == 1


def test_unknown_destination_drops_immediately():
    sim = build_sim([(0, 0), (700, 700)], protocol="dsdv")
    sim.nodes[0].forward_data(packet(sim, 0, 1))
    assert sim.ledger.dropped_data == 1


# -- invariants ------------------------------------------------------------------------

def test_dsdv_loop_free_on_random_scenarios():
    rnd = random.Random(424)
    for _ in range(20):
        spec = random_scenario(rnd)
        sim = Simulation(spec, protocol="dsdv", seed=rnd.randrange(1000))
        sim.event_hooks.append(lambda s=sim: assert_loop_free(s))
        sim.run()


def test_dsdv_overhead_exceeds_aodv_on_builtins():
    from manetsim.scenario import builtin
    for name in ("scenario1", "scenario2"):
        spec = builtin(name)
        for seed in (1, 2, 3):
            aodv = Simulation(spec, "aodv", seed=seed).run().report()
            dsdv = Simulation(spec, "dsdv", seed=seed).run().report()
            assert dsdv.control_tx["total"] > aodv.control_tx["total"]


# -- convergence to shortest paths ---------------------------------------------------

def oracle_hops(pts, radio_range, src):
    """Hop count from src to every node it reaches, by BFS over the
    positions alone: nodes hear each other iff hypot(...) <= range."""
    level = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(len(pts)):
                if v not in level and math.hypot(pts[u][0] - pts[v][0],
                                                 pts[u][1] - pts[v][1]) <= radio_range:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def assert_converges_to_bfs(pts, area, seed):
    """Halfway between full-table dumps, every node of a static connected
    layout holds an unbroken entry with the BFS hop count for every node."""
    spec = build_spec(pts, end=5.5, area=area)
    sim = Simulation(spec, protocol="dsdv", seed=seed)
    hops = [oracle_hops(pts, spec.radio.range, node) for node in range(len(pts))]
    # the jitter bound: past 19 hops a longer flood copy may arrive first
    assert all(len(h) == len(pts) and max(h.values()) <= 19 for h in hops)
    for k in range(1, 6):
        sim.engine.run_until(k + 0.5)
        for node in sim.nodes:
            got = {dst: (e.hop_count, e.broken) for dst, e in node.table.items()}
            assert got == {dst: (h, False) for dst, h in hops[node.node_id].items()}, \
                f"node {node.node_id} at t={k + 0.5}"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(0, 999))
def test_converges_to_bfs_hop_counts_on_static_layouts(layout_seed, n, sim_seed):
    pts = random_connected_positions(random.Random(layout_seed), n)
    assert_converges_to_bfs(pts, (800.0, 800.0), sim_seed)


@pytest.mark.slow
@pytest.mark.parametrize("n", [120, 160, 200])
def test_converges_to_bfs_hop_counts_on_long_strips(n):
    area = (15.0 * n, 600.0)
    pts = random_connected_positions(random.Random(n), n, area=area)
    assert_converges_to_bfs(pts, area, seed=1)
