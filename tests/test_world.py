import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_sim, pending_count, random_waypoint_scenario
from manetsim import world
from manetsim.aodv import Hello
from manetsim.engine import TICKS_PER_S, Engine, quantize
from manetsim.errors import PastTimeError, ScenarioSemanticError, UnknownNodeError
from manetsim.packets import DATA, HELLO, MESSAGE_KINDS, DataPacket
from manetsim.world import (GRID_SLACK, GRID_WINDOW, Movement, Position, RadioModel,
                            UnicastOutcome, World, grid_cell, tracks)


def make_world(positions, radio=RadioModel(), legs=()):
    eng = Engine()
    world = World(eng, [Position(*p) for p in positions], radio, legs)
    world.jitter = 0.0
    return eng, world


def pkt(uid=1, src=0, dst=1):
    return DataPacket(uid=uid, src=src, dst=dst, size=512)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["range", "hop_latency"])
def test_a_radio_range_or_hop_latency_must_be_positive_and_finite(field, value):
    # an infinite hop_latency files every frame at t = inf, so none arrives;
    # a SimError, so the command line reports it in one line
    with pytest.raises(ScenarioSemanticError, match="positive and finite"):
        RadioModel(**{field: value})


# -- mobility ---------------------------------------------------------------

def test_stationary_node_keeps_initial_position():
    _, w = make_world([(10, 20)])
    assert w.position_at(0, 0.0) == Position(10, 20)
    assert w.position_at(0, 123.0) == Position(10, 20)


def test_linear_interpolation_along_leg():
    _, w = make_world([(0, 0)], legs=[Movement(1.0, 0, Position(100, 0), 50)])
    assert w.position_at(0, 2.0) == Position(50, 0)


def test_position_clamped_at_leg_destination():
    _, w = make_world([(0, 0)], legs=[Movement(1.0, 0, Position(100, 0), 50)])
    assert w.position_at(0, 10.0) == Position(100, 0)


def test_position_before_leg_start_is_prior_position():
    _, w = make_world([(0, 0)], legs=[Movement(1.0, 0, Position(100, 0), 50)])
    assert w.position_at(0, 0.5) == Position(0, 0)


def test_sequential_legs_chain_positions():
    _, w = make_world([(0, 0)], legs=[Movement(0.0, 0, Position(100, 0), 100),
                                      Movement(2.0, 0, Position(100, 50), 50)])
    assert w.position_at(0, 1.5) == Position(100, 0)
    assert w.position_at(0, 2.5) == Position(100, 25)


def test_overlapping_legs_rejected():
    origin = [Position(0, 0)]
    first = Movement(1.0, 0, Position(100, 0), 50)
    with pytest.raises(ScenarioSemanticError):
        tracks(origin, [first, Movement(2.0, 0, Position(0, 0), 50)])
    # a leg that starts exactly at the arrival does not overlap
    assert tracks(origin, [first, Movement(3.0, 0, Position(0, 0), 50)])[0][0] == [1.0, 3.0]


@pytest.mark.parametrize("node", [1.0, True])
def test_a_leg_whose_node_id_is_not_an_int_is_refused(node):
    """A World built without a ScenarioSpec: 1.0 raised a bare TypeError,
    and True moved node 1."""
    with pytest.raises(ScenarioSemanticError, match="unknown node"):
        make_world([(0, 0), (10, 0)], legs=[Movement(0.0, node, Position(5, 0), 1.0)])


def test_overlap_message_gives_the_arrival_at_full_precision():
    leg = Movement(0.01, 0, Position(0.800039912193175, 0), 100.0)
    arrival = 0.01 + 0.800039912193175 / 100.0
    assert repr(arrival) == "0.01800039912193175"
    with pytest.raises(ScenarioSemanticError) as exc:
        tracks([Position(0, 0)], [leg, Movement(0.018, 0, Position(0, 0), 1.0)])
    assert str(exc.value) == (
        "node 0: leg at 0.018 overlaps one ending at 0.01800039912193175")


def test_unknown_node_raises():
    _, w = make_world([(0, 0)])
    with pytest.raises(UnknownNodeError):
        w.position_at(3, 0.0)
    with pytest.raises(UnknownNodeError):
        w.in_range(0, 3, 0.0)
    with pytest.raises(UnknownNodeError):
        w.neighbors_of(3, 0.0)


def test_movement_never_teleports():
    rnd = random.Random(5)
    t = 0.0
    here = Position(400, 400)
    max_speed = 0.0
    legs = []
    for _ in range(4):
        speed = rnd.uniform(10, 200)
        max_speed = max(max_speed, speed)
        leg = Movement(t + rnd.uniform(0, 1), 0,
                       Position(rnd.uniform(0, 800), rnd.uniform(0, 800)), speed)
        legs.append(leg)
        t = leg.start_time + math.hypot(here.x - leg.dest.x, here.y - leg.dest.y) / speed
        here = leg.dest
    _, w = make_world([(400, 400)], legs=legs)
    samples = [i * 0.37 for i in range(60)]
    for t1, t2 in zip(samples, samples[1:]):
        a, b = w.position_at(0, t1), w.position_at(0, t2)
        d = math.hypot(a.x - b.x, a.y - b.y)
        assert d <= max_speed * (t2 - t1) + 1e-9


# -- connectivity -----------------------------------------------------------

def test_coincident_nodes_in_range():
    _, w = make_world([(5, 5), (5, 5)])
    assert w.in_range(0, 1, 0.0)


def test_boundary_distance_inclusive():
    _, w = make_world([(0, 0), (250, 0)], radio=RadioModel(range=250))
    assert w.in_range(0, 1, 0.0)
    _, w2 = make_world([(0, 0), (250.001, 0)], radio=RadioModel(range=250))
    assert not w2.in_range(0, 1, 0.0)


def test_in_range_symmetric_on_random_layouts():
    rnd = random.Random(11)
    for _ in range(20):
        n = rnd.randint(2, 10)
        _, w = make_world([(rnd.uniform(0, 800), rnd.uniform(0, 800)) for _ in range(n)])
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert w.in_range(a, b, 0.0) == w.in_range(b, a, 0.0)


def test_connectivity_is_exactly_the_unit_disk_graph():
    rnd = random.Random(23)
    for _ in range(25):
        n = rnd.randint(2, 10)
        coords = [(rnd.uniform(0, 800), rnd.uniform(0, 800)) for _ in range(n)]
        _, w = make_world(coords)
        for a in range(n):
            for b in range(a + 1, n):
                expected = math.dist(coords[a], coords[b]) <= w.radio.range
                assert w.in_range(a, b, 0.0) == expected


def test_scenario1_nodes_4_and_5_out_of_range_at_3s():
    from manetsim.scenario import builtin
    spec = builtin("scenario1")
    _, w = make_world([(p.x, p.y) for p in spec.nodes], spec.radio, spec.movements)
    assert w.in_range(4, 5, 2.0)
    assert not w.in_range(4, 5, 3.0)


# -- delivery ---------------------------------------------------------------

def test_isolated_broadcast_delivers_nothing_but_counts_once():
    sim = build_sim([(0, 0), (600, 600)])
    receivers = sim.broadcast(0, Hello(src=0, uid=sim.next_uid()))
    assert receivers == []
    assert sim.ledger.control_tx == {HELLO: 1}
    assert pending_count(sim.engine) == 0


def test_broadcast_reaches_exactly_in_range_nodes():
    got = []
    eng, w = make_world([(0, 0), (100, 0), (200, 0), (600, 0)])
    w.on_receive = {DATA: [lambda s, m, r=r: got.append((r, s)) for r in range(4)]}
    receivers = w.broadcast(0, pkt())
    assert receivers == [1, 2]
    eng.run_until(1.0)
    assert sorted(got) == [(1, 0), (2, 0)]


def test_an_unwired_world_drops_a_frame_of_every_kind():
    eng, w = make_world([(0, 0), (10, 0)])
    for kind in MESSAGE_KINDS:
        assert w.broadcast(0, types.SimpleNamespace(kind=kind)) == [1]
    assert eng.run_until(1.0) == len(MESSAGE_KINDS)


def test_broadcast_never_delivers_to_sender():
    got = []
    eng, w = make_world([(0, 0), (10, 0)])
    w.on_receive = {DATA: [lambda s, m, r=r: got.append(r) for r in range(2)]}
    assert 0 not in w.broadcast(0, pkt())
    eng.run_until(1.0)
    assert got == [1]


def test_all_neighbors_one_transmission():
    sim = build_sim([(0, 0), (50, 0), (0, 50), (50, 50)])
    receivers = sim.broadcast(0, Hello(src=0, uid=sim.next_uid()))
    assert len(receivers) == 3
    assert sim.ledger.control_tx == {HELLO: 1}


def test_unicast_in_range_delivers_after_hop_latency():
    got = []
    eng, w = make_world([(0, 0), (100, 0)])
    w.on_receive = {DATA: [lambda s, m, r=r: got.append((eng.now, r)) for r in range(2)]}
    assert w.unicast(0, 1, pkt()) is UnicastOutcome.SENT
    eng.run_until(1.0)
    assert got == [(0.001, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.01), st.floats(1e-4, 0.01),
       st.floats(0.0, 100.0), st.integers(1, 8))
def test_delivery_times_match_the_uniform_draw_oracle(seed, jitter, hop_latency, now, k):
    # broadcast and unicast draw inline as j * random(); rng.uniform(0.0, j)
    # is the reference, added to the clock in the same order and grouping.
    # The fire times are read from the buckets the frames are filed in
    eng = Engine()
    eng.now = now
    w = World(eng, [Position(10.0 * i, 0.0) for i in range(k + 1)],
              RadioModel(hop_latency=hop_latency), seed=seed)
    w.jitter = jitter
    handlers = [lambda s, m: None for _ in range(k + 1)]     # k + 1 distinct handlers
    w.on_receive = {DATA: handlers}
    unicast = pkt()
    assert w.broadcast(0, pkt()) == list(range(1, k + 1))
    assert w.unicast(0, 1, unicast) is UnicastOutcome.SENT
    filed = {(handlers.index(fn), args[1] is unicast): at
             for at, bucket in eng._buckets.items() for fn, args in bucket}
    posted = [filed[r, False] for r in range(1, k + 1)] + [filed[1, True]]
    oracle = random.Random(seed)
    assert posted == [quantize(now + (hop_latency + oracle.uniform(0.0, jitter)))
                      for _ in range(k + 1)]


# a clock on the microsecond grid, in ticks: small, or near 2**50 ticks,
# where a fire time's integer-tick step gives way to round(t, 6)
NOW_TICKS = st.one_of(st.integers(0, 10**9), st.integers(2**50 - 20_000, 2**50 + 20_000))


@settings(max_examples=200, deadline=None)
@given(NOW_TICKS, st.floats(10.0, 80.0), st.floats(1e-6, 0.01), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1), st.integers(1, 8), st.sets(st.integers(0, 8)))
def test_world_files_frames_where_post_all_would(ticks, radio_range, hop_latency, jitter_share,
                                                 seed, k, shared):
    """World's written-out filing against post_all: a broadcast's frames and
    a unicast frame land under quantize(now + (latency + jitter * u)) for
    the same draws u, and every bucket, and the heap of fire times, equals
    what filing the same (fire_at, entry) pairs with post_all gives. The
    frames whose index is in `shared` find their bucket already holding an
    entry, so they are appended behind it."""
    now = ticks / TICKS_PER_S
    jitter = hop_latency * jitter_share
    n = min(k, int(radio_range // 10.0))    # node i sits 10 * i m from node 0
    u = random.Random(seed)
    # one draw per broadcast receiver, in id order, then the unicast's
    times = [now + (hop_latency + jitter * u.random()) for _ in range(n + 1)]
    engines = []
    for _ in range(2):
        eng = Engine()
        eng.now = now
        eng.post_all([(times[i], (id, ("before", i))) for i in sorted(shared) if i <= n])
        engines.append(eng)
    eng, ref = engines
    w = World(eng, [Position(10.0 * i, 0.0) for i in range(k + 1)],
              RadioModel(range=radio_range, hop_latency=hop_latency), seed=seed)
    w.jitter = jitter
    handlers = [lambda s, m: None for _ in range(k + 1)]
    w.on_receive = {DATA: handlers}
    flooded, sent = pkt(), pkt(uid=2)
    assert w.broadcast(0, flooded) == list(range(1, n + 1))
    assert w.unicast(0, 1, sent) is UnicastOutcome.SENT
    entries = [(handlers[r], (0, flooded)) for r in range(1, n + 1)] + [(handlers[1], (0, sent))]
    where = {(id(fn), id(args[1])): at for at, bucket in eng._buckets.items()
             for fn, args in bucket}
    assert [where[id(fn), id(args[1])] for fn, args in entries] == [quantize(t) for t in times]
    ref.post_all(zip(times, entries))
    assert {at: list(bucket) for at, bucket in eng._buckets.items()} == {
        at: list(bucket) for at, bucket in ref._buckets.items()}
    assert eng._queue == ref._queue


@pytest.mark.parametrize("jitter", [-1e3, math.nan])
def test_a_frame_due_before_the_clock_is_refused_and_not_filed(jitter):
    eng, w = make_world([(0, 0), (10, 0)])
    eng.now = 1.0
    w.jitter = jitter
    with pytest.raises(PastTimeError):
        w.broadcast(0, pkt())
    with pytest.raises(PastTimeError):
        w.unicast(0, 1, pkt())
    assert pending_count(eng) == 0 and eng._queue == []


def test_unicast_out_of_range_is_link_break():
    sim = build_sim([(0, 0), (600, 0)])
    assert sim.world.unicast(0, 1, pkt()) is UnicastOutcome.LINK_BREAK
    assert sim.send_unicast(0, 1, pkt()) is False
    assert sim.ledger.events == []  # a failed attempt transmits nothing


@pytest.mark.parametrize("next_hop", [99, 2, -1])
def test_unicast_to_an_undeployed_next_hop_raises(next_hop):
    # -1 must not index the last node
    sim = build_sim([(0, 0), (10, 0)])
    with pytest.raises(UnknownNodeError):
        sim.send_unicast(0, next_hop, pkt())
    assert sim.ledger.events == [] and pending_count(sim.engine) == 0


def test_unicast_to_itself_raises():
    sim = build_sim([(0, 0), (10, 0)])
    with pytest.raises(ValueError, match="unicast to self"):
        sim.send_unicast(1, 1, pkt())
    assert sim.ledger.events == [] and pending_count(sim.engine) == 0


def test_control_broadcast_recorded_as_control_tx():
    sim = build_sim([(0, 0), (10, 0)])
    sim.broadcast(0, Hello(src=0, uid=sim.next_uid()))
    assert sim.ledger.control_tx == {HELLO: 1}
    assert sim.ledger.data_tx == 0


def test_scenario2_node3_to_5_breaks_at_2_3():
    from manetsim.scenario import builtin
    spec = builtin("scenario2")
    eng, w = make_world([(p.x, p.y) for p in spec.nodes], spec.radio, spec.movements)
    eng.run_until(2.3)
    assert w.unicast(3, 5, pkt()) is UnicastOutcome.LINK_BREAK


# -- neighbour queries against brute force ----------------------------------
# The world prunes neighbour candidates with a position grid and reads
# positions from each node's fixed point or leg table. These properties
# compare it with the plain definition: positions from the waypoint
# semantics written out here, and every other node tested with
# hypot(...) <= range, in ascending id order.

PROPERTY = settings(max_examples=75, deadline=None)


def oracle_position(initial, legs, t):
    """Position at t; each leg starts where the legs before it put the node
    and puts it exactly at its destination from its arrival on."""
    pos = initial
    for i, (start, dest, speed) in enumerate(legs):
        if t < start:
            break
        begin = oracle_position(initial, legs[:i], start)
        total = math.hypot(begin[0] - dest[0], begin[1] - dest[1])
        if t >= start + total / speed:
            pos = dest
            continue
        f = min(total, speed * (t - start)) / total
        pos = (begin[0] + (dest[0] - begin[0]) * f, begin[1] + (dest[1] - begin[1]) * f)
    return pos


def oracle_neighbors(coords, legs, radio_range, node, t):
    here = oracle_position(coords[node], legs[node], t)
    out = []
    for m in range(len(coords)):
        there = oracle_position(coords[m], legs[m], t)
        if m != node and math.hypot(here[0] - there[0], here[1] - there[1]) <= radio_range:
            out.append(m)
    return out


def movements(legs):
    return [Movement(start, node, Position(*dest), speed)
            for node, node_legs in enumerate(legs) for start, dest, speed in node_legs]


def mobile_world(coords, legs, radio_range):
    return make_world(coords, RadioModel(range=radio_range), movements(legs))[1]


coordinate = st.floats(0, 2000, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def mobile_layouts(draw, max_nodes=14):
    """(coords, legs per node, range); legs never overlap in time."""
    n = draw(st.integers(2, max_nodes))
    coords = [(draw(coordinate), draw(coordinate)) for _ in range(n)]
    legs = []
    for node in range(n):
        node_legs = []
        here = coords[node]
        t = draw(st.floats(0, 3))
        for _ in range(draw(st.integers(0, 2))):
            dest = (draw(coordinate), draw(coordinate))
            speed = draw(st.floats(1, 300))
            node_legs.append((t, dest, speed))
            t += math.hypot(dest[0] - here[0], dest[1] - here[1]) / speed
            t += draw(st.floats(0.01, 2))
            here = dest
        legs.append(node_legs)
    return coords, legs, draw(st.sampled_from([50.0, 150.0, 250.0, 400.0]))


query_time = st.floats(0, 30, allow_nan=False)
# the Verlet lists are exact at any window: the tests below run each case
# at the module's window, one ten times longer and one ten times shorter
WINDOWS = [0.5, 0.05, 0.005]


def at_each_window(check):
    """Run check(window) with world.GRID_WINDOW patched to each of WINDOWS."""
    for window in WINDOWS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(world, "GRID_WINDOW", window)
            check(window)


@PROPERTY
@given(mobile_layouts(), st.lists(st.tuples(st.integers(0, 99), query_time), max_size=12))
def test_neighbors_match_brute_force_on_mobile_layouts(layout, queries):
    coords, legs, radio_range = layout

    def check(window):
        w = mobile_world(coords, legs, radio_range)
        for node, t in queries:
            node %= len(coords)
            assert w.neighbors_of(node, t) == oracle_neighbors(coords, legs, radio_range,
                                                               node, t), window
            assert w.position_at(node, t) == Position(*oracle_position(coords[node],
                                                                        legs[node], t))

    at_each_window(check)


@PROPERTY
@given(mobile_layouts(), st.lists(query_time, min_size=2, max_size=8))
def test_neighbors_match_brute_force_when_time_goes_backwards(layout, times):
    coords, legs, radio_range = layout
    w = mobile_world(coords, legs, radio_range)
    for t in sorted(times, reverse=True):
        for node in range(len(coords)):
            assert w.neighbors_of(node, t) == oracle_neighbors(coords, legs, radio_range,
                                                               node, t)


@PROPERTY
@given(st.integers(-3000, 3000), st.integers(-3000, 3000),
       st.sampled_from([(3, 4, 5), (5, 12, 13), (8, 15, 17),
                                                (1, 0, 1), (0, 1, 1)]),
       st.sampled_from([5.0, 25.0, 250.0]))
def test_nodes_exactly_range_apart_are_neighbors(x, y, triple, scale):
    """Integer coordinates keep the distances exact, so the boundary is hit."""
    a, b, c = triple
    coords = [(x, y), (x + a * scale, y + b * scale), (x - a * scale, y - b * scale)]
    radio_range = c * scale
    _, w = make_world(coords, radio=RadioModel(range=radio_range))
    for node in range(3):
        assert w.neighbors_of(node, 0.0) == oracle_neighbors(coords, [[]] * 3,
                                                             radio_range, node, 0.0)
    assert w.neighbors_of(0, 0.0) == [1, 2]


@PROPERTY
@given(st.floats(1, 50), st.sampled_from([100.0, 250.0]), st.integers(1, 6))
def test_nodes_closing_in_meet_at_range_at_the_end_of_the_grid_window(speed, radio_range, k):
    """Two nodes reach+ apart when the grid is built, closing at the top speed:
    at the end of the window they are exactly range apart."""
    reach = radio_range + 2 * speed * GRID_WINDOW
    edge = k * grid_cell(radio_range, speed, 10_000.0)
    coords = [(edge, 0.0), (edge - reach, 0.0), (10_000.0, 10_000.0)]
    legs = [[(0.0, (0.0, 0.0), speed)], [(0.0, (10_000.0, 0.0), speed)], []]
    w = mobile_world(coords, legs, radio_range)
    for t in (0.0, GRID_WINDOW / 2, GRID_WINDOW):
        for node in range(3):
            assert w.neighbors_of(node, t) == oracle_neighbors(coords, legs, radio_range,
                                                               node, t)


@PROPERTY
@given(st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8),
                          st.sampled_from([0.0, 1.0, -1.0, 0.5])), min_size=2, max_size=20),
       st.sampled_from([100.0, 250.0]))
def test_nodes_on_cell_edges_match_brute_force(cells, radio_range):
    """Static nodes on or one range off the grid's cell edges; a far node
    fixes the largest coordinate and so the cell width."""
    far = 10_000.0
    cell = grid_cell(radio_range, 0.0, far)
    coords = [(i * cell + shift * radio_range, j * cell) for i, j, shift in cells]
    coords.append((far, far))
    static = [[] for _ in coords]
    _, w = make_world(coords, radio=RadioModel(range=radio_range))
    for node in range(len(coords)):
        assert w.neighbors_of(node, 0.0) == oracle_neighbors(coords, static, radio_range,
                                                             node, 0.0)


# A node's first query in a grid window splits its block by the grid's
# positions into Verlet lists (World._lists[node] is (sure, shell)); every
# query in the window, in any order, tests only the shell. These pin the
# lists against the oracle and the saving.

@PROPERTY
@given(mobile_layouts(), query_time, st.lists(st.floats(0, 1), max_size=6),
       st.randoms(use_true_random=False))
def test_neighbors_match_brute_force_inside_one_grid_window(layout, start, shares, rnd):
    """The query times are shares of the window past start, so they follow
    the patched window."""
    at_each_window(lambda window: check_one_grid_window(
        layout, [start + f * window for f in shares], start, rnd))


def check_one_grid_window(layout, times, start, rnd):
    coords, legs, radio_range = layout
    w = mobile_world(coords, legs, radio_range)
    rnd.shuffle(times)          # so that some queries go back in time
    split_at_start = None
    for t in [start] + times:
        w.engine.now = t
        for node in range(len(coords)):
            expected = oracle_neighbors(coords, legs, radio_range, node, t)
            assert w.neighbors_of(node, t) == expected
            assert w.position_at(node, t) == Position(*oracle_position(coords[node],
                                                                        legs[node], t))
            for m in range(len(coords)):
                if m != node:
                    assert w.in_range(node, m, t) == (m in expected)
                    assert w.unicast(node, m, pkt()) is (UnicastOutcome.SENT if m in expected
                                                         else UnicastOutcome.LINK_BREAK)
        split_at_start = split_at_start or list(w._lists)
    assert all(now is then for now, then in zip(w._lists, split_at_start, strict=True))


@pytest.mark.slow
def test_neighbors_match_brute_force_on_200_random_waypoint_nodes():
    """About 40 random query times per node over 10 s: the windows in
    shuffled order, and the queries inside each window shuffled too, so
    that grids are rebuilt back in time and lists serve earlier queries."""
    rnd = random.Random(19)
    spec = random_waypoint_scenario(rnd, 200, 1700.0, 10.0)
    coords = [(p.x, p.y) for p in spec.nodes]
    legs = [[] for _ in coords]
    for leg in spec.movements:
        legs[leg.node].append((leg.start_time, (leg.dest.x, leg.dest.y), leg.speed))
    w = World(Engine(), spec.nodes, spec.radio, spec.movements)
    windows = {}
    for node in range(len(coords)):
        for _ in range(40):
            t = rnd.uniform(0.0, 10.0)
            windows.setdefault(t // GRID_WINDOW, []).append((node, t))
    order = list(windows.values())
    rnd.shuffle(order)
    for queries in order:
        rnd.shuffle(queries)
        for node, t in queries:
            assert w.neighbors_of(node, t) == oracle_neighbors(coords, legs, spec.radio.range,
                                                               node, t)


def closing_pair():
    """Node 1 heads for node 0, 50 m per grid window: 255 m apart at a fifth
    of the window, 225 m at four fifths of it."""
    coords = [(0.0, 0.0), (265.0, 0.0)]
    legs = [[], [(0.0, (0.0, 0.0), 50.0 / GRID_WINDOW)]]
    return coords, legs, mobile_world(coords, legs, 250.0)


def test_a_query_back_in_time_inside_a_window_keeps_the_lists():
    coords, legs, w = closing_pair()
    early, late = 0.2 * GRID_WINDOW, 0.8 * GRID_WINDOW
    assert w.neighbors_of(1, 0.0) == []     # builds the grid at 0.0
    assert w.neighbors_of(0, late) == [1] == oracle_neighbors(coords, legs, 250.0, 0, late)
    lists = w._lists[0]
    assert lists == ([], [1])               # 265 m apart at 0.0: the shell
    assert w.neighbors_of(0, early) == [] == oracle_neighbors(coords, legs, 250.0, 0, early)
    assert w._lists[0] is lists


@pytest.mark.parametrize("speed", [1.0, 20.0, 100.0])
@pytest.mark.parametrize("offset, lists", [(-1e-9, ([1], [])), (1e-6, ([], [1]))])
def test_a_pair_separating_at_top_speed_from_the_sure_edge_stays_in_range(speed, offset, lists):
    """Both nodes move apart at v_max from range - slack + offset apart: the
    pair is sure just inside that edge and in the shell just outside it, and
    at the window's end it is still inside range. A far node fixes the
    largest coordinate and so the rounding margin."""
    radio_range, x, far = 250.0, 1000.0, 5000.0
    margin = GRID_SLACK * (grid_cell(radio_range, speed, far) + far)
    gap = radio_range - 2 * speed * GRID_WINDOW - margin + offset
    coords = [(x, 0.0), (x + gap, 0.0), (far, far)]
    legs = [[(0.0, (0.0, 0.0), speed)], [(0.0, (x + far, 0.0), speed)], []]
    w = mobile_world(coords, legs, radio_range)
    for k in range(11):
        t = GRID_WINDOW * k / 10
        assert w.neighbors_of(0, t) == [1] == oracle_neighbors(coords, legs, radio_range, 0, t)
    assert w._lists[0] == lists


def test_static_layout_matches_brute_force_across_many_windows():
    rnd = random.Random(7)
    coords = [(rnd.uniform(0, 1500), rnd.uniform(0, 300)) for _ in range(30)]
    static = [[] for _ in coords]
    _, w = make_world(coords)
    for t in (0.0, 0.3, 0.7, 2.5, 9.9, 10.0, 31.4):
        for node in range(len(coords)):
            assert w.neighbors_of(node, t) == oracle_neighbors(coords, static, 250.0, node, t)
    # one window without end: the lists split at 0.0, and no pair is within
    # the rounding margin of range, so the shell is empty
    assert w._lists == [(oracle_neighbors(coords, static, 250.0, node, 0.0), [])
                        for node in range(len(coords))]


def counting(monkeypatch, name):
    """Record (node, t) of every call to the World method name."""
    calls = []
    real = getattr(World, name)
    monkeypatch.setattr(World, name, lambda self, node, t: calls.append((node, t))
                        or real(self, node, t))
    return calls


def test_a_repeat_query_with_an_empty_shell_locates_no_node(monkeypatch):
    """Nodes 0 and 1 move side by side 100 m apart; node 2 is far away."""
    coords = [(0.0, 0.0), (0.0, 100.0), (3000.0, 0.0)]
    legs = [[(0.0, (5000.0, 0.0), 10.0)], [(0.0, (5000.0, 100.0), 10.0)],
            [(0.0, (3000.0, 300.0), 10.0)]]
    w = mobile_world(coords, legs, 250.0)
    locate = counting(monkeypatch, "_locate")
    assert w.neighbors_of(0, 0.0) == [1]
    assert len(locate) == 3                 # the grid's one pass over every node
    assert w._lists[0] == ([1], [])
    locate.clear()
    for share in (0.2, 0.5, 0.8, 1.0):
        assert w.neighbors_of(0, share * GRID_WINDOW) == [1]
    assert locate == []


def test_a_first_query_after_the_grid_is_built_looks_up_no_position(monkeypatch):
    """The lists come from the grid's positions at 0.0: node 0's first query,
    at four fifths of the window, with node 1 sure and node 2 out of the
    block, looks up none."""
    coords = [(0.0, 0.0), (0.0, 100.0), (3000.0, 0.0)]
    legs = [[(0.0, (5000.0, 0.0), 10.0)], [(0.0, (5000.0, 100.0), 10.0)],
            [(0.0, (3000.0, 300.0), 10.0)]]
    w = mobile_world(coords, legs, 250.0)
    assert w.neighbors_of(1, 0.0) == [0]    # builds the grid at 0.0
    locate, xy = counting(monkeypatch, "_locate"), counting(monkeypatch, "_xy")
    t = 0.8 * GRID_WINDOW
    assert w.neighbors_of(0, t) == [1] == oracle_neighbors(coords, legs, 250.0, 0, t)
    assert locate == [] and xy == []
    assert w._lists[0] == ([1], [])


def test_a_first_query_at_the_window_end_with_an_overflowing_top_speed():
    """2 * v_max overflows to inf; a slack of inf * 0.0 at the window's end
    was NaN and dropped every neighbour."""
    coords = [(0.0, 0.0), (100.0, 0.0), (500.0, 0.0)]
    legs = [[], [], [(0.0, (200.0, 0.0), 1e308)]]
    w = World(Engine(), [Position(*p) for p in coords], RadioModel(250.0), movements(legs))
    assert w.neighbors_of(1, 0.0) == [0] == oracle_neighbors(coords, legs, 250.0, 1, 0.0)
    assert w.neighbors_of(0, GRID_WINDOW) == [1, 2] == oracle_neighbors(
        coords, legs, 250.0, 0, GRID_WINDOW)


def test_later_windows_of_a_static_layout_look_up_no_position(monkeypatch):
    coords = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (400.0, 200.0), (900.0, 900.0)]
    _, w = make_world(coords)
    for node in range(len(coords)):
        w.neighbors_of(node, 0.0)
    locate, xy = counting(monkeypatch, "_locate"), counting(monkeypatch, "_xy")
    for t in (0.5, 1.0, 7.25, 60.0):
        assert [w.neighbors_of(node, t) for node in range(len(coords))] == [
            [1], [0, 2], [1, 3], [2], []]
    assert locate == [] and xy == []


def oracle_hops(coords, legs, radio_range, src, dst, t):
    level = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in oracle_neighbors(coords, legs, radio_range, u, t):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level.get(dst)


@PROPERTY
@given(mobile_layouts(max_nodes=12), st.lists(query_time, min_size=1, max_size=5))
def test_bfs_hops_match_oracle(layout, times):
    coords, legs, radio_range = layout
    # the layouts' coordinates reach 2000 m and their last legs start by 2,834 s
    sim = build_sim(coords, movements=movements(legs), radio_range=radio_range, end=3000.0,
                    area=(2000.0, 2000.0))
    n = len(coords)
    for t in times:
        sim.engine.now = t
        for src in range(n):
            for dst in range(n):
                assert sim._bfs_hops(src, dst) == oracle_hops(coords, legs, radio_range,
                                                              src, dst, t)
