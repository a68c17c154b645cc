"""Per-frame code loads no Enum class and no `.value`, queues a frame, as
a (handler, args) entry, without a Python call between the sender and
its bucket, and the engine runs a frame's handler with no dispatch hop.
A forwarded DATA hop runs four Python functions: handle_data,
send_unicast, World.unicast and MetricsLedger.record. An AODV source,
its buffer flush and every relay send DATA from handle_data alone, so a
packet originated on an active route runs those four after emit_data,
its ledger row, DataPacket's __init__ and originate_data.

Message and ledger kinds are plain strings; only `UnicastOutcome` and
`RreqAction` are still Enums, and on CPython 3.11 a member lookup such as
`UnicastOutcome.SENT` or a `.value` read is a descriptor lookup of
150-200 ns. A Python function call costs about 0.1 µs. The functions
below run once per frame or ledger row.
"""
import dis
import gc
import random
import sys
import types
from collections import Counter
from functools import partial

import pytest

from manetsim import metrics
from manetsim.aodv import AodvNode, Hello, Rerr, RouteEntry, Rrep, Rreq
from manetsim.dsdv import DsdvNode, UpdatePacket
from manetsim.engine import Engine, quantize
from manetsim.packets import DATA, RERR, RREP, DataPacket
from manetsim.scenario import TrafficFlow, builtin
from manetsim.simulation import NODE_CLASSES, PROTOCOLS, Simulation
from manetsim.world import Position, RadioModel, World

from conftest import build_spec

BANNED = {"MessageKind", "EventKind", "UnicastOutcome", "RreqAction", "value"}
HOT = [AodvNode.on_receive, AodvNode.handle_rreq, AodvNode.handle_data, AodvNode.handle_hello,
       DsdvNode.on_receive, DsdvNode.handle_update,
       World.neighbors_of, Simulation.send_unicast, Simulation.emit_data,
       Simulation.data_received, Simulation.dropped, Simulation.broadcast,
       World.unicast, metrics.MetricsLedger.record, metrics.MetricsLedger._mark,
       metrics.MetricsLedger._uid_bits, metrics.MetricsLedger._pack,
       metrics.MetricsLedger.chunks,
       metrics.MetricsLedger.rows, metrics.run_series, metrics.throughput_series, metrics.delay_series,
       metrics.cumulative_series, metrics.write_trace]


def instructions(code):
    """The instructions of code and of every comprehension nested in it."""
    yield from dis.get_instructions(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from instructions(const)


def loads(fn, names):
    """The loads of any of names in fn, nested comprehensions included."""
    return [(i.opname, i.argval) for i in instructions(fn.__code__)
            if i.opname.startswith("LOAD") and i.argval in names]


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__qualname__)
def test_hot_path_loads_no_enum_class_and_no_value(fn):
    assert not loads(fn, BANNED)


# post_all and World's two senders quantize inline, and World checks node
# ids inline and files each frame in its bucket itself
CALLS = {"quantize", "_check_node", "_post_frames"}
FRAME_PATH = [Engine.post_all, World.broadcast, World.unicast, World.neighbors_of]


@pytest.mark.parametrize("fn", FRAME_PATH, ids=lambda fn: fn.__qualname__)
def test_frame_path_calls_no_quantize_check_node_or_post_frames(fn):
    assert not loads(fn, CALLS)


def test_the_engine_drains_a_bucket_without_popleft():
    """run_until runs a bucket with one for loop over the list's iterator."""
    assert not loads(Engine.run_until, {"popleft"})


@pytest.mark.parametrize("fn", [World.broadcast, Engine.post_all], ids=lambda fn: fn.__qualname__)
def test_a_looping_filer_loads_each_tick_constant_as_a_global_at_most_once(fn):
    """They are bound to locals before the loop that quantizes each fire time."""
    names = Counter(name for op, name in loads(fn, {"TICKS_PER_S", "HALF_EVEN", "TICK_LIMIT"})
                    if op == "LOAD_GLOBAL")
    assert max(names.values(), default=0) <= 1


@pytest.mark.parametrize("fn", [World.broadcast, World.unicast], ids=lambda fn: fn.__qualname__)
def test_a_frame_is_filed_without_post_all(fn):
    """A transmission builds no (fire_at, entry) pair and calls no engine
    routine: it appends its entry to the bucket of its fire time."""
    assert not loads(fn, {"post_all", "schedule"})


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_broadcast_frame_goes_straight_to_its_handler(protocol):
    """Every kind a run sends, broadcast or unicast, is wired to the method
    its node class's HANDLERS names, and to nothing else."""
    sim = Simulation(builtin("scenario1"), protocol=protocol, hello_interval=1.0)
    kinds = set()
    broadcast, send_unicast = sim.broadcast, sim.send_unicast

    def broadcasting(sender, msg):
        kinds.add(msg.kind)
        return broadcast(sender, msg)

    def unicasting(sender, next_hop, msg):
        kinds.add(msg.kind)
        return send_unicast(sender, next_hop, msg)

    sim.broadcast, sim.send_unicast = broadcasting, unicasting
    sim.run()
    handlers = NODE_CLASSES[protocol].HANDLERS
    assert kinds == set(handlers) == set(sim.world.on_receive)
    for kind, name in handlers.items():
        assert sim.world.on_receive[kind] == [getattr(node, name) for node in sim.nodes]


def test_on_receive_takes_the_rreps_and_rerrs_and_nothing_else(monkeypatch):
    received = []
    on_receive = AodvNode.on_receive

    def recording(self, sender, msg):
        received.append(msg.kind)
        on_receive(self, sender, msg)

    monkeypatch.setattr(AodvNode, "on_receive", recording)
    sim = Simulation(builtin("scenario1"), hello_interval=1.0).run()
    assert sorted(set(received)) == [RERR, RREP]
    assert len(received) == sim.ledger.control_tx[RREP] + sim.ledger.control_tx[RERR]


def test_a_data_frame_reaches_handle_data_without_on_receive(monkeypatch):
    def on_receive(self, sender, msg):
        raise AssertionError(f"{msg.kind} frame went through on_receive")

    monkeypatch.setattr(AodvNode, "on_receive", on_receive)
    sim = Simulation(build_spec([(0, 0), (100, 0), (200, 0)]))
    sim.nodes[0].routes[2] = RouteEntry(next_hop=1, hop_count=2, dst_seq=1, expires_at=5.0)
    sim.nodes[1].routes[2] = RouteEntry(next_hop=2, hop_count=1, dst_seq=1, expires_at=5.0)
    sim.emit_data(TrafficFlow(0, 2, rate=1.0, packet_size=512, start=0.0, stop=1.0))
    sim.engine.run_until(0.5)
    assert (sim.ledger.data_tx, sim.ledger.received) == (2, 1)


def python_calls(fn, *args) -> list[str]:
    """The names of the Python functions fn(*args) runs, fn first, in call order.

    The cyclic collector is paused meanwhile, as Simulation.run pauses it,
    so no finalizer of a collection the call happens to trigger is counted."""
    calls = []
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(lambda frame, event, _: event == "call" and calls.append(frame.f_code.co_name))
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_a_forwarded_data_hop_runs_four_python_functions():
    """The frame's handler, the send, the link check and filing, and the
    ledger row; nothing else runs Python code for it."""
    sim = Simulation(build_spec([(0, 0), (100, 0), (200, 0)]), hello_interval=0)
    for node, next_hop in ((0, 1), (1, 2)):
        sim.nodes[node].routes[2] = RouteEntry(next_hop=next_hop, hop_count=2 - node,
                                               dst_seq=1, expires_at=5.0)
    sim.emit_data(TrafficFlow(0, 2, rate=1.0, packet_size=512, start=0.0, stop=1.0))
    [(fn, args)] = sim.engine.pending()     # the frame on its way to node 1
    sim.engine.now = 0.001
    assert python_calls(fn, *args) == ["handle_data", "send_unicast", "unicast", "record"]
    assert sim.ledger.data_tx == 2


ORIGINATED = ["emit_data", "record", "__init__", "originate_data", "handle_data",
              "send_unicast", "unicast", "record"]


def originating_source():
    """A source on an active route to its neighbour, and its flow, with a
    uid map that covers the next packet's uid."""
    sim = Simulation(build_spec([(0, 0), (100, 0)]), hello_interval=0)
    sim.nodes[0].routes[1] = RouteEntry(next_hop=1, hop_count=1, dst_seq=1, expires_at=5.0)
    flow = TrafficFlow(0, 1, rate=1.0, packet_size=512, start=0.0, stop=1.0)
    while len(sim.ledger._uid_map) <= sim._uid_counter + 1:    # else _mark runs too
        sim.emit_data(flow)
    return sim, flow


def test_a_packet_originated_on_an_active_route_runs_eight_python_functions():
    """emit_data numbers and records the packet, originate_data hands it to
    handle_data, and the hop runs as a forwarded one does."""
    sim, flow = originating_source()
    assert python_calls(sim.emit_data, flow) == ORIGINATED
    assert sim.ledger.data_tx == sim.ledger.sent


def test_python_calls_counts_no_finalizer_of_a_collection():
    """With garbage pending and a collection due at almost every allocation,
    a collection inside the profiled call would add the finalizer's frame
    and the frame of the cycle it leaves; python_calls pauses the collector."""
    class Cycle:
        live = True

        def __init__(self):
            self.me = self

        def __del__(self):
            if Cycle.live:
                Cycle()     # leaves the next garbage cycle

    sim, flow = originating_source()
    threshold = gc.get_threshold()
    Cycle()
    gc.set_threshold(1)
    try:
        calls = python_calls(sim.emit_data, flow)
    finally:
        Cycle.live = False
        gc.set_threshold(*threshold)
        gc.collect()
    assert calls == ORIGINATED


def test_a_covered_uid_is_sent_and_received_without_a_helper_call():
    led = metrics.MetricsLedger()
    led.record((1.0, metrics.SENT, 0, DATA, 512, 4, 0, 5))     # the map now covers uids 0..4
    assert python_calls(led.record, (1.0, metrics.SENT, 0, DATA, 512, 3, 0, 5)) == ["record"]
    assert python_calls(led.record, (2.0, metrics.RECEIVED, 5, DATA, 512, 3, 0, 5)) == ["record"]
    assert (led.sent, led.received) == (2, 1)
    assert python_calls(led.record, (2.0, metrics.CONTROL_TX, 1, RREP, 24, 2, 0, 5)) == ["record"]
    assert led.control_tx == {RREP: 1}
    led.record((3.0, metrics.DROPPED, 2, RREP, 24, 2, 0, 5))     # the control bit is set


# helpers the data path writes out itself: it runs once per hop or per packet
NOT_ON_DATA_PATH = [(World.unicast, {"in_range", "_xy"}),
                    (AodvNode.handle_data, {"route_is_active"}),
                    (Simulation.send_unicast, {"dropped"}),
                    (Simulation.broadcast, {"dropped"}),
                    (Simulation.emit_data, {"next_uid", "dropped"}),
                    (Simulation.data_received, {"dropped"}),
                    (AodvNode.originate_data, {"route_is_active"})]


@pytest.mark.parametrize("fn, names", NOT_ON_DATA_PATH,
                         ids=[fn.__qualname__ for fn, _ in NOT_ON_DATA_PATH])
def test_a_data_hop_calls_no_helper(fn, names):
    assert not loads(fn, names)


@pytest.mark.parametrize("fn", [AodvNode.originate_data, AodvNode._drain_one],
                         ids=lambda fn: fn.__qualname__)
def test_aodv_sends_data_from_handle_data_alone(fn):
    """The source and its buffer flush hand each packet to handle_data, the
    one place that sends, refreshes, drops and breaks links for DATA."""
    assert not loads(fn, {"send_unicast", "dropped", "on_link_break", "ACTIVE_ROUTE_TIMEOUT"})


@pytest.mark.parametrize("fn", [DsdvNode.handle_update, DsdvNode.mark_broken,
                                DsdvNode.periodic_dump], ids=lambda fn: fn.__qualname__)
def test_a_dsdv_route_is_judged_by_its_rank_alone(fn):
    """handle_update runs once per received update and compares each offer
    with the rank held; mark_broken and periodic_dump loop over the table.
    None of them reads a sequence number or hop count of a stored entry."""
    assert not loads(fn, {"dst_seq", "hop_count"})


@pytest.mark.parametrize("fn", [DsdvNode.handle_update, DsdvNode.periodic_dump],
                         ids=lambda fn: fn.__qualname__)
def test_a_dsdv_rank_is_read_by_list_index(fn):
    """handle_update refuses an offer by one index into ranks and one
    compare, with no table lookup; the dump lists ranks in id order, with
    no sort of the table."""
    assert not loads(fn, {"get", "items", "sorted"})


def test_an_update_that_beats_no_rank_runs_handle_update_alone():
    """Every offer, the receiver's own among them, is at most the rank held:
    no route changes, nothing is flooded and no other Python code runs."""
    sim = Simulation(build_spec([(0, 0), (200, 0), (400, 0)]), "dsdv")
    sim.engine.run_until(1.5)
    node, sent = sim.nodes[1], sim.ledger.control_tx.copy()
    assert all(node.ranks)
    # offers equal to the ranks held, and one below them
    pkt = UpdatePacket(0, [(dst, r - dst % 2) for dst, r in enumerate(node.ranks)],
                       uid=sim.next_uid())
    assert python_calls(node.handle_update, 0, pkt) == ["handle_update"]
    assert sim.ledger.control_tx == sent and not sim.changed_dsts


@pytest.mark.parametrize("cls", [DataPacket, UpdatePacket, Rreq, Rrep, Rerr, Hello, RouteEntry],
                         ids=lambda cls: cls.__name__)
def test_a_per_frame_record_is_slotted(cls):
    """Built per frame or per route entry: slots make its fields cheaper to
    read and build, and it carries no __dict__."""
    assert "__slots__" in vars(cls) and "__dict__" not in dir(cls)


def test_splitting_a_nodes_verlet_lists_looks_up_no_position():
    """World._split splits a band by the positions the snapshot already holds."""
    assert not loads(World._split, {"_xy", "_locate"})


@pytest.mark.parametrize("fn", [World._xy, World.in_range, World.unicast],
                         ids=lambda fn: fn.__qualname__)
def test_a_link_check_copies_no_position_list(fn):
    """A position is read from the node's fixed point or leg table; nothing
    copies the fixed positions per query time."""
    assert not loads(fn, {"copy"})


@pytest.mark.parametrize("fn", [World.broadcast, World.unicast, Engine.run_until],
                         ids=lambda fn: fn.__qualname__)
def test_frame_path_builds_no_partial(fn):
    """A frame is queued as a (handler, args) tuple and run as fn(*args)."""
    assert not loads(fn, {"partial"})


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_broadcast_files_one_entry_per_receiver_sharing_one_frame(seed):
    # a line of nodes 100 m apart: node 3 hears 1, 2, 4 and 5
    eng = Engine()
    eng.now = 2.5
    w = World(eng, [Position(100.0 * i, 0.0) for i in range(8)], RadioModel(), seed=seed)
    handlers = [lambda *frame: None for _ in range(8)]   # eight distinct handlers
    w.on_receive = {DATA: handlers}
    msg = DataPacket(uid=1, src=3, dst=5, size=512)
    receivers = w.broadcast(3, msg)
    assert receivers == [1, 2, 4, 5]
    # the filed (fire_at, entry) pairs in receiver order: the handlers are distinct
    posted = sorted(((at, entry) for at, bucket in eng._buckets.items() for entry in bucket),
                    key=lambda pair: handlers.index(pair[1][0]))
    assert sorted(eng._queue) == sorted(eng._buckets)
    assert [handler for _, (handler, _) in posted] == [handlers[r] for r in receivers]
    [frame] = {id(args): args for _, (_, args) in posted}.values()
    assert frame == (3, msg) and frame[1] is msg
    # the fire times of the partial form this replaced, same seed and draws
    draw = random.Random(seed).random
    latency, jitter = w.radio.hop_latency, w.jitter
    old = [(2.5 + (latency + jitter * draw()), partial(handlers[r], 3, msg))
           for r in receivers]
    assert [float.hex(at) for at, _ in posted] == [float.hex(quantize(at)) for at, _ in old]
