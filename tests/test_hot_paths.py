"""Per-frame code loads no Enum class and no `.value`, queues a frame, as
a (handler, args) entry, without a Python call between the sender and
its bucket, and the engine runs a frame's handler with no dispatch hop.

Message and ledger kinds are plain strings; only `UnicastOutcome` and
`RreqAction` are still Enums, and on CPython 3.11 a member lookup such as
`UnicastOutcome.SENT` or a `.value` read is a descriptor lookup of
150-200 ns. A Python function call costs about 0.1 µs. The functions
below run once per frame or ledger row.
"""
import dis
import random
import types
from functools import partial

import pytest

from manetsim import metrics
from manetsim.aodv import (AodvNode, Hello, PendingDiscovery, ReversePathEntry, Rerr, RouteEntry,
                           Rrep, Rreq)
from manetsim.dsdv import DsdvEntry, DsdvNode, UpdatePacket
from manetsim.engine import Engine
from manetsim.packets import DATA, RERR, RREP, DataPacket
from manetsim.scenario import TrafficFlow, builtin
from manetsim.simulation import NODE_CLASSES, PROTOCOLS, Simulation
from manetsim.world import Position, RadioModel, World

from conftest import build_spec

BANNED = {"MessageKind", "EventKind", "UnicastOutcome", "RreqAction", "value"}
HOT = [AodvNode.on_receive, AodvNode.handle_rreq, AodvNode.handle_data, AodvNode.handle_hello,
       DsdvNode.on_receive, DsdvNode.handle_update,
       World.neighbors_of, Simulation.send_unicast, Simulation._deliver, Simulation.emit_data,
       Simulation.data_received, Simulation.dropped, Simulation.broadcast, Simulation._log,
       World.unicast, metrics.MetricsLedger.record, metrics.MetricsLedger._mark,
       metrics.MetricsLedger._uid_bits, metrics.MetricsLedger._pack,
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


# post_all, the one routine that files an event, quantizes inline; World
# checks node ids inline and builds a broadcast's frames in one comprehension
CALLS = {"quantize", "_check_node", "_post_frames"}
FRAME_PATH = [Engine.post_all, World.broadcast, World.unicast, World.neighbors_of]


@pytest.mark.parametrize("fn", FRAME_PATH, ids=lambda fn: fn.__qualname__)
def test_frame_path_calls_no_quantize_check_node_or_post_frames(fn):
    assert not loads(fn, CALLS)


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
    sim.nodes[0].routes[2] = RouteEntry(dst=2, next_hop=1, hop_count=2, dst_seq=1,
                                        expires_at=5.0)
    sim.nodes[1].routes[2] = RouteEntry(dst=2, next_hop=2, hop_count=1, dst_seq=1,
                                        expires_at=5.0)
    sim.emit_data(TrafficFlow(0, 2, rate=1.0, packet_size=512, start=0.0, stop=1.0))
    sim.engine.run_until(0.5)
    assert (sim.ledger.data_tx, sim.ledger.received) == (2, 1)


# helpers the data path writes out itself: it runs once per hop or per packet
NOT_ON_DATA_PATH = [(World.unicast, {"_linked", "_xy"}),
                    (AodvNode.handle_data, {"route_is_active", "_transmit"}),
                    (Simulation.send_unicast, {"_log"}),
                    (Simulation.emit_data, {"next_uid", "_log"}),
                    (Simulation.data_received, {"_log"}),
                    (AodvNode.originate_data, {"route_is_active"})]


@pytest.mark.parametrize("fn, names", NOT_ON_DATA_PATH,
                         ids=[fn.__qualname__ for fn, _ in NOT_ON_DATA_PATH])
def test_a_data_hop_calls_no_helper(fn, names):
    assert not loads(fn, names)


@pytest.mark.parametrize("cls", [DataPacket, UpdatePacket, DsdvEntry, Rreq, Rrep, Rerr, Hello,
                                 RouteEntry, ReversePathEntry, PendingDiscovery],
                         ids=lambda cls: cls.__name__)
def test_a_per_frame_record_is_slotted(cls):
    """Built per frame or per route entry: slots make its fields cheaper to
    read and build, and it carries no __dict__."""
    assert "__slots__" in vars(cls) and "__dict__" not in dir(cls)


def test_splitting_a_nodes_verlet_lists_looks_up_no_position():
    """World._split sorts a block by the positions the grid already holds."""
    assert not loads(World._split, {"_xy", "_locate"})


@pytest.mark.parametrize("fn", [World._xy, World._linked, World.unicast],
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
    posted = []
    eng.post_all = posted.extend
    msg = DataPacket(uid=1, src=3, dst=5, size=512)
    receivers = w.broadcast(3, msg)
    assert receivers == [1, 2, 4, 5]
    assert [handler for _, (handler, _) in posted] == [handlers[r] for r in receivers]
    [frame] = {id(args): args for _, (_, args) in posted}.values()
    assert frame == (3, msg) and frame[1] is msg
    # the fire times of the partial form this replaced, same seed and draws
    draw = random.Random(seed).random
    latency, jitter = w.radio.hop_latency, w.jitter
    old = [(2.5 + (latency + jitter * draw()), partial(handlers[r], 3, msg))
           for r in receivers]
    assert [float.hex(at) for at, _ in posted] == [float.hex(at) for at, _ in old]
