"""Per-frame code loads no Enum class and no `.value`, and queues a frame,
as a (handler, args) entry, without a Python call between the sender and
its bucket.

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
from manetsim.packets import DataPacket
from manetsim.simulation import Simulation
from manetsim.world import Position, RadioModel, World

from conftest import build_spec

BANNED = {"MessageKind", "EventKind", "UnicastOutcome", "RreqAction", "value"}
HOT = [AodvNode.on_receive, AodvNode.handle_rreq, DsdvNode.on_receive, DsdvNode.handle_update,
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


@pytest.mark.parametrize("protocol", ["aodv", "dsdv"])
def test_a_broadcast_frame_goes_straight_to_its_handler(protocol):
    """DSDV broadcasts only updates, so no on_receive hop sits before
    handle_update; AODV's on_receive supervises hellos on every frame."""
    sim = Simulation(build_spec([(0, 0), (100, 0), (200, 0)]), protocol=protocol)
    handler = {"aodv": "on_receive", "dsdv": "handle_update"}[protocol]
    assert all(sim.world.on_receive[r] == getattr(node, handler)
               for r, node in enumerate(sim.nodes))


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
    w.on_receive = [lambda *frame: None for _ in range(8)]   # eight distinct handlers
    posted = []
    eng.post_all = posted.extend
    msg = DataPacket(uid=1, src=3, dst=5, size=512)
    receivers = w.broadcast(3, msg)
    assert receivers == [1, 2, 4, 5]
    assert [handler for _, (handler, _) in posted] == [w.on_receive[r] for r in receivers]
    [frame] = {id(args): args for _, (_, args) in posted}.values()
    assert frame == (3, msg) and frame[1] is msg
    # the fire times of the partial form this replaced, same seed and draws
    draw = random.Random(seed).random
    latency, jitter = w.radio.hop_latency, w.jitter
    old = [(2.5 + (latency + jitter * draw()), partial(w.on_receive[r], 3, msg))
           for r in receivers]
    assert [float.hex(at) for at, _ in posted] == [float.hex(at) for at, _ in old]
