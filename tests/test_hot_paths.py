"""Per-frame code compares against enum members bound once at module level,
and queues a frame without a Python call between the sender and its bucket.

On CPython 3.11 `EventKind.SENT` and `kind.value` are descriptor lookups
of 150-200 ns, and a Python function call costs about 0.1 µs; the
functions below run once per frame or ledger row.
"""
import dis
import types

import pytest

from manetsim import metrics
from manetsim.aodv import AodvNode
from manetsim.dsdv import DsdvNode
from manetsim.engine import Engine
from manetsim.simulation import Simulation
from manetsim.world import World

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
# checks next_hop inline and builds a broadcast's frames in one comprehension
CALLS = {"quantize", "_check_node", "_post_frames"}
FRAME_PATH = [Engine.post_all, World.broadcast, World.unicast]


@pytest.mark.parametrize("fn", FRAME_PATH, ids=lambda fn: fn.__qualname__)
def test_frame_path_calls_no_quantize_check_node_or_post_frames(fn):
    assert not loads(fn, CALLS)


def test_splitting_a_nodes_verlet_lists_looks_up_no_position():
    """World._split sorts a block by the positions the grid already holds."""
    assert not loads(World._split, {"_xy", "_locate"})


@pytest.mark.parametrize("fn", [World._xy, World._linked, World.unicast],
                         ids=lambda fn: fn.__qualname__)
def test_a_link_check_copies_no_position_list(fn):
    """A position is read from the node's fixed point or leg table; nothing
    copies the fixed positions per query time."""
    assert not loads(fn, {"copy"})
