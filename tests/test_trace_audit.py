"""Trace audit: every DATA hop of the golden corpus, and of random-waypoint
runs of both protocols (the 200-node ones in the `slow` set), checked
against timing, geometry and loop freedom, from the trace and the
scenario alone.

The trace does not name a frame's receiver, so the audit takes it from the
next row of the same DATA uid: a node forwards, consumes or drops a frame in
the event that delivers it. Per uid:
- consecutive hops are hop latency to hop latency * (1 + JITTER_FRACTION)
  apart, within one microsecond, the trace's resolution: World files a
  frame at now + hop latency + a jitter draw, quantized to the microsecond
- the sender and the next node are in range at the send time, by the
  brute-force oracle_position of tests/test_world.py
- no node transmits the uid twice: loop freedom in the data plane
- a RECEIVED row is at the packet's destination

Control frames cannot be audited hop by hop: an RREP or RERR row carries
the discovery's src and dst, not the next hop, and a broadcast row names
no receiver.
"""
import io
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_waypoint_scenario
from manetsim.metrics import DATA_TX, RECEIVED, write_trace
from manetsim.packets import DATA
from manetsim.simulation import PROTOCOLS, Simulation
from manetsim.world import JITTER_FRACTION
from test_golden import CASES
from test_world import oracle_position


def audit(lines, spec) -> tuple[list[str], int]:
    """(violations, hops checked) of the trace lines of one run of spec."""
    coords = [(p.x, p.y) for p in spec.nodes]
    legs = [[] for _ in coords]
    for leg in spec.movements:
        legs[leg.node].append((leg.start_time, (leg.dest.x, leg.dest.y), leg.speed))
    latency, radio_range = spec.radio.hop_latency, spec.radio.range
    low, high = latency - 1e-6, latency * (1 + JITTER_FRACTION) + 1e-6
    rows = defaultdict(list)    # uid -> its (kind, t, node, dst) rows in trace order
    for line in lines:
        kind, t, node, subkind, _, uid, _, dst = line.split()
        if subkind == DATA:
            rows[int(uid)].append((kind, float(t), int(node), int(dst)))
    violations, hops = [], 0
    for uid, uid_rows in rows.items():
        senders = [node for kind, _, node, _ in uid_rows if kind == DATA_TX]
        if len(senders) != len(set(senders)):
            violations.append(f"uid {uid}: a node transmits it twice: {senders}")
        for (kind, t, node, dst), after in zip(uid_rows, uid_rows[1:] + [None]):
            if kind == RECEIVED and node != dst:
                violations.append(f"uid {uid}: received at {node}, not at {dst}")
            if kind != DATA_TX or after is None:
                continue
            hops += 1
            _, arrival, receiver, _ = after
            if not low <= arrival - t <= high:
                violations.append(f"uid {uid}: hop {node} -> {receiver} at {t} "
                                  f"takes {arrival - t}")
            a = oracle_position(coords[node], legs[node], t)
            b = oracle_position(coords[receiver], legs[receiver], t)
            if not math.hypot(a[0] - b[0], a[1] - b[1]) <= radio_range:
                violations.append(f"uid {uid}: hop {node} -> {receiver} at {t} out of range")
    return violations, hops


def trace_of(sim) -> list[str]:
    out = io.BytesIO()
    write_trace(sim.ledger, out)
    return out.getvalue().decode().splitlines()


def test_every_golden_trace_passes_the_audit():
    hops, found = 0, {}
    for case in sorted(CASES):
        sim = CASES[case]().run()
        violations, checked = audit(trace_of(sim), sim.spec)
        hops += checked
        if violations:
            found[case] = violations[:3]
    assert found == {}
    assert hops > 4000      # the corpus delivers thousands of hops


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 40), st.sampled_from(PROTOCOLS),
       st.integers(0, 999))
def test_random_waypoint_traces_pass_the_audit(scenario_seed, n, protocol, seed):
    spec = random_waypoint_scenario(random.Random(scenario_seed), n,
                                    math.sqrt(n * 25_000.0), 3.0, flows=5)
    sim = Simulation(spec, protocol, seed=seed).run()
    assert audit(trace_of(sim), spec)[0] == []


@pytest.mark.slow
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_200_node_random_waypoint_traces_pass_the_audit(protocol):
    spec = random_waypoint_scenario(random.Random(200), 200, 1700.0, 10.0, flows=5)
    sim = Simulation(spec, protocol, seed=1).run()
    violations, hops = audit(trace_of(sim), spec)
    assert violations == []
    assert hops > 1000


# scenario1 under AODV sends uid 1 from node 0 over 2 and 4 to 5:
#   f 1.006145 0, f 1.007183 2, f 1.008183 4, r 1.009205 5
# each forgery rewrites one field of one of those rows, and breaks one check
FORGERIES = {
    "slow-hop": (1, 1, "1.009000", "takes"),                  # 0 -> 2 in 2.9 ms
    "out-of-range": (1, 2, "3", "out of range"),              # node 3 is 600 m off
    "loop": (2, 2, "0", "twice"),                             # 0 forwards it again
    "off-destination": (3, 2, "4", "received at 4, not at 5"),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_the_audit_finds_a_forged_row(forgery):
    row, field, value, complaint = FORGERIES[forgery]
    sim = CASES["scenario1-aodv-seed1"]().run()
    lines = trace_of(sim)
    assert audit(lines, sim.spec)[0] == []
    uid1 = [k for k, line in enumerate(lines)
            if line.split()[3:6] == ["DATA", "512", "1"] and not line.startswith("s ")]
    assert [lines[k].split()[:3] for k in uid1] == [
        ["f", "1.006145", "0"], ["f", "1.007183", "2"], ["f", "1.008183", "4"],
        ["r", "1.009205", "5"]]
    fields = lines[uid1[row]].split()
    fields[field] = value
    lines[uid1[row]] = " ".join(fields)
    violations = audit(lines, sim.spec)[0]
    assert any(complaint in v for v in violations), violations
