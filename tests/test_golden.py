"""Golden corpus: SHA-256 of the trace, report and plots of fixed runs.

Each case runs one scenario under one protocol and seed, writes its
outputs as `manetsim run` does, and compares the digests of
`trace.txt`, `report.json` and the three plot files with the pinned
ones in `golden/digests.json`. A change that alters any simulated
behaviour, or the bytes of any of these files, fails here.

An intentional behaviour change regenerates the corpus, in a change of
its own, with:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import random
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import random_scenario, random_waypoint_scenario
from highway import Probe, highway
from manetsim.cli import write_outputs
from manetsim.scenario import ScenarioSpec, TrafficFlow, builtin, parse
from manetsim.simulation import Simulation
from manetsim.world import GRID_WINDOW, Position, RadioModel

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
DIGESTED = ("trace.txt", "report.json", "plots/received_lost.xg",
            "plots/throughput.xg", "plots/delay.xg")
WINDOW = 0.5            # the `manetsim run` default throughput window
RANDOM_SEED = 1         # simulation seed of the random layouts
# (protocol, nodes, field side in m, simulated seconds): random-waypoint
# runs on fields many radio ranges wide, kept short so each takes < 0.5 s
WAYPOINT_CASES = (("aodv", 50, 1200.0, 3.0), ("dsdv", 50, 1200.0, 1.0),
                  ("aodv", 100, 1500.0, 3.0))
# tests/highway.py's road at these speeds in m/s, layout seed 1, cut to
# HIGHWAY_END s so each case takes < 0.3 s; at 40 m/s DSDV breaks links
HIGHWAY_SPEEDS, HIGHWAY_END = (0.0, 20.0, 40.0), 5.0
# two AODV paths the cases above never reach, each run at sim seed 1. A
# 1000 pkt/s flow to a node 850 m away fills the source's buffer while its
# discovery fails. With 0.6 s hops on a four-node line, node 1's reverse path
# to node 0 expires before a reply from node 3 comes back through it; a
# scenario file cannot set the hop latency, so this spec is built in code.
BUFFER_FULL = parse("area 800 800\nnode 0 100 100\nnode 1 700 700\n"
                    "flow 0 1 1000 512 0.5 1.5\nend 2\n", "aodv-buffer-full")
REVERSE_PATH_GONE = ScenarioSpec(
    area=(1000.0, 100.0), radio=RadioModel(250.0, 0.6),
    nodes=[Position(x, 50.0) for x in (10.0, 210.0, 410.0, 610.0)], movements=[],
    flows=[TrafficFlow(0, 3, 1.0, 512, 0.5, 3.0)], end_time=6.0, name="aodv-reverse-path-gone")


def cases() -> dict:
    """case id -> zero-argument function building the Simulation."""
    out = {}
    for name in ("scenario1", "scenario2"):
        for protocol in ("aodv", "dsdv"):
            for seed in range(1, 6):
                out[f"{name}-{protocol}-seed{seed}"] = (
                    lambda name=name, protocol=protocol, seed=seed:
                    Simulation(builtin(name), protocol=protocol, seed=seed))
    for k in range(10):
        for protocol in ("aodv", "dsdv"):
            out[f"random{k}-{protocol}-seed{RANDOM_SEED}"] = (
                lambda k=k, protocol=protocol: Simulation(
                    random_scenario(random.Random(k), max_nodes=20, end=4.0),
                    protocol=protocol, seed=RANDOM_SEED))
    for protocol, nodes, side, end in WAYPOINT_CASES:
        for k in range(2):
            out[f"rwp{nodes}-{k}-{protocol}-seed{RANDOM_SEED}"] = (
                lambda protocol=protocol, nodes=nodes, side=side, end=end, k=k:
                Simulation(random_waypoint_scenario(random.Random(k), nodes, side, end),
                           protocol=protocol, seed=RANDOM_SEED))
    # ten flows give 477 delays, whose mean in report.json reads
    # 0.003297368972746336 added left to right and 0.0032973689727463355 by
    # the compensated sum() of Python 3.12 and later
    out[f"rwp25-flows10-1-aodv-seed{RANDOM_SEED}"] = lambda: Simulation(
        random_waypoint_scenario(random.Random(1), 25, 800.0, 5.0, flows=10),
        protocol="aodv", seed=RANDOM_SEED)
    for v in HIGHWAY_SPEEDS:
        for protocol in ("aodv", "dsdv"):
            out[f"highway-v{v:g}-{protocol}-seed1"] = (
                lambda v=v, protocol=protocol:
                Simulation(highway(v, 1, duration=HIGHWAY_END), protocol=protocol, seed=1))
    for spec in (BUFFER_FULL, REVERSE_PATH_GONE):
        out[spec.name] = lambda spec=spec: Simulation(spec, protocol="aodv", seed=1)
    return out


def digests_of(result: Simulation, out_dir: Path) -> dict[str, str]:
    write_outputs(result, out_dir, WINDOW)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DIGESTED}


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    result = CASES[case]().run()
    assert digests_of(result, tmp_path) == pinned[case]
    # the library's report is the one written: report() and write_outputs agree
    library = json.dumps(asdict(result.report(WINDOW)), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(library.encode()).hexdigest() == pinned[case]["report.json"]


def test_corpus_covers_every_case_once():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(CASES)
    pairs = [tuple(d[name] for name in DIGESTED) for d in pinned.values()]
    assert len(set(pairs)) == len(pairs)


def test_the_buffer_full_case_drops_at_the_full_buffer():
    assert Probe(BUFFER_FULL, protocol="aodv", seed=1).run().drops["aodv buffer full"] == 872


def test_the_reverse_path_gone_case_drops_two_replies(tmp_path):
    """AodvNode.handle_rrep is the one place that drops an RREP, and only
    when the reverse path it needs is gone."""
    write_outputs(CASES["aodv-reverse-path-gone"]().run(), tmp_path, WINDOW)
    rows = [row.split() for row in (tmp_path / "trace.txt").read_text().splitlines()]
    assert [row[:4] for row in rows if row[0] == "d" and row[3] == "RREP"] == [
        ["d", "4.606044", "1", "RREP"], ["d", "4.780195", "1", "RREP"]]


def test_waypoint_fields_are_four_reaches_wide():
    """More than two reaches wide, so a node's band of neighbour candidates,
    its x plus or minus about the reach, leaves nodes of the 50- and 100-node
    runs out (range 250 m, top speed 20 m/s in random_waypoint_scenario)."""
    reach = 250.0 + 2 * 20.0 * GRID_WINDOW
    for _, _, side, _ in WAYPOINT_CASES:
        assert side >= 4 * reach


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {case: digests_of(CASES[case]().run(), Path(tmp) / case)
                  for case in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {DIGESTS}", file=sys.stderr)
