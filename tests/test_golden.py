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
from highway import highway
from manetsim.cli import write_outputs
from manetsim.scenario import builtin
from manetsim.simulation import Simulation
from manetsim.world import grid_cell

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


def test_waypoint_fields_span_four_grid_cells_each_way():
    """The 50- and 100-node runs cross neighbour-grid cell edges (range 250 m,
    top speed 20 m/s in random_waypoint_scenario)."""
    for _, _, side, _ in WAYPOINT_CASES:
        assert side >= 4 * grid_cell(250.0, 20.0, side)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {case: digests_of(CASES[case]().run(), Path(tmp) / case)
                  for case in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {DIGESTS}", file=sys.stderr)
