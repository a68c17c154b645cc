"""On-demand scaling sweep; not a workload, and no check runs it.

    python3 perfbench/scaling.py

Reproduces the ROADMAP baseline table: AODV at N = 25, 50, 100 and 200,
DSDV at N = 25, 50 and 100. Each case is one random-waypoint scenario at
Broch's density (9,000 m2 per node, 5:1 field), 5 CBR flows at 10
pkt/s, 10 simulated seconds, workload seed 1 and simulator seed 1, run
once, untraced. It prints engine events, host run_s and microseconds
per event. DSDV at N = 100 alone takes about a minute.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import ROOT, use_checkout_source  # noqa: E402

use_checkout_source()
from perfbench import bench  # noqa: E402
from perfbench.workloads import generate, rwp_workload  # noqa: E402

GRID = {"aodv": (25, 50, 100, 200), "dsdv": (25, 50, 100)}
SEED = 1
SIM_SEED = 1


def main() -> int:
    rows = []
    print(f"{'protocol':<9} {'nodes':>5} {'events':>9} {'run_s':>8} {'us/event':>9}")
    with bench.work_area(ROOT, f"scaling-{os.getpid()}") as work:
        for protocol, sizes in GRID.items():
            for n in sizes:
                w = rwp_workload(protocol, n)
                it = bench.run_iteration(w, generate(w, SEED), SIM_SEED, work / w.name)
                run_s = it.run.host_s
                row = {"protocol": protocol, "nodes": n, "events": it.events,
                       "run_s": run_s, "us_per_event": run_s / it.events * 1e6}
                rows.append(row)
                print(f"{protocol:<9} {n:>5} {it.events:>9} {run_s:>8.2f} "
                      f"{row['us_per_event']:>9.1f}", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
