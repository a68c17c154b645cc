"""Rewrite the pinned output digests in perfbench/golden.json.

    python3 perfbench/pin.py

Runs every scenario of every workload at workload seeds 0-10, once, at
the golden simulator seed, and records the SHA-256 of its trace.txt and
report.json. Re-pin only for a change that is meant to alter the
traces, and say why in CHANGES.md.
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
from perfbench.workloads import WORKLOADS, suite  # noqa: E402

SEEDS = range(11)


def main() -> int:
    golden = bench.load_golden()
    sim_seed = golden["sim_seed"]
    digests = {}
    with bench.work_area(ROOT, f"pin-{os.getpid()}") as work:
        for name, w in WORKLOADS.items():
            for seed in SEEDS:
                pinned = []
                for k, text in enumerate(suite(w, seed)):
                    it = bench.run_iteration(w, text, sim_seed, work / f"{seed}-{k}")
                    if it.problems:
                        print(f"{name} seed {seed} scenario {k}: " + "; ".join(it.problems))
                        return 1
                    pinned.append(it.digests)
                digests.setdefault(name, {})[str(seed)] = pinned
                print(f"{name} seed {seed}: pinned {len(pinned)} scenarios", flush=True)
    golden["digests"] = digests
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
