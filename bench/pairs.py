"""Alternating pairs of benchmark runs: a parent commit against the working tree.

Run from the repository root:

    python3 bench/pairs.py --workload dsdv-rwp-40 --parent HEAD --pairs 10 --seed 1

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in a
`git archive` of the parent, unpacked in a temporary directory outside the
checkout, and once in the working tree; the side that goes first alternates.
The last line printed is one JSON object: per end-to-end metric, each side's
median and quartiles, the pairs the change won, and whether the gain is
shown: at least 9 of every 10 pairs won, and a median gap larger than the
parent's interquartile range. The parent's archive is removed afterwards.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Pair i is (parent[i], change[i]); better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    base, new = quartiles(parent), quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (new["median"] - base["median"])
    return {"parent": base, "change": new, "won": won, "pairs": len(parent),
            "rule_holds": won >= math.ceil(0.9 * len(parent)) and gap > base["q3"] - base["q1"]}


def run(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {root}: run not correct: {out.splitlines()[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", default="HEAD", help="git ref the working tree is timed against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    args = p.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter where this Python has it, which 3.14 makes the default
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(Path(tmp) if side == "parent" else ROOT,
                                      args.workload, args.seed))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "parent": args.parent,
                      "metrics": {name: summarize([r[name] for r in runs["parent"]],
                                                  [r[name] for r in runs["change"]], way)
                                  for name, way in better.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
