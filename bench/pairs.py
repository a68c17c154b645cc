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

`--write BENCH_<pr>.json` also appends that object, with the Python
version, to the file's "pairs" list; the file is made if it is missing,
and every other key in it is kept. bench/opcodes.py and bench/grid.py
write their results to the same file the same way.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from diverge import ROOT, unpack


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


def write(path: str, key: str, result: dict) -> None:
    """Append result, with the Python version, to the list under key in the
    JSON file at path."""
    file = Path(path)
    data = json.loads(file.read_text()) if file.exists() else {}
    data.setdefault(key, []).append({**result, "python": platform.python_version()})
    file.write_text(json.dumps(data, indent=2) + "\n")


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
    p.add_argument("--write", metavar="PATH", help="also add the result to this JSON file")
    args = p.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        parent = unpack(args.parent, tmp)
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(parent if side == "parent" else ROOT,
                                      args.workload, args.seed))
    result = {"workload": args.workload, "seed": args.seed, "parent": args.parent,
              "metrics": {name: summarize([r[name] for r in runs["parent"]],
                                          [r[name] for r in runs["change"]], way)
                          for name, way in better.items()}}
    if args.write:
        write(args.write, "pairs", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
