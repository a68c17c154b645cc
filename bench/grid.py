"""Host time, events and peak memory of one run per case, over a grid of cases.

Run from the repository root:

    python3 bench/grid.py --parent HEAD
    python3 bench/grid.py --parent HEAD --case dsdv-rwp-200

The cases are both builtin scenarios, random waypoint at N = 25, 50, 100
and 200 (`perfbench.workloads.rwp_workload`, scenario 0 at workload seed
1, 10 simulated seconds) and tests/highway.py's road at v = 0 and 40 m/s
(layout seed 1, 10 simulated seconds), each under both protocols, at sim
seed 1. The scenario text is generated once, here, from the working
tree. Each case then runs as `manetsim run` does, once per tree, in a
child process of its own, so that its peak RSS is its own: the working
tree always, and with --parent also a `git archive` of REF, unpacked in
a temporary directory outside the checkout; the side that goes first
alternates from case to case. Per case and tree the child reports host
`run_s` (`Simulation.run`), `total_s` (parse, set-up, run and outputs),
engine events, events per second of `run_s`, and peak RSS in MB
(`resource.getrusage`). Each case prints one line as it ends; the last
line is one JSON object: per tree, per case, those five figures.
`--write PATH` also appends that object, with the Python version, to the
"grid" list of the JSON file at PATH, as bench/pairs.py does.

The whole grid takes a few minutes, most of it DSDV at N = 200; it is
run by hand, and no check runs it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from diverge import BENCH, ROOT, unpack
from pairs import write

SIZES = (25, 50, 100, 200)
SPEEDS = (0.0, 40.0)
DURATION = 10.0     # simulated seconds of a highway case
PROTOCOLS = ("aodv", "dsdv")
# the child: put the tree's src/ and this directory first on the path, then time one run
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import grid; "
         "grid.time_run(sys.argv[1], *sys.argv[3:])")


def cases() -> dict[str, tuple[str, str]]:
    """Case name -> (builtin name or scenario text, protocol)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]
    from highway import highway
    from manetsim.scenario import serialize
    from perfbench.workloads import generate, rwp_workload
    out = {}
    for protocol in PROTOCOLS:
        for name in ("scenario1", "scenario2"):
            out[f"{protocol}-{name}"] = (name, protocol)
        for n in SIZES:
            out[f"{protocol}-rwp-{n}"] = (generate(rwp_workload(protocol, n), 1), protocol)
        for v in SPEEDS:
            out[f"{protocol}-highway-v{v:g}"] = (serialize(highway(v, 1, DURATION)), protocol)
    return out


def time_run(src: str, scenario: str, protocol: str, out: str) -> None:
    """Run in the child: one run of the manetsim under src, timed, its
    outputs written to out; prints the case's figures as JSON."""
    import resource
    import manetsim
    if not Path(manetsim.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"error: imported {manetsim.__file__}, not the manetsim under {src}")
    from manetsim import scenario as scenario_mod
    from manetsim.cli import write_outputs
    from manetsim.simulation import Simulation

    start = time.perf_counter()
    sim = Simulation(scenario_mod.load(scenario), protocol=protocol, seed=1)
    run_until, events = sim.engine.run_until, []
    sim.engine.run_until = lambda t_end: events.append(run_until(t_end)) or events[-1]
    run_start = time.perf_counter()
    sim.run()
    run_s = time.perf_counter() - run_start
    write_outputs(sim, Path(out), 0.5)
    total_s = time.perf_counter() - start
    print(json.dumps({"run_s": run_s, "total_s": total_s, "events": sum(events),
                      "events_per_s": sum(events) / run_s,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def run_case(tree: Path, scenario: str, protocol: str, out_dir: str) -> dict:
    """The figures of one run of the tree at `tree`, in a child process.
    scenario is a builtin name or a .scn path."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), str(BENCH), scenario,
                          protocol, out_dir], cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default=None, help="git ref also timed")
    p.add_argument("--case", action="append", help="run only this case (repeatable)")
    p.add_argument("--write", metavar="PATH", help="also add the result to this JSON file")
    args = p.parse_args(argv)
    grid = cases()
    unknown = set(args.case or ()) - set(grid)
    if unknown:
        p.error(f"unknown case(s): {', '.join(sorted(unknown))}; known: {', '.join(grid)}")
    result: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="grid-") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            trees = {"parent": unpack(args.parent, f"{tmp}/parent"), **trees}
        for i, (name, (text, protocol)) in enumerate(grid.items()):
            if args.case and name not in args.case:
                continue
            scenario = text
            if "\n" in text:
                scenario = str(Path(tmp) / f"{name}.scn")
                Path(scenario).write_text(text)
            sides = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in sides:
                figures = run_case(trees[side], scenario, protocol, f"{tmp}/{side}-{name}")
                result.setdefault(side, {})[name] = figures
                print(f"{name:<22} {side:<7} run_s {figures['run_s']:8.3f}  "
                      f"events {figures['events']:>9}  rss {figures['peak_rss_mb']:6.1f} MB",
                      flush=True)
    if args.write:
        write(args.write, "grid", {"parent": args.parent, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
