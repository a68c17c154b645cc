"""Opcodes and Python frames of one `manetsim run` per benchmark workload.

Run from the repository root:

    python3 bench/opcodes.py --parent HEAD

Scenario 0 of each workload in perfbench/workloads.py, at workload seed 1,
runs once at sim seed 1 as `manetsim run`, in a child process of its own
with PYTHONHASHSEED=0, so that no count depends on what ran before it.
A `sys.settrace` hook counts every opcode the run executes
(`f_trace_opcodes`) and every Python frame it enters or resumes. The
working tree is always counted; with --parent, so is a `git archive` of
REF, unpacked in a temporary directory outside the checkout. The last
line printed is one JSON object: per tree, per workload, the opcodes and
frames. Bytecode differs between Python versions, so compare counts taken
under one version only. `--write PATH` also appends that object, with the
Python version, to the "opcodes" list of the JSON file at PATH, as
bench/pairs.py does.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from diverge import BENCH, ROOT, unpack
from pairs import write

# the child: put the tree's src/ and this directory first on the path, then count one run
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import opcodes; "
         "opcodes.count_run(sys.argv[3:])")


def count_run(argv: list[str]) -> None:
    """Run in the child: print the opcodes and frames of `manetsim` given argv."""
    from manetsim import cli
    opcodes = frames = 0

    def on_opcode(frame, event, arg):
        nonlocal opcodes
        opcodes += event == "opcode"
        return on_opcode

    def on_call(frame, event, arg):
        nonlocal frames
        frames += 1
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return on_opcode

    with contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(on_call)
        try:
            status = cli.main(argv)
        finally:
            sys.settrace(None)
    if status:
        sys.exit(f"error: manetsim {' '.join(argv)} exited {status}")
    print(json.dumps({"opcodes": opcodes, "frames": frames}))


def count(tree: Path, scenario: str, protocol: str, out_dir: str) -> dict[str, int]:
    """The counts of one run of the tree at `tree`, at sim seed 1, in a child process."""
    argv = ["run", "--scenario", scenario, "--protocol", protocol, "--seed", "1",
            "--out", out_dir]
    out = subprocess.run([sys.executable, "-c", CHILD, str(tree / "src"), str(BENCH), *argv],
                         cwd=tree, env={**os.environ, "PYTHONHASHSEED": "0"}, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default=None, help="git ref also counted")
    p.add_argument("--write", metavar="PATH", help="also add the result to this JSON file")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, generate
    result: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="opcodes-") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            trees = {"parent": unpack(args.parent, f"{tmp}/parent"), **trees}
        for name, w in WORKLOADS.items():
            scenario = Path(tmp) / f"{name}.scn"
            scenario.write_text(generate(w, 1, 0))
            for side, tree in trees.items():
                result.setdefault(side, {})[name] = count(tree, str(scenario), w.protocol,
                                                          f"{tmp}/{side}-{name}")
    if args.write:
        write(args.write, "opcodes", {"parent": args.parent, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
