"""The first engine event and trace line at which two trees' runs differ.

Run from the repository root:

    python3 bench/diverge.py --parent HEAD --scenario scenario2 --protocol aodv --seed 1

One scenario, protocol and seed runs once in a `git archive` of the parent,
unpacked in a temporary directory outside the checkout, and once in the
working tree, each in a child process. The child logs every
event `Engine.run_until` runs through a `sys.setprofile` hook, one line each:
the clock, the handler's name, the node id, and the message's kind and uid
when the arguments carry one ("-" where they do not). The route observer
(`after_event`), the event hooks and `quantize`, which `run_until` also
calls, are not events and are skipped. Handler names are qualified
(`AodvNode.handle_rreq`) under Python 3.11 or later; Python 3.10 has no
`co_qualname`, so there they are bare function names.

The tool prints the index of the first differing event, with the ten
events before it on each side, and the first differing line of
`trace.txt`, and exits 1; or it prints that nothing differs, and exits 0.
`--renumber-uids` renumbers the uids of each side's events and trace in
order of first use before comparing them, so two runs that number the
same packets differently compare equal. The archives are removed
afterwards, and no file is written in the checkout.
"""
from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTEXT = 10        # events shown before the first differing one
EVENT_UID, TRACE_UID = 4, 5     # the uid's field in an event line and in a trace line
# the child: put the tree's src/ and this directory first on the path, then log one run
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import diverge; "
         "diverge.log_run(sys.argv[1], *sys.argv[3:])")


class Run(NamedTuple):
    events: list[str]
    trace: list[str]


def log_run(src: str, scenario: str, protocol: str, seed: str, out: str) -> None:
    """Run in the child: one run of the manetsim under src, its event log
    written to out/events.txt and its trace to out/trace.txt."""
    import manetsim
    if not Path(manetsim.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"error: imported {manetsim.__file__}, not the manetsim under {src}")
    from manetsim import engine as engine_mod, metrics, scenario as scenario_mod
    from manetsim.simulation import Simulation

    sim = Simulation(scenario_mod.load(scenario), protocol=protocol, seed=int(seed))
    engine = sim.engine
    loop = engine_mod.Engine.run_until.__code__
    skip = {getattr(f, "__code__", None)
            for f in (engine_mod.quantize, engine.after_event, *engine.event_hooks)}
    events = []

    def hook(frame, event, arg):
        caller = frame.f_back
        if event == "call" and caller is not None and caller.f_code is loop \
                and frame.f_code not in skip:
            events.append(describe(engine.now, frame))

    sys.setprofile(hook)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    out_dir = Path(out)
    (out_dir / "events.txt").write_text("".join(line + "\n" for line in events))
    with open(out_dir / "trace.txt", "wb") as fh:
        metrics.write_trace(sim.ledger, fh)


def describe(now: float, frame) -> str:
    """One event: clock, handler, node id, and message kind and uid."""
    code = frame.f_code
    args = [frame.f_locals[name] for name in code.co_varnames[:code.co_argcount]]
    owners = [getattr(a, "__self__", a) for a in args]     # a timer's action: its node
    node = next((o.node_id for o in owners if hasattr(o, "node_id")), "-")
    msg = next((a for a in args if hasattr(a, "kind") and hasattr(a, "uid")), None)
    kind, uid = (msg.kind, msg.uid) if msg is not None else ("-", "-")
    return f"{now:.6f} {getattr(code, 'co_qualname', code.co_name)} {node} {kind} {uid}"


def run_tree(root: Path, scenario: str, protocol: str, seed: int) -> Run:
    """One run of the tree at root, in a child process."""
    with tempfile.TemporaryDirectory(prefix="diverge-run-") as out:
        subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), str(BENCH), scenario,
                        protocol, str(seed), out], cwd=root, check=True)
        return Run((Path(out) / "events.txt").read_text().splitlines(),
                   (Path(out) / "trace.txt").read_text().splitlines())


def unpack(ref: str, into: str) -> Path:
    """A `git archive` of ref, unpacked into the directory into."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it, which 3.14 makes the default
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(into)


def renumber(lines: list[str], field: int) -> list[str]:
    """lines with the uid in field numbered 1, 2, ... in order of first use."""
    order: dict[str, str] = {}
    out = []
    for line in lines:
        fields = line.split(" ")
        if fields[field] != "-":
            fields[field] = order.setdefault(fields[field], str(len(order) + 1))
        out.append(" ".join(fields))
    return out


def first_difference(a: list[str], b: list[str]) -> int | None:
    """The first index at which a and b differ, or None if they are equal."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return None if a == b else i


def compare(parent: Run, change: Run, renumber_uids: bool = False) -> dict:
    """The first differing event and trace line (None where equal), and both runs."""
    if renumber_uids:
        parent, change = (Run(renumber(r.events, EVENT_UID), renumber(r.trace, TRACE_UID))
                          for r in (parent, change))
    return {"event": first_difference(parent.events, change.events),
            "trace_line": first_difference(parent.trace, change.trace),
            "parent": parent, "change": change}


def report(result: dict, out=None) -> None:
    parent, change = result["parent"], result["change"]
    i, line = result["event"], result["trace_line"]
    if i is None and line is None:
        print(f"no divergence: {len(parent.events)} events and {len(parent.trace)} "
              "trace lines are the same", file=out)
        return
    print(f"events: parent {len(parent.events)}, change {len(change.events)}", file=out)
    if i is not None:
        print(f"first divergent event: {i}", file=out)
        for side, run in (("parent", parent), ("change", change)):
            print(f"{side}:", file=out)
            for k in range(max(0, i - CONTEXT), min(i + 1, len(run.events))):
                print(f"{'>' if k == i else ' '} {k:>7}  {run.events[k]}", file=out)
    if line is not None:
        print(f"first divergent trace.txt line: {line + 1}", file=out)
        for side, run in (("parent", parent), ("change", change)):
            print(f"  {side}: {run.trace[line] if line < len(run.trace) else '(none)'}",
                  file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    p.add_argument("--scenario", default="scenario2",
                   help="builtin name or path to a .scn file")
    p.add_argument("--protocol", default="aodv", choices=("aodv", "dsdv"))
    p.add_argument("--seed", type=int, default=1, help="simulation seed")
    p.add_argument("--renumber-uids", action="store_true",
                   help="renumber uids in order of first use before comparing")
    args = p.parse_args(argv)
    scenario = args.scenario
    if Path(scenario).is_file():    # the children run in the trees, not here
        scenario = str(Path(scenario).resolve())
    with tempfile.TemporaryDirectory(prefix="diverge-parent-") as tree:
        parent = run_tree(unpack(args.parent, tree), scenario, args.protocol, args.seed)
    change = run_tree(ROOT, scenario, args.protocol, args.seed)
    result = compare(parent, change, args.renumber_uids)
    report(result)
    return 0 if result["event"] is None and result["trace_line"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
