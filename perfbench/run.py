"""Benchmark entry point: measure one workload, or all of them.

Run from the repository root:

    python3 perfbench/run.py --workload aodv-rwp-200 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

`--seed` is the workload seed the scenario generator draws from;
`--sim-seed` is the simulator's own seed. A run is one pass over the
workload's suite of scenarios, whatever `--seconds` says; BENCHMARK.json's
`run_seconds` is about what a run takes, and `--seconds` is only printed
next to the run's wall time. `--trace 0` reports the end-to-end metrics of the
untraced pass; `--trace 1` adds a traced pass and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--workload all`
runs every workload in a process of its own, so that each peak RSS
covers one workload, and ends with one JSON object keyed by workload.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import ROOT, use_checkout_source  # noqa: E402

use_checkout_source()
from perfbench import bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="workload seed (scenario generator)")
    p.add_argument("--sim-seed", type=int, default=1, help="simulator seed")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="expected length of a pass; a run is always one whole pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_digests(out: bench.Outcome, seed: int, sim_seed: int) -> None:
    if out.pinned:
        print(f"digests: pinned in perfbench/golden.json for seed {seed}, "
              f"sim seed {sim_seed}; every iteration compared against them")
    else:
        print(f"digests: NOT pinned for seed {seed}, sim seed {sim_seed}; every "
              "iteration compared against the untraced pass, compare these across commits")
    for k, d in sorted(out.expected.items()):
        print(f"  scenario {k:2d}  " + "  ".join(f"{n} {d[n]}" for n in bench.DIGESTED))


def _end_to_end(out: bench.Outcome) -> dict[str, dict]:
    values = bench.end_to_end_values(out)
    host = bench.end_to_end_values(out, scaled=False)
    probe = out.untraced.probe
    print(f"speed probes: {len(probe.samples)}, {probe.spent:.2f} s; mean speed "
          f"{values['total_s'] / host['total_s']:.3f}. Times are host times at the probed "
          "speed (seconds at speed 1)")
    print(f"samples: times and events summed over {len(out.untraced.iterations)} scenarios; "
          f"set-up and output are each scenario's median rep")
    print(f"{'metric':<14} {'value':>14} {'unit':<6} {'host':>12}")
    metrics = {}
    for name, unit, _ in bench.END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<14} {values[name]:>14.6g} {unit:<6} {host[name]:>12.6g}")
    print(f"{'failed_runs':<14} {out.failed / out.attempted:>14.6g} {'share':<6}   "
          f"({out.failed} of {out.attempted} iterations failed)")
    print("host: " + json.dumps({name: host[name] for name, unit, _ in bench.END_TO_END}))
    return metrics


def _per_layer(out: bench.Outcome) -> dict[str, dict]:
    values = bench.per_layer_values(out)
    total = values["trace.phases_s"]
    print(f"tracing overhead (traced run_s / untraced run_s, host seconds) "
          f"{values['trace.overhead_ratio']:.3f}")
    print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
    for layer in bench.LAYERS:
        v = values[f"{layer}.self_s"]
        print(f"{layer:<12} {v:>10.4f} {v / total:>7.1%}")
    layer_sum = sum(values[f"{layer}.self_s"] for layer in bench.LAYERS)
    unspanned = values["trace.unspanned_s"]
    print(f"{'unspanned':<12} {unspanned:>10.4f} {unspanned / total:>7.1%}")
    print(f"layer self times {layer_sum:.4f} s + unspanned {unspanned:.4f} s = "
          f"{layer_sum + unspanned:.4f} s; traced setup + run + output = {total:.4f} s")
    metrics = {}
    for name, unit, _ in bench.PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<32} {values[name]:>16.6g} {unit}")
    return metrics


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    expected = bench.pinned_digests(bench.load_golden(), w.name, args.seed, args.sim_seed)
    print(f"workload {w.name}: {w.scenarios} scenarios, seed {args.seed}, sim seed "
          f"{args.sim_seed}, one untraced pass{' and one traced pass' if args.trace else ''}")
    start = time.perf_counter()
    with bench.work_area(ROOT, f"{w.name}-{os.getpid()}") as work:
        out = bench.measure(w, args.seed, args.sim_seed, work, expected,
                            traced=bool(args.trace))
    print(f"wall time {time.perf_counter() - start:.1f} s, --seconds {args.seconds:g}")
    _print_digests(out, args.seed, args.sim_seed)
    complete = out.untraced is not None and (not args.trace or out.traced is not None)
    metrics = {}
    if complete:
        metrics = _per_layer(out) if args.trace else _end_to_end(out)
    if args.trace:
        same = "reproduced" if out.failed == 0 else "did NOT reproduce"
        print(f"the traced pass {same} the expected digests of every scenario")
    print(json.dumps({"correct": complete, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if complete else 1


def run_all(args) -> int:
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--sim-seed", str(args.sim_seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        print()
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
