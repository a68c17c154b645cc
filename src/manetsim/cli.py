"""Command-line front door: run one simulation or compare both protocols."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import scenario as scenario_mod
from .errors import SimError
from .metrics import (EventKind, MetricsLedger, SeriesPoint, delay_series,
                      emit_plot_datasets, throughput_series, write_trace)
from .simulation import PROTOCOLS, RunReport, RunResult, Simulation


def cumulative_series(ledger: MetricsLedger, kind: EventKind,
                      subkind: str = "DATA") -> list[SeriesPoint]:
    """Running count of matching ledger events over time."""
    points: list[SeriesPoint] = []
    count = 0
    for ev in ledger.events:
        if ev.kind is kind and ev.subkind == subkind:
            count += 1
            if points and points[-1].t == ev.t:
                points[-1] = SeriesPoint(ev.t, count)
            else:
                points.append(SeriesPoint(ev.t, count))
    return points


def write_outputs(result: RunResult, out_dir: Path, window: float) -> RunReport:
    out_dir.mkdir(parents=True, exist_ok=True)
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    with open(out_dir / "trace.txt", "w") as fh:
        write_trace(result.ledger, fh)
    report = result.report(window)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(plots / "received_lost.xg", "w") as fh:
        emit_plot_datasets(
            [cumulative_series(result.ledger, EventKind.RECEIVED),
             cumulative_series(result.ledger, EventKind.DROPPED)],
            f"packets received and lost: {report.scenario} {report.protocol}", fh)
    with open(plots / "throughput.xg", "w") as fh:
        emit_plot_datasets(
            [throughput_series(result.ledger, window, t_end=result.spec.end_time)],
            f"throughput: {report.scenario} {report.protocol}", fh)
    with open(plots / "delay.xg", "w") as fh:
        emit_plot_datasets([delay_series(result.ledger)],
                           f"delay: {report.scenario} {report.protocol}", fh)
    return report


def print_report(report: RunReport, file=None) -> None:
    file = file if file is not None else sys.stdout
    rows = [
        ("scenario", report.scenario),
        ("protocol", report.protocol),
        ("seed", report.seed),
        ("sent", report.sent),
        ("received", report.received),
        ("dropped", report.dropped),
        ("unresolved", report.unresolved),
        ("lost", report.lost),
        ("delivery_ratio", f"{report.delivery_ratio:.4f}"),
        ("transmission_efficiency",
         "n/a" if report.transmission_efficiency is None
         else f"{report.transmission_efficiency:.4f}"),
        ("mean_throughput_bps", f"{report.mean_throughput_bps:.1f}"),
        ("mean_delay_s", f"{report.mean_delay_s:.6f}"),
        ("mean_route_stretch", f"{report.mean_route_stretch:.3f}"),
        ("route_changes", report.route_changes),
        ("control_tx", " ".join(f"{k}={v}" for k, v in report.control_tx.items())),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}", file=file)


def _build_sim(args, protocol: str, seed: int) -> Simulation:
    spec = scenario_mod.load(args.scenario)
    if args.range is not None:
        spec = dataclasses.replace(
            spec, radio=dataclasses.replace(spec.radio, range=args.range))
    return Simulation(spec, protocol=protocol, seed=seed,
                      hello_interval=args.hello_interval)


def cmd_run(args) -> int:
    sim = _build_sim(args, args.protocol, args.seed)
    result = sim.run()
    out_dir = Path(args.out or f"runs/{result.spec.name}_{args.protocol}_seed{args.seed}")
    report = write_outputs(result, out_dir, args.window)
    print_report(report)
    print(f"outputs written to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    seeds = args.seeds
    if not seeds:
        print("error: compare needs at least one seed", file=sys.stderr)
        return 2
    out_dir = Path(args.out or f"runs/compare_{Path(args.scenario).stem}")
    reports: dict[str, list[RunReport]] = {p: [] for p in PROTOCOLS}
    results: dict[str, list[RunResult]] = {p: [] for p in PROTOCOLS}
    for protocol in PROTOCOLS:
        for seed in seeds:
            sim = _build_sim(args, protocol, seed)
            result = sim.run()
            sub = out_dir / f"{protocol}_seed{seed}"
            reports[protocol].append(write_outputs(result, sub, args.window))
            results[protocol].append(result)

    header = (f"{'protocol':<9} {'seed':>5} {'sent':>5} {'recv':>5} {'drop':>5} "
              f"{'ratio':>7} {'tput_bps':>10} {'delay_s':>9} {'ctrl_tx':>8}")
    print(header)
    print("-" * len(header))
    for protocol in PROTOCOLS:
        for rep in reports[protocol]:
            print(f"{protocol:<9} {rep.seed:>5} {rep.sent:>5} {rep.received:>5} "
                  f"{rep.dropped:>5} {rep.delivery_ratio:>7.4f} "
                  f"{rep.mean_throughput_bps:>10.1f} {rep.mean_delay_s:>9.6f} "
                  f"{rep.control_tx['total']:>8}")

    # combined plots, both protocols in one file (first seed of each)
    plots = out_dir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    first = {p: results[p][0] for p in PROTOCOLS}
    with open(plots / "received_lost.xg", "w") as fh:
        emit_plot_datasets(
            [cumulative_series(first[p].ledger, kind)
             for p in PROTOCOLS for kind in (EventKind.RECEIVED, EventKind.DROPPED)],
            f"received and lost: {first['aodv'].spec.name} aodv vs dsdv", fh)
    with open(plots / "throughput.xg", "w") as fh:
        emit_plot_datasets(
            [throughput_series(first[p].ledger, args.window,
                               t_end=first[p].spec.end_time) for p in PROTOCOLS],
            f"throughput: {first['aodv'].spec.name} aodv vs dsdv", fh)
    with open(plots / "delay.xg", "w") as fh:
        emit_plot_datasets([delay_series(first[p].ledger) for p in PROTOCOLS],
                           f"delay: {first['aodv'].spec.name} aodv vs dsdv", fh)

    summary = {p: [r.to_dict() for r in reports[p]] for p in PROTOCOLS}
    with open(out_dir / "comparison.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"outputs written to {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, like every other bad input."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got '{text}'")
    return value


def non_negative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got '{text}'")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="manetsim",
        description="Discrete-event AODV/DSDV simulator for mobile ad-hoc networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="builtin name (scenario1, scenario2) or path to a .scn file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--range", type=positive_float, default=None,
                       help="override radio range in meters")
        p.add_argument("--hello-interval", type=non_negative_float, default=1.0,
                       help="AODV hello period in seconds; 0 disables hellos")
        p.add_argument("--window", type=positive_float, default=0.5,
                       help="throughput window in seconds")

    run_p = sub.add_parser("run", help="run one scenario under one protocol")
    common(run_p)
    run_p.add_argument("--protocol", choices=PROTOCOLS, default="aodv")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run both protocols over a seed list")
    common(cmp_p)
    cmp_p.add_argument("--seeds", type=int, nargs="+", default=[],
                       help="one run per protocol per seed")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
