"""Command-line front door: run one simulation or compare both protocols."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import scenario as scenario_mod
from .engine import TICK
from .errors import SimError
from .metrics import Series, emit_plot_datasets, run_series, write_trace
# unused here, but perfbench/tracer.py patches these names in this module
# (ROADMAP item 3 moves the tracer off them)
from .metrics import cumulative_series, delay_series, throughput_series  # noqa: F401
from .simulation import PROTOCOLS, RunReport, Simulation, valid_hello_interval

PLOTS = ("received_lost.xg", "throughput.xg", "delay.xg")


def plot_series(result: Simulation, window: float) -> dict[str, list[Series]]:
    """Each plot file's datasets for one run; the report reuses these series."""
    series = run_series(result.ledger, window, t_end=result.spec.end_time)
    return {"received_lost.xg": [series.received, series.dropped],
            "throughput.xg": [series.throughput],
            "delay.xg": [series.delay]}


def write_outputs(result: Simulation, out_dir: Path, window: float,
                  series: dict[str, list[Series]] | None = None) -> RunReport:
    """Trace, report and plots of one run; `series` is its plot_series, if derived."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    with open(out_dir / "trace.txt", "w") as fh:
        write_trace(result.ledger, fh)
    if series is None:
        series = plot_series(result, window)
    report = result.summarize(series["throughput.xg"][0], series["delay.xg"][0])
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    titles = ("packets received and lost", "throughput", "delay")
    for name, title in zip(PLOTS, titles):
        with open(plots / name, "w") as fh:
            emit_plot_datasets(series[name], f"{title}: {report.scenario} {report.protocol}", fh)
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


def _load_spec(args) -> scenario_mod.ScenarioSpec:
    """The scenario named by --scenario, with --range applied."""
    spec = scenario_mod.load(args.scenario)
    if args.range is not None:
        spec = dataclasses.replace(
            spec, radio=dataclasses.replace(spec.radio, range=args.range))
    return spec


def cmd_run(args) -> int:
    result = Simulation(_load_spec(args), protocol=args.protocol, seed=args.seed,
                        hello_interval=args.hello_interval).run()
    stem = Path(result.spec.name).stem
    out_dir = Path(args.out or f"runs/{stem}_{args.protocol}_seed{args.seed}")
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
    spec = _load_spec(args)     # read once: every run sees the same file
    reports: dict[str, list[RunReport]] = {p: [] for p in PROTOCOLS}
    first: dict[str, dict] = {}     # protocol -> plot series of its first seed
    for protocol in PROTOCOLS:
        for seed in seeds:
            result = Simulation(spec, protocol=protocol, seed=seed,
                                hello_interval=args.hello_interval).run()
            series = plot_series(result, args.window)
            sub = out_dir / f"{protocol}_seed{seed}"
            reports[protocol].append(write_outputs(result, sub, args.window, series))
            first.setdefault(protocol, series)

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
    titles = ("received and lost", "throughput", "delay")
    for plot, title in zip(PLOTS, titles):
        with open(plots / plot, "w") as fh:
            emit_plot_datasets([d for p in PROTOCOLS for d in first[p][plot]],
                               f"{title}: {reports['aodv'][0].scenario} aodv vs dsdv", fh)

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


def hello_period(text: str) -> float:
    value = float(text)
    if not valid_hello_interval(value):
        raise argparse.ArgumentTypeError(
            f"must be 0 or a finite number >= {TICK:g}, got '{text}'")
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
        p.add_argument("--hello-interval", type=hello_period, default=1.0,
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
