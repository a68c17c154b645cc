"""Command-line front door: run one simulation or compare both protocols."""
from __future__ import annotations

import argparse
import dataclasses
import json
import locale
import sys
from pathlib import Path

from . import metrics, scenario as scenario_mod
from .errors import SimError
from .metrics import RunSeries, Series, emit_plot_datasets, run_series, write_trace
# unused here, but perfbench/tracer.py patches these names in this module
# (ROADMAP item 3 moves the tracer off them)
from .metrics import cumulative_series, delay_series, throughput_series  # noqa: F401
from .simulation import HELLO_RULE, PROTOCOLS, RunReport, Simulation, valid_hello_interval

PLOTS = ("received_lost.xg", "throughput.xg", "delay.xg")
# decimals of each float field of the printed report
DECIMALS = {"delivery_ratio": 4, "transmission_efficiency": 4, "mean_throughput_bps": 1,
            "mean_delay_s": 6, "mean_route_stretch": 3}


def plot_datasets(series: RunSeries) -> tuple[list[Series], ...]:
    """The datasets of each file in PLOTS, in order."""
    return [series.received, series.dropped], [series.throughput], [series.delay]


def write_outputs(result: Simulation, out_dir: Path, window: float,
                  series: RunSeries | None = None) -> RunReport:
    """Trace, report and plots of one run; `series` is its run_series, if derived."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    with open(out_dir / "trace.txt", "wb") as fh:
        write_trace(result.ledger, fh)
    if series is None:
        series = run_series(result.ledger, window, t_end=result.spec.end_time)
    report = result.summarize(series)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    titles = ("packets received and lost", "throughput", "delay")
    for name, title, datasets in zip(PLOTS, titles, plot_datasets(series)):
        with open(plots / name, "wb") as fh:
            emit_plot_datasets(datasets, f"{title}: {report.scenario} {report.protocol}", fh)
    return report


def print_report(report: RunReport, file=None) -> None:
    fields = report.to_dict()
    width = max(map(len, fields))
    for name, value in fields.items():
        if value is None:
            value = "n/a"
        elif name in DECIMALS:
            value = f"{value:.{DECIMALS[name]}f}"
        elif isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in value.items())
        print(f"{name:<{width}}  {value}", file=file)


def _load_spec(args) -> scenario_mod.ScenarioSpec:
    """The scenario named by --scenario, with --range applied; RadioModel
    checks that range. Its name titles the plots, so a name the locale
    cannot encode is refused here, before the run writes any output."""
    spec = scenario_mod.load(args.scenario)
    try:
        spec.name.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError as exc:
        raise SimError(f"scenario name cannot title the plots: {exc}") from exc
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
    if len(set(seeds)) < len(seeds):
        print("error: compare runs each seed once, got", *seeds, file=sys.stderr)
        return 2
    out_dir = Path(args.out or f"runs/compare_{Path(args.scenario).stem}")
    spec = _load_spec(args)     # read once: every run sees the same file
    reports: dict[str, list[RunReport]] = {p: [] for p in PROTOCOLS}
    first: dict[str, RunSeries] = {}    # protocol -> series of its first seed
    for protocol in PROTOCOLS:
        for seed in seeds:
            result = Simulation(spec, protocol=protocol, seed=seed,
                                hello_interval=args.hello_interval).run()
            series = run_series(result.ledger, args.window, t_end=result.spec.end_time)
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
    per_protocol = (plot_datasets(first[p]) for p in PROTOCOLS)
    for plot, title, *datasets in zip(PLOTS, titles, *per_protocol):
        with open(plots / plot, "wb") as fh:
            emit_plot_datasets([d for ds in datasets for d in ds],
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


def checked(rule, message: str):
    """An argparse type for a float the library's `rule` accepts, refused with its `message`."""
    def value(text: str) -> float:
        number = float(text)    # a non-number: argparse's "invalid float value"
        if not rule(number):
            raise argparse.ArgumentTypeError(f"{message}, got '{text}'")
        return number
    value.__name__ = "float"
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
        p.add_argument("--range", type=float, default=None,
                       help="override radio range in meters")
        p.add_argument("--hello-interval", type=checked(valid_hello_interval, HELLO_RULE),
                       default=1.0, help="AODV hello period in seconds; 0 disables hellos")
        p.add_argument("--window", type=checked(metrics.valid_window, metrics.WINDOW_RULE),
                       default=0.5, help="throughput window in seconds")

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
