import hashlib
import importlib.resources
import io
import json
import locale
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from manetsim import metrics, scenario
from manetsim.cli import PLOTS, _load_spec, build_parser, main
from manetsim.errors import ScenarioSemanticError, SimError
from manetsim.metrics import valid_window
from manetsim.simulation import valid_hello_interval
from manetsim.world import RadioModel


def read(path):
    with open(path) as fh:
        return fh.read()


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "s1"
    rc = main(["run", "--scenario", "scenario1", "--protocol", "aodv",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.txt").exists()
    assert (out / "report.json").exists()
    for plot in ("received_lost.xg", "throughput.xg", "delay.xg"):
        assert (out / "plots" / plot).exists()
    report = json.loads(read(out / "report.json"))
    assert report["sent"] == 40
    assert report["received"] == 39
    assert report["route_changes"] >= 1
    printed = capsys.readouterr().out
    assert "delivery_ratio" in printed and "scenario1" in printed


# every line `manetsim run` prints for a builtin DSDV run with a lengthened route
SCENARIO1_DSDV_SEED5_PRINTOUT = """\
scenario                 scenario1
protocol                 dsdv
seed                     5
sent                     40
received                 39
dropped                  1
unresolved               0
lost                     1
delivery_ratio           0.9750
transmission_efficiency  0.3900
mean_throughput_bps      32946.1
mean_delay_s             0.002578
mean_route_stretch       0.333
route_changes            2
control_tx               DSDV-UPDATE=137 total=137
outputs written to {out}
"""
# and for a run that transmits no data: no transmission efficiency to print
NO_DATA_PRINTOUT = """\
scenario                 {scn}
protocol                 aodv
seed                     0
sent                     0
received                 0
dropped                  0
unresolved               0
lost                     0
delivery_ratio           1.0000
transmission_efficiency  n/a
mean_throughput_bps      0.0
mean_delay_s             0.000000
mean_route_stretch       0.000
route_changes            0
control_tx               total=0
outputs written to {out}
"""


def test_run_prints_every_report_line(tmp_path, capsys):
    out = tmp_path / "s1"
    assert main(["run", "--scenario", "scenario1", "--protocol", "dsdv",
                 "--seed", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == SCENARIO1_DSDV_SEED5_PRINTOUT.format(out=out)
    scn = tmp_path / "quiet.scn"
    scn.write_text("area 800 800\nnode 0 1 1\nnode 1 50 1\nend 5\n")
    out = tmp_path / "quiet"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    assert capsys.readouterr().out == NO_DATA_PRINTOUT.format(scn=scn, out=out)


def test_run_scenario2_reports_three_route_changes(tmp_path):
    out = tmp_path / "s2"
    rc = main(["run", "--scenario", "scenario2", "--seed", "42", "--out", str(out)])
    assert rc == 0
    report = json.loads(read(out / "report.json"))
    assert report["route_changes"] >= 3
    assert report["dropped"] == 3


def test_run_missing_file_fails_with_message(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "ScenarioSyntaxError" in capsys.readouterr().err


def test_run_invalid_file_surfaces_semantic_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("area 800 800\nnode 0 1 1\nflow 0 7 10 512 1 4\nend 5\n")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "ScenarioSemanticError" in capsys.readouterr().err


def test_run_is_deterministic_at_cli_level(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--scenario", "scenario2", "--seed", "7",
                     "--out", str(out)]) == 0
    assert read(out_a / "trace.txt") == read(out_b / "trace.txt")
    assert read(out_a / "report.json") == read(out_b / "report.json")
    for plot in ("received_lost.xg", "throughput.xg", "delay.xg"):
        assert read(out_a / "plots" / plot) == read(out_b / "plots" / plot)


def test_compare_table_and_combined_plots(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", "scenario1", "--seeds", "1", "2",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "aodv" in printed and "dsdv" in printed
    summary = json.loads(read(out / "comparison.json"))
    assert {r["seed"] for r in summary["aodv"]} == {1, 2}
    for seed_reports in zip(summary["aodv"], summary["dsdv"]):
        assert seed_reports[1]["control_tx"]["total"] > \
            seed_reports[0]["control_tx"]["total"]
    # both protocols share one plot file, blank-line separated datasets
    throughput = read(out / "plots" / "throughput.xg")
    assert throughput.count("\n\n") >= 1


# SHA-256 of the combined plots of `compare --scenario scenario1 --seeds 1 2`
COMPARE_PLOT_DIGESTS = {
    "received_lost.xg": "8773c9d63ce55fe3161603376c7571caabf812ef6cdb6ef52c7971fdf13374c0",
    "throughput.xg": "6bb05729397394e6eb3efedff5d8cd43b7914b09cdb576b8e0612c0c03f667f9",
    "delay.xg": "8835254e9f102c7ef97ebbf564334c99b965029630440306a2cd4f0f8f8439b4",
}


def test_compare_combined_plots_match_pinned_digests(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "scenario1", "--seeds", "1", "2",
                 "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / "plots" / name).read_bytes()).hexdigest()
               for name in COMPARE_PLOT_DIGESTS}
    assert digests == COMPARE_PLOT_DIGESTS


def test_compare_reads_the_scenario_once(tmp_path, monkeypatch):
    # one parse for all runs, so a file edited mid-comparison cannot mix specs
    loads = []
    real_load = scenario.load
    monkeypatch.setattr(scenario, "load", lambda name: loads.append(name) or real_load(name))
    assert main(["compare", "--scenario", "scenario1", "--seeds", "1", "2",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert loads == ["scenario1"]


def test_compare_without_seeds_is_usage_error(tmp_path, capsys):
    rc = main(["compare", "--scenario", "scenario1", "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [["1", "1"], ["3", "1", "2", "1"]])
def test_compare_with_a_repeated_seed_is_usage_error(seeds, tmp_path, capsys):
    """A repeated seed was once run again, its directory written twice and its
    rows printed and saved twice; now one error line and no output."""
    out = tmp_path / "c"
    rc = main(["compare", "--scenario", "scenario1", "--seeds", *seeds, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and not out.exists() and captured.out == ""
    assert captured.err == f"error: compare runs each seed once, got {' '.join(seeds)}\n"


def test_custom_scenario_file_via_cli(tmp_path):
    scn = tmp_path / "line.scn"
    scn.write_text("area 800 800\nrange 250\n"
                   "node 0 100 100\nnode 1 300 100\nnode 2 500 100\n"
                   "flow 0 2 10 512 0.5 3.0\nend 3.0\n")
    out = tmp_path / "custom"
    rc = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert rc == 0
    report = json.loads(read(out / "report.json"))
    assert report["sent"] == 25
    assert report["received"] == 25


# scenario1 with 1e30-byte packets: a valid flow whose size no `h` or `i`
# column holds, so its chunks keep the sizes in a tuple column. The digests
# were taken when the ledger kept every row as a LedgerEvent; the
# throughput digest is of the plot below its title line.
HUGE_SIZE_TRACE_SHA256 = "df8ffb1d7e5426ba4868eabe5fe6c5b199c5ed028b258e3f79d8ba13b1032ca0"
HUGE_SIZE_THROUGHPUT_SHA256 = "27832808510b6707555e038e82fe4dc7b24362aa6b936beb300217b5a240b049"


@pytest.mark.parametrize("chunk", [16, metrics.CHUNK])
def test_a_packet_size_wider_than_32_bits_sits_in_a_tuple_column(chunk, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setattr(metrics, "CHUNK", chunk)
    text = importlib.resources.files("manetsim.data").joinpath("scenario1.scn").read_text()
    scn = tmp_path / "huge.scn"
    scn.write_text(text.replace("flow 0 5 10 512 1.0 5.0", "flow 0 5 10 1e30 1.0 5.0"))
    out = tmp_path / "huge"
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trace.txt").read_bytes()).hexdigest() == \
        HUGE_SIZE_TRACE_SHA256
    body = (out / "plots" / "throughput.xg").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == HUGE_SIZE_THROUGHPUT_SHA256
    assert json.loads(read(out / "report.json"))["mean_throughput_bps"] == 6.434782608695652e31


def test_a_non_ascii_scenario_name_is_titled_as_a_text_mode_file_writes_it(tmp_path):
    """The plots are written in binary; the title line, which names the
    scenario file, keeps the bytes open(path, "w") gives it."""
    scn = tmp_path / "ünï.scn"
    scn.write_text("area 800 800\nnode 0 100 100\nnode 1 300 100\n"
                   "flow 0 1 10 512 0.5 1.0\nend 1.0\n")
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    for plot, title in zip(PLOTS, ("packets received and lost", "throughput", "delay")):
        with open(tmp_path / "title.txt", "w") as fh:
            fh.write(f"TitleText: {title}: {scn} aodv\n")
        head = (tmp_path / "title.txt").read_bytes()
        written = (out / "plots" / plot).read_bytes()
        assert not head.isascii()
        assert written == head + written.split(b"\n", 1)[1]
        assert written.split(b"\n", 2)[1]    # a data line follows the title


def test_run_without_out_writes_under_runs_by_file_stem(tmp_path, monkeypatch):
    (tmp_path / "x.scn").write_text("area 800 800\nnode 0 100 100\nnode 1 300 100\n"
                                    "flow 0 1 10 512 0.5 1.0\nend 1.0\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for path in ("../x.scn", str(tmp_path / "x.scn")):
        assert main(["run", "--scenario", path]) == 0
        assert sorted(p.name for p in work.iterdir()) == ["runs"]
        assert sorted(p.name for p in (work / "runs").iterdir()) == ["x_aodv_seed0"]
        assert (work / "runs" / "x_aodv_seed0" / "report.json").exists()


def test_range_override_changes_connectivity(tmp_path):
    scn = tmp_path / "pair.scn"
    scn.write_text("area 800 800\nrange 250\n"
                   "node 0 100 100\nnode 1 300 100\n"
                   "flow 0 1 10 512 0.5 2.0\nend 2.0\n")
    ok = tmp_path / "ok"
    assert main(["run", "--scenario", str(scn), "--out", str(ok)]) == 0
    assert json.loads(read(ok / "report.json"))["received"] > 0
    short = tmp_path / "short"
    assert main(["run", "--scenario", str(scn), "--range", "150",
                 "--out", str(short)]) == 0
    assert json.loads(read(short / "report.json"))["received"] == 0


def test_hello_interval_zero_disables_beacons(tmp_path):
    out = tmp_path / "quiet"
    assert main(["run", "--scenario", "scenario1", "--hello-interval", "0",
                 "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert "HELLO" not in report["control_tx"]


@pytest.mark.parametrize("value", ["1e-7", "5e-7"])
def test_hello_interval_below_one_clock_tick_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--scenario", "scenario1",
                                   "--hello-interval", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--hello-interval" in err


OPTION_VALUES = ["0", "-0.0", "5e-7", "1e-6", "0.5", "nan", "inf"]


@pytest.mark.parametrize("option, rule", [("--window", valid_window),
                                          ("--hello-interval", valid_hello_interval)])
@pytest.mark.parametrize("text", OPTION_VALUES)
def test_an_option_takes_exactly_the_values_its_library_rule_takes(option, rule, text, capsys):
    try:
        args = build_parser().parse_args(["run", "--scenario", "scenario1", option, text])
    except SystemExit as exc:
        assert exc.code == 2 and len(capsys.readouterr().err.splitlines()) == 1
        assert not rule(float(text))
    else:
        assert rule(float(text))
        assert getattr(args, option[2:].replace("-", "_")) == float(text)


@pytest.mark.parametrize("text", OPTION_VALUES)
def test_a_range_the_command_line_takes_is_one_the_radio_takes(text):
    """--range is any float; the spec it makes is checked by RadioModel alone."""
    args = build_parser().parse_args(["run", "--scenario", "scenario1", "--range", text])
    try:
        RadioModel(range=float(text))
    except ScenarioSemanticError:
        with pytest.raises(ScenarioSemanticError, match="radio range"):
            _load_spec(args)
    else:
        assert _load_spec(args).radio == RadioModel(range=float(text))


def test_a_non_number_is_argparses_invalid_float_value(capsys):
    for option in ("--range", "--window", "--hello-interval"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "scenario1", option, "x"])
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: invalid float value: 'x'\n")
        assert len(err.splitlines()) == 1


# move lines that world.tracks rejects, after node 0 at (1, 1) and node 1 at (50, 1)
LEG_FAULTS = {"overlapping-legs": "move 1.0 1 500 1 50\nmove 2.0 1 100 1 50\n",
              "move-unknown-node": "move 1.0 7 500 1 50\n",
              "move-zero-speed": "move 1.0 1 500 1 0\n"}


# the one line of every radio range RadioModel refuses, from a file or from --range
RADIO_ERROR = ("error: ScenarioSemanticError: "
               "radio range and hop latency must be positive and finite\n")


@pytest.mark.parametrize("case", ["window-zero", "window-nan", "window-inf", "negative-range",
                                  "range-nan", "file-range-zero",
                                  "file-range-negative", "hello-negative", "hello-nan",
                                  "flow-above-one-packet-per-tick", "out-is-a-file",
                                  "non-utf8-scenario", "end-2e9", "name-outside-locale",
                                  *LEG_FAULTS])
def test_bad_input_is_one_line_error_without_outputs(case, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    args = ["run", "--scenario", "scenario1", "--out", str(out)]
    if case.startswith("window-"):
        args += ["--window", {"window-zero": "0", "window-nan": "nan", "window-inf": "inf"}[case]]
    elif case == "negative-range":
        args += ["--range", "-5"]
    elif case == "range-nan":
        args += ["--range", "nan"]
    elif case == "hello-negative":
        args += ["--hello-interval", "-1"]
    elif case == "hello-nan":
        args += ["--hello-interval", "nan"]
    elif case.startswith("file-range"):
        scn = tmp_path / "range.scn"
        value = "0" if case.endswith("zero") else "-5"
        scn.write_text(f"area 800 800\nrange {value}\nnode 0 1 1\nend 5\n")
        args[2] = str(scn)
    elif case == "flow-above-one-packet-per-tick":
        scn = tmp_path / "fast.scn"
        scn.write_text("area 800 800\nnode 0 1 1\nnode 1 50 1\n"
                       "flow 0 1 2000000 512 0.0 0.001\nend 1\n")
        args[2] = str(scn)
    elif case == "end-2e9":
        scn = tmp_path / "endless.scn"
        scn.write_text("area 800 800\nnode 0 1 1\nnode 1 50 1\nend 2e9\n")
        args[2] = str(scn)
    elif case in LEG_FAULTS:
        scn = tmp_path / "legs.scn"
        scn.write_text(f"area 800 800\nnode 0 1 1\nnode 1 50 1\n{LEG_FAULTS[case]}end 5\n")
        args[2] = str(scn)
    elif case == "out-is-a-file":
        out.write_text("")
    elif case == "name-outside-locale":
        # as under LC_ALL=C PYTHONUTF8=0 PYTHONCOERCECLOCALE=0: the plot
        # titles, which carry the scenario name, are written in ASCII
        monkeypatch.setattr(locale, "getpreferredencoding", lambda _=True: "ascii")
        scn = tmp_path / "\u00fcn\u00ef.scn"
        scn.write_text("area 800 800\nnode 0 1 1\nnode 1 50 1\nflow 0 1 10 512 0.5 2.0\nend 5\n")
        args[2] = str(scn)
    else:
        scn = tmp_path / "latin1.scn"
        scn.write_bytes(b"area 800 800\n# caf\xe9\nnode 0 1 1\nend 5\n")
        args[2] = str(scn)
    try:
        rc = main(args)
    except SystemExit as exc:   # argparse rejects a bad flag value
        rc = exc.code
    assert rc != 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error" in err
    if case in LEG_FAULTS or case == "end-2e9":
        assert "ScenarioSemanticError" in err
    if case == "name-outside-locale":
        assert "SimError" in err
    if "range" in case:
        assert err == RADIO_ERROR and rc == 1
    if case != "out-is-a-file":
        assert not out.exists()


# -- scenario fuzzer ----------------------------------------------------------------------------

# the builtins' directive lines; their comments would soak up most mutations
BUILTIN_DIRECTIVES = [re.sub(r"(?m)^#.*\n", "", importlib.resources.files("manetsim.data")
                        .joinpath(f"{name}.scn").read_text())
                 for name in scenario.BUILTIN_NAMES]
# every value of the builtins, values at and past the edges of each rule, and
# text that is no number; an insertion may also add a directive, a comment
# mark or a line break
VALUES = sorted({t for text in BUILTIN_DIRECTIVES for t in text.split() if not t.isalpha()} | {
    "0", "-0", "-1", "1e-7", "1e308", "nan", "inf", "1_0", "0x10", "x"})
TOKENS = VALUES + ["area", "range", "node", "move", "flow", "end", "#", "\n"]


@st.composite
def mutated_builtins(draw):
    """A builtin's directive lines after one to three mutations: mostly a
    token replaced by a value, else one inserted or deleted, which changes
    the arity of its line."""
    tokens = re.findall(r"\n|\S+", draw(st.sampled_from(BUILTIN_DIRECTIVES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["replace"] * 4 + ["insert", "delete"]))
        if op == "replace":
            tokens[i] = draw(st.sampled_from(VALUES))
        elif op == "insert":
            tokens.insert(i, draw(st.sampled_from(TOKENS)))
        else:
            del tokens[i]
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(mutated_builtins())
def test_a_mutated_builtin_runs_or_fails_on_one_line_without_outputs(text):
    try:
        spec = scenario.parse(text)
    except SimError:
        pass                    # main must report it on one line
    else:
        # valid, but maybe practically endless: cap this test's own cost
        assume(spec.end_time <= 10.0)
        assume(sum((f.stop - f.start) * f.rate for f in spec.flows) <= 1000)
    with tempfile.TemporaryDirectory() as tmp:
        scn, out = Path(tmp, "mutant.scn"), Path(tmp, "out")
        scn.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["run", "--scenario", str(scn), "--out", str(out)])
        if rc == 0:
            for name in ("trace.txt", "report.json", *(f"plots/{plot}" for plot in PLOTS)):
                assert (out / name).is_file()
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert not out.exists()
