"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from perfbench import ROOT, use_checkout_source  # noqa: E402

use_checkout_source()
from manetsim import engine  # noqa: E402
from manetsim.scenario import parse, serialize  # noqa: E402
from perfbench import bench  # noqa: E402
from perfbench.tracer import Tracer, instrumented, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, build_spec, generate, suite  # noqa: E402

TINY = {p: Workload(f"tiny-{p}", p, 10, (600.0, 600.0), True, 2, 10.0, 3.0, 1, 2, "test")
        for p in ("aodv", "dsdv")}


def test_generator_is_deterministic_and_round_trips():
    for w in [*WORKLOADS.values(), *TINY.values()]:
        assert suite(w, 3) == suite(w, 3)
        assert generate(w, 3, 1) != generate(w, 4, 1)
        spec = build_spec(w, 3, 1)
        assert parse(serialize(spec), name=w.name) == spec
        assert len(spec.nodes) == w.nodes and len(spec.flows) == w.flows


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),       # sibling of b
        ("b", 40, 70, 0),
        ("b1", 45, 50, 2),      # nested in b
        ("b2", 48, 60, 2),      # overlaps b1: the overlap counts once
        ("c", 90, 120, 0),      # runs past root: clipped to root's end
    ]
    assert self_times(spans) == [100 - 20 - 30 - 10, 20, 30 - 15, 5, 12, 30]


def test_wrong_pinned_digest_counts_as_failed(tmp_path):
    w = TINY["aodv"]
    good = bench.measure(w, 1, 1, tmp_path, expected=None, log=lambda msg: None)
    assert good.failed == 0 and good.untraced is not None
    pinned = [dict(good.expected[k]) for k in range(w.scenarios)]
    again = bench.measure(w, 1, 1, tmp_path, expected=pinned, log=lambda msg: None)
    assert again.failed == 0 and again.pinned

    pinned[1]["trace.txt"] = "0" * 64
    messages = []
    bad = bench.measure(w, 1, 1, tmp_path, expected=pinned, log=messages.append)
    assert bad.failed == 1 and bad.attempted == 2
    assert bad.untraced is None
    assert len(messages) == 1 and "trace.txt sha256" in messages[0]


def test_traced_pass_reproduces_digests_and_restores_the_simulator(tmp_path):
    run_until = vars(engine.Engine)["run_until"]
    for w in TINY.values():
        out = bench.measure(w, 2, 1, tmp_path, expected=None, traced=True,
                            log=lambda msg: None)
        assert out.failed == 0 and out.attempted == 2 * w.scenarios
        values = bench.per_layer_values(out)
        assert values[f"{w.protocol}.on_receive.calls"] > 0
        assert values["engine.events"] == out.untraced.events
        layer_sum = sum(values[f"{name}.self_s"] for name in bench.LAYERS)
        assert abs(layer_sum + values["trace.unspanned_s"] - values["trace.phases_s"]) < 1e-6
    assert vars(engine.Engine)["run_until"] is run_until
    with instrumented(Tracer()):
        assert vars(engine.Engine)["run_until"] is not run_until
    assert vars(engine.Engine)["run_until"] is run_until


def test_speed_probe_leaves_its_own_time_out_of_the_clock():
    probe = bench.SpeedProbe()
    with probe.running():
        wall, host, spent = time.perf_counter(), probe.clock(), probe.spent
        while time.perf_counter() - wall < 4 * bench.PROBE_PERIOD:
            pass
        wall, host = time.perf_counter() - wall, probe.clock() - host
    assert len(probe.samples) >= 4
    assert abs(wall - host - (probe.spent - spent)) < 1e-3
    t0, t1 = probe.samples[0][0], probe.samples[-1][0]
    assert probe.speed(t0, t1) == statistics.fmean(v for _, v in probe.samples)
    assert probe.speed(t1 + 10, t1 + 11) == probe.samples[-1][1]


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)
