import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_spec
from manetsim.engine import Engine
from manetsim.errors import (ScenarioSemanticError, ScenarioSyntaxError,
                             UnknownScenarioError)
from manetsim import scenario as scenario_mod
from manetsim.scenario import ScenarioSpec, TrafficFlow, builtin, parse, serialize
from manetsim.simulation import Simulation
from manetsim.world import Movement, Position, RadioModel, World

VALID = """\
# toy layout
area 800 800
range 250
node 0 100 400
node 1 300 400
move 1.0 1 500 400 50
flow 0 1 10 512 1.0 4.0
end 5.0
"""


# -- parse ---------------------------------------------------------------------

def test_parse_valid_file():
    spec = parse(VALID)
    assert spec.node_count == 2
    assert spec.radio.range == 250.0
    assert spec.movements == (Movement(1.0, 1, Position(500.0, 400.0), 50.0),)
    assert spec.flows == (TrafficFlow(0, 1, 10.0, 512, 1.0, 4.0),)
    assert spec.end_time == 5.0


def test_parse_applies_radio_defaults():
    spec = parse("area 800 800\nnode 0 1 1\nend 5.0\n")
    assert spec.radio.range == 250.0
    assert spec.radio.hop_latency == 0.001


def test_empty_file_is_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse("")
    with pytest.raises(ScenarioSyntaxError):
        parse("# only a comment\n\n")


def test_unknown_directive_is_syntax_error():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse("area 800 800\nnode 0 1 1\nteleport 0 5 5\nend 5.0\n")
    assert exc.value.line == 3


def test_wrong_arity_is_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse("area 800\nnode 0 1 1\nend 5.0\n")


def test_non_numeric_value_is_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse("area 800 eight-hundred\nnode 0 1 1\nend 5.0\n")


def with_directive(directive):
    """VALID with its first line of the same directive replaced; and that line's number."""
    lines = VALID.splitlines()
    keyword = directive.split()[0]
    at = next(i for i, line in enumerate(lines) if line.startswith(keyword))
    lines[at] = directive
    return "\n".join(lines), at + 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("directive", ["flow 0 1 {} 512 1.0 4.0", "end {}",
                                       "node 1 {} 400", "move 1.0 1 {} 400 50"],
                         ids=["flow", "end", "node", "move"])
def test_non_finite_value_is_syntax_error(directive, value):
    # a nan flow rate used to loop forever in compile, and `end inf` never ends
    text, lineno = with_directive(directive.format(value))
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse(text)
    assert exc.value.line == lineno


@pytest.mark.parametrize("directive", ["area 50 50", "range 100", "end 9"])
def test_repeated_area_range_or_end_is_syntax_error(directive):
    # a second one must not silently win: a second area would check the
    # nodes against 50 x 50, a second end would run to 9 s
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse(VALID + directive + "\n")
    assert exc.value.line == len(VALID.splitlines()) + 1


@pytest.mark.parametrize("directive", ["node 0.5 100 400", "move 1.0 1.2 500 400 50",
                                       "flow 0.9 1 10 512 1.0 4.0",
                                       "flow 0 1.5 10 512 1.0 4.0",
                                       "flow 0 1 10 512.7 1.0 4.0"],
                         ids=["node", "move", "flow-src", "flow-dst", "flow-size"])
def test_fractional_node_id_or_packet_size_is_syntax_error(directive):
    # truncated, `flow 0.9 1.5 10 512.7` would be a 0 -> 1 flow of 512 B
    text, lineno = with_directive(directive)
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse(text)
    assert exc.value.line == lineno


@pytest.mark.parametrize("end", ["1125899906.842624", "2e9", "1e308"])
def test_end_at_or_beyond_two_to_the_fifty_ticks_rejected(end):
    # 2**50 us, about 35.7 years: a run that long would be practically endless
    with pytest.raises(ScenarioSemanticError, match=r"2\*\*50"):
        parse(VALID.replace("end 5.0", f"end {end}"))


def test_end_one_tick_under_two_to_the_fifty_ticks_accepted():
    assert parse(VALID.replace("end 5.0", "end 1125899906.842623")).end_time > 1.1e9


@pytest.mark.parametrize("text, match", [
    (VALID.replace("area 800 800\n", ""), "missing 'area'"),
    (VALID.replace("area 800 800", "area 0 800"), "area dimensions must be positive"),
    (VALID.replace("end 5.0\n", ""), "missing 'end'"),
    (VALID.replace("end 5.0", "end 0"), "end time must be positive"),
    ("area 800 800\nend 5.0\n", "declares no nodes"),
    (VALID.replace("move 1.0 1 500", "move 1.0 1 900"), "leaves the area"),
    (VALID.replace("flow 0 1 10 512", "flow 0 1 0 512"), "rate and packet size"),
    (VALID.replace("flow 0 1 10 512", "flow 0 1 10 0"), "rate and packet size"),
], ids=["no-area", "area-zero", "no-end", "end-zero", "no-nodes", "move-outside-area",
        "flow-rate-zero", "flow-size-zero"])
def test_a_missing_or_zero_setting_is_semantic_error(text, match):
    # a zero rate must not reach the 1 / rate period check
    with pytest.raises(ScenarioSemanticError, match=match):
        parse(text)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_a_range_not_above_zero_is_refused_by_the_radio_once_the_file_is_read(value):
    """RadioModel holds the one radio rule, and parse builds it after the
    last line, so a syntax error further down is reported first."""
    text = VALID.replace("range 250", f"range {value}")
    with pytest.raises(ScenarioSemanticError, match="radio range .* positive and finite"):
        parse(text)
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse(text + "bogus 1\n")
    assert exc.value.line == len(text.splitlines()) + 1


def test_unknown_node_in_flow_is_semantic_error():
    text = VALID.replace("flow 0 1", "flow 0 7")
    with pytest.raises(ScenarioSemanticError):
        parse(text)


@pytest.mark.parametrize("rate", ["2000000", "1e7", "1000000.5"])
def test_flow_faster_than_one_packet_per_clock_tick_rejected(rate):
    # 2,000,000 pkt/s would put several emissions on one microsecond
    with pytest.raises(ScenarioSemanticError, match="tick"):
        parse(VALID.replace("flow 0 1 10 ", f"flow 0 1 {rate} "))


def test_flow_so_slow_its_period_overflows_rejected_for_that_reason():
    # 1 / 1e-320 is inf: the period is too long to be finite, not too short
    with pytest.raises(ScenarioSemanticError, match="must be finite and at least one"):
        parse(VALID.replace("flow 0 1 10 ", "flow 0 1 1e-320 "))


def test_flow_of_one_packet_per_clock_tick_accepted():
    spec = parse(VALID.replace("flow 0 1 10 ", "flow 0 1 1000000 "))
    assert spec.flows[0].rate == 1e6


def test_unknown_node_in_move_is_semantic_error():
    text = VALID.replace("move 1.0 1", "move 1.0 9")
    with pytest.raises(ScenarioSemanticError):
        parse(text)


def test_sparse_node_ids_rejected():
    with pytest.raises(ScenarioSemanticError):
        parse("area 800 800\nnode 0 1 1\nnode 2 5 5\nend 5.0\n")


def test_duplicate_node_ids_rejected():
    with pytest.raises(ScenarioSemanticError):
        parse("area 800 800\nnode 0 1 1\nnode 0 5 5\nend 5.0\n")


def test_move_after_end_time_rejected():
    text = VALID.replace("move 1.0 1", "move 6.0 1")
    with pytest.raises(ScenarioSemanticError):
        parse(text)


def test_overlapping_legs_rejected():
    text = VALID.replace("move 1.0 1 500 400 50\n",
                         "move 1.0 1 500 400 50\nmove 2.0 1 100 400 50\n")
    with pytest.raises(ScenarioSemanticError):
        parse(text)


def test_parse_builds_no_engine_or_world(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse built a simulator object")

    monkeypatch.setattr(Engine, "__init__", refuse)
    monkeypatch.setattr(World, "__init__", refuse)
    # node 1's first leg arrives at 5.0
    assert len(parse(VALID.replace("end 5.0", "move 5.0 1 100 400 50\nend 9.0")).movements) == 2
    with pytest.raises(ScenarioSemanticError, match="overlaps"):
        parse(VALID.replace("end 5.0", "move 4.9 1 100 400 50\nend 9.0"))


def test_back_to_back_legs_start_exactly_at_the_previous_destination():
    # the second leg starts at the arrival computed from the first leg's
    # destination, where interpolation would put node 0 a rounding error
    # off (y 60.69299999999999); a finished leg ends exactly at its
    # destination, so the third leg starts on time too
    text = ("area 200 200\nnode 0 80.359 30.472\nnode 1 0 0\n"
            "move 0.85 0 91.738 60.693 9.402\n"
            "move 4.284616740846399 0 94.009 94.654 9.402\n"
            "move 7.904787674892983 0 3.421 8.778 9.402\n"
            "end 500\n")
    sim = Simulation(parse(text), "aodv", seed=0)
    assert sim.world.position_at(0, 4.284616740846399) == Position(91.738, 60.693)


def test_flow_window_must_fit_run():
    with pytest.raises(ScenarioSemanticError):
        parse(VALID.replace("flow 0 1 10 512 1.0 4.0", "flow 0 1 10 512 1.0 9.0"))
    with pytest.raises(ScenarioSemanticError):
        parse(VALID.replace("flow 0 1 10 512 1.0 4.0", "flow 0 0 10 512 1.0 4.0"))


def test_node_outside_area_rejected():
    with pytest.raises(ScenarioSemanticError):
        parse("area 100 100\nnode 0 500 500\nend 5.0\n")


# VALID, built in code
VALID_FIELDS = dict(area=(800.0, 800.0), radio=RadioModel(range=250.0),
                    nodes=[Position(100.0, 400.0), Position(300.0, 400.0)],
                    movements=[Movement(1.0, 1, Position(500.0, 400.0), 50.0)],
                    flows=[TrafficFlow(0, 1, 10.0, 512, 1.0, 4.0)], end_time=5.0)
LEG, FLOW = VALID_FIELDS["movements"][0], VALID_FIELDS["flows"][0]
# each semantic error above that a spec can carry, as fields replaced in VALID
INVALID_FIELDS = {
    **{f"end-{end!r}": dict(end_time=end) for end in (1125899906.842624, 2e9, 1e308)},
    "area-zero": dict(area=(0.0, 800.0)),
    "end-zero": dict(end_time=0.0),
    # with no leg or flow, whose own windows would refuse a NaN end
    "end-nan": dict(end_time=math.nan, movements=[], flows=[]),
    "no-nodes": dict(nodes=[], movements=[], flows=[]),
    "node-outside-area": dict(area=(100.0, 100.0), nodes=[Position(500.0, 500.0)],
                              movements=[], flows=[]),
    "move-outside-area": dict(movements=[replace(LEG, dest=Position(900.0, 400.0))]),
    "move-unknown-node": dict(movements=[replace(LEG, node=9)]),
    "move-after-end": dict(movements=[replace(LEG, start_time=6.0)]),
    "overlapping-legs": dict(movements=[LEG, Movement(2.0, 1, Position(100.0, 400.0), 50.0)]),
    **{f"move-speed-{speed!r}": dict(movements=[replace(LEG, speed=speed)])
       for speed in (math.nan, math.inf)},
    "flow-rate-zero": dict(flows=[replace(FLOW, rate=0.0)]),
    "flow-size-zero": dict(flows=[replace(FLOW, packet_size=0)]),
    **{f"flow-rate-{rate!r}": dict(flows=[replace(FLOW, rate=rate)])
       for rate in (2e6, 1e7, 1000000.5, 1e-320)},
    "flow-to-unknown-node": dict(flows=[replace(FLOW, dst=7)]),
    "flow-from-unknown-node": dict(flows=[replace(FLOW, src=9)]),
    "flow-to-itself": dict(flows=[replace(FLOW, dst=0)]),
    "flow-past-end": dict(flows=[replace(FLOW, stop=9.0)]),
}


def test_the_spec_built_in_code_is_the_parsed_one():
    assert ScenarioSpec(**VALID_FIELDS, name="custom") == parse(VALID)


def test_a_checked_spec_cannot_be_changed_in_place():
    """A flow from node 9 appended after the checks once reached run() and
    raised a bare IndexError there."""
    fields = {name: list(value) if isinstance(value, list) else value
              for name, value in VALID_FIELDS.items()}
    spec = ScenarioSpec(**fields)
    for name in ("nodes", "movements", "flows"):
        assert type(getattr(spec, name)) is tuple
        with pytest.raises(AttributeError):
            getattr(spec, name).append(getattr(spec, name)[0])
    with pytest.raises(AttributeError):
        spec.flows.append(TrafficFlow(9, 1, 2.0, 512, 0.5, 1.5))
    fields["flows"].append(TrafficFlow(9, 1, 2.0, 512, 0.5, 1.5))    # the caller's list
    assert spec.flows == (FLOW,) and spec == parse(VALID)


@pytest.mark.parametrize("fields", INVALID_FIELDS.values(), ids=INVALID_FIELDS.keys())
def test_a_spec_built_in_code_refuses_what_parse_refuses(fields):
    """No Simulation can be built from it, so no event of it ever runs."""
    with pytest.raises(ScenarioSemanticError):
        ScenarioSpec(**{**VALID_FIELDS, **fields})


# -- round trip ---------------------------------------------------------------------

def test_builtin_scenarios_round_trip():
    for name in ("scenario1", "scenario2"):
        spec = builtin(name)
        assert parse(serialize(spec)) == spec


def test_random_specs_round_trip():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(1, 8)
        spec = build_spec(
            positions=[(rnd.uniform(0, 800), rnd.uniform(0, 800)) for _ in range(n)],
            movements=[Movement(rnd.uniform(0, 4), rnd.randrange(n),
                                Position(rnd.uniform(0, 800), rnd.uniform(0, 800)),
                                rnd.uniform(1, 400))],
            flows=[TrafficFlow(0, n - 1, rnd.choice([5.0, 12.5]), 512,
                               0.5, rnd.uniform(1, 5))] if n > 1 else [],
            end=5.0)
        assert parse(serialize(spec)) == spec


def milli(lo, hi):
    """Values with three decimals, like hand-written scenario files."""
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda k: k / 1000)


@st.composite
def scenario_specs(draw):
    """Valid-looking specs whose legs run back to back: each leg after a
    node's first starts at the arrival computed from the previous one's
    destination, with no slack, and must still not overlap it."""
    w, h = float(draw(st.integers(1, 300))), float(draw(st.integers(1, 300)))

    def point():
        return Position(draw(milli(0, w)), draw(milli(0, h)))

    n = draw(st.integers(1, 4))
    nodes = [point() for _ in range(n)]
    end = draw(milli(1, 500))
    movements = []
    for node in range(n):
        here, t = nodes[node], draw(milli(0, end))
        for _ in range(draw(st.integers(0, 6))):
            if t >= end:
                break
            dest, speed = point(), draw(milli(5, 50))
            movements.append(Movement(t, node, dest, speed))
            t += math.hypot(here.x - dest.x, here.y - dest.y) / speed
            here = dest
    flows = []
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        src, dst = draw(st.permutations(range(n)))[:2]
        start = draw(milli(0, end))
        stop = draw(milli(start, end))
        if start < stop:
            flows.append(TrafficFlow(src, dst, draw(milli(0.5, 2)),
                                     draw(st.integers(1, 1500)), start, stop))
    return build_spec([(p.x, p.y) for p in nodes],
                      sorted(movements, key=lambda m: (m.start_time, m.node)),
                      flows, end, radio_range=draw(milli(1, 500)), area=(w, h))


SCENARIO_PROPERTY = settings(max_examples=200, deadline=None)


@SCENARIO_PROPERTY
@given(scenario_specs())
def test_parse_inverts_serialize(spec):
    assert parse(serialize(spec)) == spec


@SCENARIO_PROPERTY
@given(scenario_specs(), st.sampled_from(["aodv", "dsdv"]))
def test_every_parsed_spec_builds_a_simulation(spec, protocol):
    Simulation(parse(serialize(spec)), protocol, seed=0)


# -- builtins ----------------------------------------------------------------------------

def test_scenario1_shape():
    spec = builtin("scenario1")
    assert spec.node_count == 6
    assert sorted({m.node for m in spec.movements}) == [5]
    assert spec.end_time == 5.0
    assert spec.flows == (TrafficFlow(0, 5, 10.0, 512, 1.0, 5.0),)


def test_scenario2_shape():
    spec = builtin("scenario2")
    assert spec.node_count == 10
    assert sorted({m.node for m in spec.movements}) == [0, 4, 5, 7]
    assert [m.start_time for m in spec.movements] == [1.5, 2.0, 2.5, 3.0]
    assert spec.end_time == 5.0


def test_unknown_builtin_rejected():
    with pytest.raises(UnknownScenarioError):
        builtin("scenario3")


# -- compile ------------------------------------------------------------------------------

def emissions_filed(sim):
    """The emissions compile filed on sim's engine and have not run yet."""
    return sum(fn == sim.emit_data for fn, _ in sim.engine.pending())


def test_compile_counts_forty_emissions_for_ten_pps_four_seconds():
    spec = build_spec([(0, 0), (100, 0)],
                      flows=[TrafficFlow(0, 1, 10.0, 512, 1.0, 5.0)], end=5.0)
    sim = Simulation(spec, "aodv", seed=0)
    assert emissions_filed(sim) == 40
    assert scenario_mod.compile(spec, sim).emissions == 40 and emissions_filed(sim) == 80


def test_compile_without_flows_schedules_only_mobility_and_ticks():
    spec = build_spec([(0, 0), (100, 0)],
                      movements=[Movement(1.0, 1, Position(300, 0), 50.0)], end=5.0)
    sim = Simulation(spec, "aodv", seed=0)
    assert emissions_filed(sim) == 0
    assert sim.world.position_at(1, 5.0) == Position(300, 0)   # the leg is registered
    sim.run()
    assert sim.ledger.sent == 0


def test_first_rreq_of_scenario1_fires_at_one_second():
    sim = Simulation(builtin("scenario1"), "aodv", seed=0)
    sim.run()
    first_rreq = next(e for e in sim.ledger.events if e.subkind == "RREQ")
    assert first_rreq.t == 1.0
    assert first_rreq.node == 0
