"""Scenario model, text format, validation, and the two built-in layouts.

File format (one directive per line, '#' starts a comment):

    area <width> <height>
    range <meters>
    node <id> <x> <y>
    move <t> <id> <dest_x> <dest_y> <speed>
    flow <src> <dst> <rate_pps> <size_bytes> <start> <stop>
    end <t>
"""
from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

from .engine import TICK, TICK_LIMIT, TICKS_PER_S, valid_period
from .errors import ScenarioSemanticError, ScenarioSyntaxError, UnknownScenarioError
from .world import Movement, Position, RadioModel, tracks

BUILTIN_NAMES = ("scenario1", "scenario2")
# a directive -> the number of its values, and the index and name of each that is an integer
DIRECTIVES = {"area": (2, ()), "range": (1, ()), "node": (3, ((0, "node id"),)),
              "move": (5, ((1, "node id"),)), "end": (1, ()),
              "flow": (6, ((0, "node id"), (1, "node id"), (3, "packet size")))}


@dataclass(frozen=True)
class TrafficFlow:
    src: int
    dst: int
    rate: float         # packets per second
    packet_size: int    # bytes
    start: float
    stop: float


@dataclass(frozen=True)
class ScenarioSpec:
    area: tuple[float, float]
    radio: RadioModel
    nodes: tuple[Position, ...]         # index is the node id
    movements: tuple[Movement, ...]
    flows: tuple[TrafficFlow, ...]
    end_time: float
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        """Raise ScenarioSemanticError unless a World and a Simulation can
        run this spec; parse also checks that the file's ids are dense.
        The nodes, movements and flows are stored as tuples first, so a
        spec that passed these checks cannot be changed in place after."""
        for name in ("nodes", "movements", "flows"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ScenarioSemanticError("area dimensions must be positive")
        if not self.end_time > 0:       # NaN too
            raise ScenarioSemanticError("end time must be positive")
        if self.end_time * TICKS_PER_S >= TICK_LIMIT:   # moves and flows end by then
            raise ScenarioSemanticError(
                f"end {self.end_time} s is not under 2**50 us (35.7 years)")
        if not self.nodes:
            raise ScenarioSemanticError("scenario declares no nodes")
        for i, p in enumerate(self.nodes):
            if not (0 <= p.x <= w and 0 <= p.y <= h):
                raise ScenarioSemanticError(f"node {i} at ({p.x}, {p.y}) outside area")

        # movement legs: inside the area and the run; tracks owns the rules
        # the World that runs them applies, so a spec that builds always runs
        for m in self.movements:
            if not (0 <= m.dest.x <= w and 0 <= m.dest.y <= h):
                raise ScenarioSemanticError(f"move for node {m.node} leaves the area")
            if not 0 <= m.start_time < self.end_time:
                raise ScenarioSemanticError(
                    f"move at t={m.start_time} outside run (end {self.end_time})")
        tracks(self.nodes, self.movements)

        n = len(self.nodes)
        for f in self.flows:
            if not (0 <= f.src < n and 0 <= f.dst < n):
                raise ScenarioSemanticError(f"flow references unknown node {f.src}->{f.dst}")
            if f.src == f.dst:
                raise ScenarioSemanticError("flow source equals destination")
            if f.rate <= 0 or f.packet_size <= 0:
                raise ScenarioSemanticError("flow rate and packet size must be positive")
            if not valid_period(1 / f.rate):
                raise ScenarioSemanticError(
                    f"flow rate {f.rate} pkt/s: the period 1/rate must be finite and at least "
                    f"one {TICK:g} s tick")
            if not (0 <= f.start < f.stop <= self.end_time):
                raise ScenarioSemanticError(
                    f"flow window [{f.start}, {f.stop}] invalid for end {self.end_time}")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def _values(directive: str, args: list[str], line: str, lineno: int) -> list[float | int]:
    """A line's values: as many finite numbers as DIRECTIVES gives, ints where it names one."""
    arity, integers = DIRECTIVES[directive]
    if len(args) != arity:
        raise ScenarioSyntaxError(f"'{directive}' expects {arity} values, got {len(args)}", lineno)
    try:
        values = list(map(float, args))
    except ValueError:
        raise ScenarioSyntaxError(f"non-numeric value in '{line}'", lineno)
    if not all(map(math.isfinite, values)):
        raise ScenarioSyntaxError(f"non-finite value in '{line}'", lineno)
    for i, what in integers:
        if values[i] != int(values[i]):
            raise ScenarioSyntaxError(f"{what} must be an integer in '{line}'", lineno)
        values[i] = int(values[i])
    return values


def parse(text: str, name: str = "custom") -> ScenarioSpec:
    """Parse a scenario file; the spec validates itself as it is built."""
    once: dict[str, list[float]] = {}      # the values of the area, range and end lines
    nodes: dict[int, Position] = {}
    movements: list[Movement] = []
    flows: list[TrafficFlow] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        if directive in once:
            raise ScenarioSyntaxError(f"repeated '{directive}' directive", lineno)
        if directive not in DIRECTIVES:
            raise ScenarioSyntaxError(f"unknown directive '{directive}'", lineno)
        values = _values(directive, args, line, lineno)
        if directive == "node":
            nid, x, y = values
            if nid in nodes:
                raise ScenarioSemanticError(f"duplicate node id {nid}")
            nodes[nid] = Position(x, y)
        elif directive == "move":
            t, nid, x, y, speed = values
            movements.append(Movement(t, nid, Position(x, y), speed))
        elif directive == "flow":
            flows.append(TrafficFlow(*values))
        else:
            once[directive] = values

    if not (once or nodes or movements or flows):
        raise ScenarioSyntaxError("empty scenario file", 1)
    for directive in ("area", "end"):
        if directive not in once:
            raise ScenarioSemanticError(f"missing '{directive}' directive")
    if sorted(nodes) != list(range(len(nodes))):
        raise ScenarioSemanticError(f"node ids must be dense 0..{len(nodes) - 1}")
    return ScenarioSpec(
        area=tuple(once["area"]),
        radio=RadioModel(*once.get("range", ())),   # which refuses a range not above 0
        nodes=[nodes[i] for i in sorted(nodes)],
        movements=sorted(movements, key=lambda m: (m.start_time, m.node)),
        flows=flows,
        end_time=once["end"][0],
        name=name,
    )


def serialize(spec: ScenarioSpec) -> str:
    """Inverse of parse: parse(serialize(s)) == s for every valid spec."""
    lines = [f"area {spec.area[0]!r} {spec.area[1]!r}",
             f"range {spec.radio.range!r}"]
    for i, p in enumerate(spec.nodes):
        lines.append(f"node {i} {p.x!r} {p.y!r}")
    for m in spec.movements:
        lines.append(f"move {m.start_time!r} {m.node} {m.dest.x!r} {m.dest.y!r} {m.speed!r}")
    for f in spec.flows:
        lines.append(f"flow {f.src} {f.dst} {f.rate!r} {f.packet_size} {f.start!r} {f.stop!r}")
    lines.append(f"end {spec.end_time!r}")
    return "\n".join(lines) + "\n"


def builtin(name: str) -> ScenarioSpec:
    """Load one of the two bundled scenarios by name."""
    if name not in BUILTIN_NAMES:
        raise UnknownScenarioError(f"no builtin scenario '{name}'")
    text = importlib.resources.files("manetsim.data").joinpath(f"{name}.scn").read_text()
    return parse(text, name=name)


def load(path_or_name: str) -> ScenarioSpec:
    """Resolve a builtin name or read a scenario file from disk."""
    if path_or_name in BUILTIN_NAMES:
        return builtin(path_or_name)
    try:
        with open(path_or_name, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioSyntaxError(f"cannot read scenario: {exc}") from exc
    return parse(text, name=path_or_name)


@dataclass(frozen=True)
class CompiledScenario:
    emissions: int


def compile(spec: ScenarioSpec, sim) -> CompiledScenario:
    """File every flow's emissions on sim's engine; the legs are the World's
    from its construction, so traffic is all this schedules."""
    emissions = 0
    for flow in spec.flows:
        emit, k, pairs = (sim.emit_data, (flow,)), 0, []
        while (t := flow.start + k / flow.rate) < flow.stop - 1e-9:
            pairs.append((t, emit))
            k += 1
        sim.engine.post_all(pairs)
        emissions += len(pairs)
    return CompiledScenario(emissions=emissions)
