"""Deterministic discrete-event simulator for AODV and DSDV ad-hoc routing."""

from .aodv import AodvConfig, AodvNode
from .dsdv import DsdvConfig, DsdvNode
from .engine import Engine
from .metrics import MetricsLedger
from .scenario import ScenarioSpec, builtin, load, parse, serialize
from .simulation import RunReport, RunResult, Simulation
from .world import Position, RadioModel, WaypointLeg, World

__all__ = [
    "AodvConfig", "AodvNode", "DsdvConfig", "DsdvNode", "Engine",
    "MetricsLedger", "Position", "RadioModel", "RunReport", "RunResult",
    "ScenarioSpec", "Simulation", "WaypointLeg", "World", "builtin", "load",
    "parse", "serialize",
]

__version__ = "0.1.0"
