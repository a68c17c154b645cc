"""Deterministic discrete-event simulator for AODV and DSDV ad-hoc routing."""

from .aodv import AodvNode
from .dsdv import DsdvNode
from .engine import Engine
from .metrics import MetricsLedger
from .scenario import ScenarioSpec, builtin, load, parse, serialize
from .simulation import RunReport, Simulation
from .world import Movement, Position, RadioModel, World

__all__ = [
    "AodvNode", "DsdvNode", "Engine", "MetricsLedger", "Movement", "Position",
    "RadioModel", "RunReport", "ScenarioSpec", "Simulation", "World",
    "builtin", "load", "parse", "serialize",
]

__version__ = "0.1.0"
