"""Data packets and the message-kind taxonomy shared by both protocols.

Per-frame code compares `msg.kind` against the module-level member names
bound below, never `MessageKind.X`: on CPython 3.11 every class-attribute
lookup of an enum member goes through a descriptor, a global does not.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MessageKind(Enum):
    DATA = "DATA"
    RREQ = "RREQ"
    RREP = "RREP"
    RERR = "RERR"
    HELLO = "HELLO"
    DSDV_UPDATE = "DSDV-UPDATE"


DATA, RREQ, RREP, RERR, HELLO, DSDV_UPDATE = MessageKind


@dataclass
class DataPacket:
    """One application payload travelling from src to dst."""

    uid: int
    src: int
    dst: int
    size: int

    kind = DATA
