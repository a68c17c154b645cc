"""Data packets and the message-kind taxonomy shared by both protocols."""
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


@dataclass
class DataPacket:
    """One application payload travelling from src to dst."""

    uid: int
    src: int
    dst: int
    size: int

    kind = MessageKind.DATA
