"""Data packets and the message kinds shared by both protocols.

A kind is the string `trace.txt` prints as a row's subkind. Every
message class binds one of the constants below as its `kind`, so
protocol code may compare kinds with `is`.
"""
from __future__ import annotations

from dataclasses import dataclass

DATA, RREQ, RREP, RERR, HELLO, DSDV_UPDATE = "DATA", "RREQ", "RREP", "RERR", "HELLO", "DSDV-UPDATE"
MESSAGE_KINDS = (DATA, RREQ, RREP, RERR, HELLO, DSDV_UPDATE)


@dataclass(slots=True)
class DataPacket:
    """One application payload travelling from src to dst."""

    uid: int
    src: int
    dst: int
    size: int

    kind = DATA
