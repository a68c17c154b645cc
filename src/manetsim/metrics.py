"""Append-only measurement ledger and every series derived from it.

All reported numbers are pure functions of the ledger, so a persisted
trace can be parsed back and must reproduce them bit-identically.

Each ledger row and each series point is a NamedTuple: immutable,
hashable and equal field by field, and about four times cheaper to
build than a frozen dataclass. Code that runs once per row compares
kinds against the member names bound next to EventKind and reads a
kind's code as `kind._value_`, never through `EventKind.X` or `.value`,
which are descriptor lookups on CPython 3.11.
"""
from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from typing import Iterable, NamedTuple, TextIO

from .errors import LedgerConsistencyError, LedgerOrderError

THROUGHPUT_STEP = 0.1   # seconds between sliding-window throughput points


class EventKind(Enum):
    SENT = "s"          # application-level origination, once per packet
    RECEIVED = "r"      # consumed at its destination
    DROPPED = "d"       # lost, with the subkind saying what was lost
    CONTROL_TX = "c"    # one protocol-message transmission
    DATA_TX = "f"       # one per-hop data-frame transmission


SENT, RECEIVED, DROPPED, CONTROL_TX, DATA_TX = EventKind


class LedgerEvent(NamedTuple):
    t: float
    kind: EventKind
    node: int
    subkind: str        # DATA or a control-message name
    size: int
    uid: int
    src: int
    dst: int


class SeriesPoint(NamedTuple):
    t: float
    value: float


class MetricsLedger:
    """Single-writer event log with running counters."""

    def __init__(self):
        self.events: list[LedgerEvent] = []
        self._sent_uids: set[int] = set()
        self._control_uids: set[int] = set()
        self.sent = 0
        self.received = 0
        self.dropped_data = 0
        self.data_tx = 0
        self.control_tx: dict[str, int] = {}

    def record(self, ev: LedgerEvent) -> None:
        t, kind, _, subkind, _, uid, _, _ = ev
        events = self.events
        if events and t < events[-1].t:
            raise LedgerOrderError(f"event at {t} after {events[-1].t}")
        if kind is SENT:
            if uid in self._sent_uids:
                raise LedgerConsistencyError(f"duplicate sent uid {uid}")
            self._sent_uids.add(uid)
            self.sent += 1
        elif kind is RECEIVED:
            if uid not in self._sent_uids:
                raise LedgerConsistencyError(f"received unknown uid {uid}")
            self.received += 1
        elif kind is DROPPED:
            if subkind == "DATA":
                if uid not in self._sent_uids:
                    raise LedgerConsistencyError(f"dropped unknown uid {uid}")
                self.dropped_data += 1
            elif uid not in self._control_uids:
                raise LedgerConsistencyError(f"dropped unknown control uid {uid}")
        elif kind is CONTROL_TX:
            self._control_uids.add(uid)
            self.control_tx[subkind] = self.control_tx.get(subkind, 0) + 1
        elif kind is DATA_TX:
            self.data_tx += 1
        events.append(ev)

    @property
    def unresolved(self) -> int:
        """Packets neither delivered nor dropped by the end of the log."""
        return self.sent - self.received - self.dropped_data

    @property
    def lost(self) -> int:
        """Paper-style packet loss: explicit drops plus unresolved leftovers."""
        return self.dropped_data + self.unresolved


def delivery_ratio(ledger: MetricsLedger) -> float:
    """Messages received over messages sent; vacuously 1.0 with no traffic."""
    if ledger.sent == 0:
        return 1.0
    return ledger.received / ledger.sent


def transmission_efficiency(ledger: MetricsLedger) -> float | None:
    """Delivered packets over per-hop data transmissions used; None without any."""
    if ledger.data_tx == 0:
        return None
    return ledger.received / ledger.data_tx


def throughput_series(ledger: MetricsLedger, window: float = 0.5,
                      step: float = THROUGHPUT_STEP,
                      t_end: float | None = None) -> list[SeriesPoint]:
    """Delivered payload bits per second over a sliding window.

    One point per window position, at the window's trailing edge. A point
    counts the receives at rt with t - window < rt <= t: the ledger is
    time-ordered, so that is a difference of two prefix sums.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    times: list[float] = []
    bits = [0]          # bits[i]: payload bits of the first i receives
    for e in ledger.events:
        if e.kind is RECEIVED:
            times.append(e.t)
            bits.append(bits[-1] + e.size * 8)
    if t_end is None:
        t_end = ledger.events[-1].t if ledger.events else 0.0
    points = []
    k = 0
    while window + k * step <= t_end + 1e-9:
        t = window + k * step
        delivered = bits[bisect_right(times, t)] - bits[bisect_right(times, t - window)]
        points.append(SeriesPoint(t, delivered / window))
        k += 1
    return points


def delay_series(ledger: MetricsLedger) -> list[SeriesPoint]:
    """One point per delivered packet: (receive time, end-to-end delay)."""
    sent_at = {e.uid: e.t for e in ledger.events if e.kind is SENT}
    pairs = [(e.t, e.t - sent_at[e.uid])
             for e in ledger.events if e.kind is RECEIVED]
    pairs.sort()
    return [SeriesPoint(t, delay) for t, delay in pairs]


def cumulative_series(ledger: MetricsLedger, kind: EventKind) -> list[SeriesPoint]:
    """Running count of the data-packet ledger events of one kind over time."""
    points: list[SeriesPoint] = []
    count = 0
    for ev in ledger.events:
        if ev.kind is kind and ev.subkind == "DATA":
            count += 1
            if points and points[-1].t == ev.t:
                points[-1] = SeriesPoint(ev.t, count)
            else:
                points.append(SeriesPoint(ev.t, count))
    return points


def control_overhead(ledger: MetricsLedger) -> dict[str, int]:
    """Transmission counts per control subkind plus a 'total' entry."""
    counts = dict(sorted(ledger.control_tx.items()))
    counts["total"] = sum(ledger.control_tx.values())
    return counts


def mean_value(series: list[SeriesPoint]) -> float:
    if not series:
        return 0.0
    return sum(p.value for p in series) / len(series)


# ---------------------------------------------------------------------------
# persistence: line-oriented trace, xgraph-style plot data

def write_trace(ledger: MetricsLedger, out: TextIO) -> None:
    """One line per ledger event, written as it is formatted."""
    write = out.write
    for t, kind, node, subkind, size, uid, src, dst in ledger.events:
        write("%s %.6f %d %s %d %d %d %d\n" % (kind._value_, t, node, subkind,
                                               size, uid, src, dst))


def parse_trace(lines: Iterable[str]) -> MetricsLedger:
    """Rebuild a ledger from its persisted trace."""
    kinds = {k.value: k for k in EventKind}
    ledger = MetricsLedger()
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        kind, t, node, subkind, size, uid, src, dst = raw.split(" ")
        ledger.record(LedgerEvent(float(t), kinds[kind], int(node), subkind,
                                  int(size), int(uid), int(src), int(dst)))
    return ledger


def emit_plot_datasets(datasets: list[list[SeriesPoint]], title: str, out: TextIO) -> None:
    """Several series in one file, blank-line separated, shared title."""
    out.write(f"TitleText: {title}\n")
    for i, series in enumerate(datasets):
        if i:
            out.write("\n")
        for p in series:
            out.write(f"{p.t:.6f} {p.value:.6f}\n")
