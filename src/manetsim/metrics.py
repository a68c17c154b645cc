"""Append-only measurement ledger and every series derived from it.

All reported numbers are pure functions of the ledger, so a persisted
trace can be parsed back and must reproduce them bit-identically.

`record` takes a row as a tuple of LedgerEvent's fields (the simulator
passes plain tuples) and keeps it in a short tail list. Every CHUNK
rows the tail is packed into typed columns: `d` for the time, a str of
one-letter kind values, a str of one-character subkind codes and `i`
for the five ints, about 30 B a row against some 190 B for a kept
LedgerEvent. A chunk with a value that no column holds, such as a
packet size wider than 32 bits, is kept as rows. The uid checks read a
bytearray indexed by uid whose bits are the sent and the transmitted
control uids; a uid far beyond the row count, or a negative one, goes
to a dict instead. `rows()` streams the rows back in order, and
`events` builds a list of LedgerEvents from them, for tests.

The outputs stream from the columns: `write_trace` formats rows into
blocks of BLOCK lines, and `run_series` derives every series of the
plots and the report in one walk. A Series is two float columns; the
`*_series` functions are views that return SeriesPoint lists.

Code that runs once per row compares kinds against the member names
bound next to EventKind and reads a kind's code as `kind._value_`,
never through `EventKind.X` or `.value`, which are descriptor lookups
on CPython 3.11.
"""
from __future__ import annotations

import math
from array import array
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from struct import error as struct_error, pack
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import LedgerConsistencyError, LedgerOrderError

THROUGHPUT_STEP = 0.1   # seconds between sliding-window throughput points
CHUNK = 1024            # rows packed into columns at a time
BLOCK = 256             # output lines formatted and written at a time
TRACE_LINE = "%s %.6f %d %s %d %d %d %d\n"    # kind letter, then the fields from t on
UID_SLACK = 1 << 16     # uids the uid map may cover beyond twice the row count
SENT_UID, CONTROL_UID = 1, 2    # bits of a uid's byte in the uid map


class EventKind(Enum):
    SENT = "s"          # application-level origination, once per packet
    RECEIVED = "r"      # consumed at its destination
    DROPPED = "d"       # lost, with the subkind saying what was lost
    CONTROL_TX = "c"    # one protocol-message transmission
    DATA_TX = "f"       # one per-hop data-frame transmission


SENT, RECEIVED, DROPPED, CONTROL_TX, DATA_TX = EventKind
KIND_OF = {k._value_: k for k in EventKind}     # a packed kind letter -> its member


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


class _Codes(dict):
    """subkind -> its one-character code in a packed column, made on first use."""

    def __init__(self):
        super().__init__()
        self.names: dict[str, str] = {}     # code -> subkind

    def __missing__(self, subkind: str) -> str:
        code = self[subkind] = chr(len(self))
        self.names[code] = subkind
        return code


class MetricsLedger:
    """Single-writer event log with running counters."""

    def __init__(self):
        self._chunks: list[tuple | list[LedgerEvent]] = []  # packed columns, or rows
        self._tail: list[LedgerEvent] = []
        self._packed = 0                    # rows in _chunks
        self._last_t = -math.inf
        self._uid_map = bytearray()         # uid -> its SENT_UID and CONTROL_UID bits
        self._far_uids: dict[int, int] = {}     # the same for uids the map does not cover
        self._subkind_codes = _Codes()
        self.sent = 0
        self.received = 0
        self.dropped_data = 0
        self.data_tx = 0
        self.control_tx: dict[str, int] = {}

    def record(self, ev: LedgerEvent) -> None:
        t, kind, _, subkind, _, uid, _, _ = ev
        if t < self._last_t:
            raise LedgerOrderError(f"event at {t} after {self._last_t}")
        if kind is SENT:
            if self._mark(uid, SENT_UID) & SENT_UID:
                raise LedgerConsistencyError(f"duplicate sent uid {uid}")
            self.sent += 1
        elif kind is RECEIVED:
            if not self._uid_bits(uid) & SENT_UID:
                raise LedgerConsistencyError(f"received unknown uid {uid}")
            self.received += 1
        elif kind is DROPPED:
            if subkind == "DATA":
                if not self._uid_bits(uid) & SENT_UID:
                    raise LedgerConsistencyError(f"dropped unknown uid {uid}")
                self.dropped_data += 1
            elif not self._uid_bits(uid) & CONTROL_UID:
                raise LedgerConsistencyError(f"dropped unknown control uid {uid}")
        elif kind is CONTROL_TX:
            self._mark(uid, CONTROL_UID)
            self.control_tx[subkind] = self.control_tx.get(subkind, 0) + 1
        elif kind is DATA_TX:
            self.data_tx += 1
        self._last_t = t
        tail = self._tail
        tail.append(ev)
        if len(tail) >= CHUNK:
            self._pack()

    def _uid_bits(self, uid: int) -> int:
        uid_map = self._uid_map
        return uid_map[uid] if 0 <= uid < len(uid_map) else self._far_uids.get(uid, 0)

    def _mark(self, uid: int, bit: int) -> int:
        """Set one of uid's bits and return its bits from before.

        The map grows to cover a uid below twice the row count plus
        UID_SLACK, so it stays within a few bytes a row; any other uid,
        a negative one too, is kept in a dict."""
        uid_map = self._uid_map
        if not 0 <= uid < len(uid_map) and 0 <= uid < 2 * len(self) + UID_SLACK:
            uid_map.extend(bytes(max(uid + 1, 2 * len(uid_map)) - len(uid_map)))
        if 0 <= uid < len(uid_map):
            old = uid_map[uid]
            uid_map[uid] = old | bit
        else:
            old = self._far_uids.get(uid, 0)
            self._far_uids[uid] = old | bit
        return old

    def _pack(self) -> None:
        """Move the tail into one chunk of columns, or keep it as rows if a
        value fits no column."""
        rows, self._tail = self._tail, []
        t, kinds, node, subkinds, size, uid, src, dst = zip(*rows)
        ints = f"{len(rows)}i"
        try:
            chunk = (array("d", pack(f"{len(rows)}d", *t)),
                     "".join(map(attrgetter("_value_"), kinds)),
                     array("i", pack(ints, *node)),
                     "".join(map(self._subkind_codes.__getitem__, subkinds)),
                     array("i", pack(ints, *size)), array("i", pack(ints, *uid)),
                     array("i", pack(ints, *src)), array("i", pack(ints, *dst)))
        except struct_error:
            chunk = rows
        self._chunks.append(chunk)
        self._packed += len(rows)

    def _columns(self) -> Iterator[tuple]:
        """Per chunk, then the tail, its eight columns in field order, each
        kind as its letter and each subkind as itself."""
        names = self._subkind_codes.names
        for chunk in self._chunks:
            if type(chunk) is list:
                yield self._transpose(chunk)
            else:
                t, kinds, node, subkinds, size, uid, src, dst = chunk
                yield t, kinds, node, map(names.__getitem__, subkinds), size, uid, src, dst
        if self._tail:
            yield self._transpose(self._tail)

    @staticmethod
    def _transpose(rows: list[tuple]) -> tuple:
        t, kinds, *rest = zip(*rows)
        return (t, map(attrgetter("_value_"), kinds), *rest)

    def rows(self) -> Iterator[tuple]:
        """Every row in the order recorded, as a tuple of LedgerEvent's fields."""
        for t, kinds, *rest in self._columns():
            yield from zip(t, map(KIND_OF.__getitem__, kinds), *rest)

    @property
    def events(self) -> list[LedgerEvent]:
        """Every row as a LedgerEvent; builds them all, so for tests only."""
        return list(map(LedgerEvent._make, self.rows()))

    def __len__(self) -> int:
        return self._packed + len(self._tail)

    @property
    def last_t(self) -> float:
        """Time of the latest row; 0.0 for an empty ledger."""
        return self._last_t if len(self) else 0.0

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


class Series:
    """The points of one series as two float columns; iterates as (t, value)."""

    __slots__ = ("times", "values")

    def __init__(self):
        self.times = array("d")
        self.values = array("d")

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.times, self.values)

    def __len__(self) -> int:
        return len(self.times)

    def step(self, t: float, count: int) -> None:
        """A running count's point at t; replaces the last point if it is at t."""
        times = self.times
        if times and times[-1] == t:
            times[-1] = t
            self.values[-1] = count
        else:
            times.append(t)
            self.values.append(count)

    def points(self) -> list[SeriesPoint]:
        return list(map(SeriesPoint._make, self))


class RunSeries(NamedTuple):
    """Every series of a run's plots and report."""

    received: Series    # running count of delivered data packets
    dropped: Series     # running count of dropped data packets
    throughput: Series
    delay: Series


def run_series(ledger: MetricsLedger, window: float = 0.5,
               step: float = THROUGHPUT_STEP, t_end: float | None = None) -> RunSeries:
    """Every series of a run, from one walk over the ledger's rows.

    `received` and `dropped` hold one point per time at which a data
    packet was delivered or dropped: the running count after that time.
    `throughput` is the delivered payload bits per second over a
    sliding window, one point per window position at its trailing edge
    t, counting the receives at rt with t - window < rt <= t, up to
    t_end (the last row's time if None). Rows are time-ordered, so the
    walk settles each edge's running bit count as the first receive
    after it arrives. `delay` holds one point per delivered packet,
    (receive time, end-to-end delay), ordered by time and then delay.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if t_end is None:
        t_end = ledger.last_t
    ends: list[float] = []      # the trailing edge of each window
    k = 0
    while window + k * step <= t_end + 1e-9:
        ends.append(window + k * step)
        k += 1
    starts = [t - window for t in ends]
    bits_to_end: list[int] = []     # payload bits received at or before each edge
    bits_to_start: list[int] = []
    n_edges = len(ends)
    bits = n_received = n_dropped = 0
    out = RunSeries(Series(), Series(), Series(), Series())
    # the send time of each uid the ledger's uid map covers, at its index,
    # and of any other uid in a dict
    covered = len(ledger._uid_map)
    sent_at = array("d", bytes(8 * covered))
    far_sent_at: dict[int, float] = {}
    same_t: list[tuple[float, float]] = []  # (t, delay) of the receives at one time

    def flush_delays():
        same_t.sort()
        for t, delay in same_t:
            out.delay.times.append(t)
            out.delay.values.append(delay)
        same_t.clear()

    sent, received, dropped = SENT._value_, RECEIVED._value_, DROPPED._value_
    for t_col, kinds, _, subkinds, sizes, uids, _, _ in ledger._columns():
        for t, kind, subkind, size, uid in zip(t_col, kinds, subkinds, sizes, uids):
            if kind == sent:
                if 0 <= uid < covered:
                    sent_at[uid] = t
                else:
                    far_sent_at[uid] = t
            elif kind == received:
                while len(bits_to_end) < n_edges and ends[len(bits_to_end)] < t:
                    bits_to_end.append(bits)
                while len(bits_to_start) < n_edges and starts[len(bits_to_start)] < t:
                    bits_to_start.append(bits)
                bits += size * 8
                if same_t and t != same_t[0][0]:
                    flush_delays()
                same_t.append((t, t - (sent_at[uid] if 0 <= uid < covered
                                       else far_sent_at[uid])))
                if subkind == "DATA":
                    n_received += 1
                    out.received.step(t, n_received)
            elif kind == dropped and subkind == "DATA":
                n_dropped += 1
                out.dropped.step(t, n_dropped)
    flush_delays()
    bits_to_end += [bits] * (n_edges - len(bits_to_end))
    bits_to_start += [bits] * (n_edges - len(bits_to_start))
    out.throughput.times.extend(ends)
    out.throughput.values.extend([(hi - lo) / window
                                  for hi, lo in zip(bits_to_end, bits_to_start)])
    return out


def throughput_series(ledger: MetricsLedger, window: float = 0.5,
                      step: float = THROUGHPUT_STEP,
                      t_end: float | None = None) -> list[SeriesPoint]:
    """Delivered payload bits per second over a sliding window; see run_series."""
    return run_series(ledger, window, step, t_end).throughput.points()


def delay_series(ledger: MetricsLedger) -> list[SeriesPoint]:
    """One point per delivered packet: (receive time, end-to-end delay)."""
    return run_series(ledger).delay.points()


def cumulative_series(ledger: MetricsLedger, kind: EventKind) -> list[SeriesPoint]:
    """Running count of the delivered (RECEIVED) or dropped (DROPPED) data packets."""
    series = run_series(ledger)
    return {RECEIVED: series.received, DROPPED: series.dropped}[kind].points()


def control_overhead(ledger: MetricsLedger) -> dict[str, int]:
    """Transmission counts per control subkind plus a 'total' entry."""
    counts = dict(sorted(ledger.control_tx.items()))
    counts["total"] = sum(ledger.control_tx.values())
    return counts


def mean_value(series: Series) -> float:
    if not series:
        return 0.0
    return sum(series.values) / len(series)


# ---------------------------------------------------------------------------
# persistence: line-oriented trace, xgraph-style plot data

def _write_lines(out: TextIO, line: str, rows: Iterable[tuple], width: int) -> None:
    """Write `line % row` for each row of `width` fields, BLOCK rows to one
    format call and one write."""
    fields = chain.from_iterable(rows)
    while block := tuple(islice(fields, width * BLOCK)):
        out.write(line * (len(block) // width) % block)


def write_trace(ledger: MetricsLedger, out: TextIO) -> None:
    """One line per ledger row, streamed from the ledger's columns."""
    for t, kinds, node, subkinds, size, uid, src, dst in ledger._columns():
        _write_lines(out, TRACE_LINE, zip(kinds, t, node, subkinds, size, uid, src, dst), 8)


def parse_trace(lines: Iterable[str]) -> MetricsLedger:
    """Rebuild a ledger from its persisted trace."""
    ledger = MetricsLedger()
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        kind, t, node, subkind, size, uid, src, dst = raw.split(" ")
        ledger.record(LedgerEvent(float(t), KIND_OF[kind], int(node), subkind,
                                  int(size), int(uid), int(src), int(dst)))
    return ledger


def emit_plot_datasets(datasets: Iterable[Iterable[tuple[float, float]]], title: str,
                       out: TextIO) -> None:
    """Several series in one file, blank-line separated, shared title."""
    out.write(f"TitleText: {title}\n")
    for i, series in enumerate(datasets):
        if i:
            out.write("\n")
        _write_lines(out, "%.6f %.6f\n", series, 2)
