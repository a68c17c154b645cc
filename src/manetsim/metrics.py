"""Append-only measurement ledger and every series derived from it.

All reported numbers are pure functions of the ledger, so a persisted
trace can be parsed back and must reproduce them bit-identically.

A row is a tuple of LedgerEvent's fields. Its kind is one of the
letters below and its subkind a message kind: the strings the trace
prints, held as the same strings in memory and in the packed columns.
`record` compares kinds by identity, so a row's kind is one of these
constants. It keeps rows in a short tail list, and every CHUNK rows
packs the tail into typed columns: `d` for the time, a str of the kind
letters, a str of one-character subkind codes and `i` for the five
ints, about 30 B a row against some 190 B for a kept LedgerEvent. A
chunk with a value that fits no column, such as a packet size wider
than 32 bits, stays rows. The uid checks read a bytearray indexed by
uid whose bits are the sent and the transmitted control uids; a uid
far beyond the row count, or a negative one, goes to a dict instead.

The outputs stream from the columns: `write_trace` formats rows into
blocks of BLOCK lines, and `run_series` derives every series of the
plots and the report in one walk.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import chain, islice
from struct import error as struct_error, pack
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import LedgerConsistencyError, LedgerOrderError
from .packets import DATA, MESSAGE_KINDS

THROUGHPUT_STEP = 0.1   # seconds between sliding-window throughput points
CHUNK = 1024            # rows packed into columns at a time
BLOCK = 256             # output lines formatted and written at a time
TRACE_LINE = "%s %.6f %d %s %d %d %d %d\n"    # kind letter, then the fields from t on
UID_SLACK = 1 << 16     # uids the uid map may cover beyond twice the row count
SENT_UID, CONTROL_UID = 1, 2    # bits of a uid's byte in the uid map

SENT = "s"          # application-level origination, once per packet
RECEIVED = "r"      # consumed at its destination
DROPPED = "d"       # lost, with the subkind saying what was lost
CONTROL_TX = "c"    # one protocol-message transmission
DATA_TX = "f"       # one per-hop data-frame transmission
KINDS = (SENT, RECEIVED, DROPPED, CONTROL_TX, DATA_TX)
SUBKIND_CODE = {k: chr(i) for i, k in enumerate(MESSAGE_KINDS)}  # subkind -> packed code
SUBKIND_OF = {code: subkind for subkind, code in SUBKIND_CODE.items()}


class LedgerEvent(NamedTuple):
    t: float
    kind: str           # one of KINDS
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
        self._chunks: list[tuple | list[LedgerEvent]] = []  # packed columns, or rows
        self._tail: list[LedgerEvent] = []
        self._packed = 0                    # rows in _chunks
        self._last_t = -math.inf
        self._uid_map = bytearray()         # uid -> its SENT_UID and CONTROL_UID bits
        self._far_uids: dict[int, int] = {}     # the same for uids the map does not cover
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
            if subkind == DATA:
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
        value fits no column: a kind that is not one letter, a subkind that
        is not a message kind or an int wider than 32 bits."""
        rows, self._tail = self._tail, []
        t, kinds, node, subkinds, size, uid, src, dst = zip(*rows)
        kinds = "".join(kinds)
        ints = f"{len(rows)}i"
        try:
            chunk = (array("d", pack(f"{len(rows)}d", *t)), kinds, array("i", pack(ints, *node)),
                     "".join(map(SUBKIND_CODE.__getitem__, subkinds)),
                     array("i", pack(ints, *size)), array("i", pack(ints, *uid)),
                     array("i", pack(ints, *src)), array("i", pack(ints, *dst)))
        except (KeyError, struct_error):
            chunk = rows
        self._chunks.append(chunk if len(kinds) == len(rows) else rows)
        self._packed += len(rows)

    def _columns(self) -> Iterator[tuple]:
        """Per chunk, then the tail, its eight columns in field order."""
        for chunk in self._chunks:
            if type(chunk) is list:
                yield zip(*chunk)
            else:
                t, kinds, node, subkinds, size, uid, src, dst = chunk
                yield t, kinds, node, map(SUBKIND_OF.__getitem__, subkinds), size, uid, src, dst
        if self._tail:
            yield zip(*self._tail)

    def rows(self) -> Iterator[tuple]:
        """Every row in the order recorded, as a tuple of LedgerEvent's fields."""
        for columns in self._columns():
            yield from zip(*columns)

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
    `delay` holds one point per delivered packet, (receive time,
    end-to-end delay), ordered by time and then delay. `throughput` is
    the delivered payload bits per second over a sliding window, one
    point per window position at its trailing edge t, counting the
    receives at rt with t - window < rt <= t, up to t_end (the last
    row's time if None): the running sum of received bits up to t,
    less the running sum up to t - window, each found by bisecting the
    delay series' receive times.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if t_end is None:
        t_end = ledger.last_t
    n_received = n_dropped = 0
    bits = [0]      # payload bits in the first i receives, at index i
    out = RunSeries(Series(), Series(), Series(), Series())
    receive_times, delays = out.delay.times, out.delay.values
    # the send time of each uid the ledger's uid map covers, at its index,
    # and of any other uid in a dict
    covered = len(ledger._uid_map)
    sent_at = array("d", bytes(8 * covered))
    far_sent_at: dict[int, float] = {}
    for t_col, kinds, _, subkinds, sizes, uids, _, _ in ledger._columns():
        for t, kind, subkind, size, uid in zip(t_col, kinds, subkinds, sizes, uids):
            if kind == SENT:
                if 0 <= uid < covered:
                    sent_at[uid] = t
                else:
                    far_sent_at[uid] = t
            elif kind == RECEIVED:
                bits.append(bits[-1] + size * 8)
                # every point from bisect_left on is at t, so the delay goes
                # in sorted place among them
                insort(delays, t - (sent_at[uid] if 0 <= uid < covered else far_sent_at[uid]),
                       bisect_left(receive_times, t))
                receive_times.append(t)
                if subkind == DATA:
                    n_received += 1
                    out.received.step(t, n_received)
            elif kind == DROPPED and subkind == DATA:
                n_dropped += 1
                out.dropped.step(t, n_dropped)
    k = 0
    while (edge := window + k * step) <= t_end + 1e-9:
        out.throughput.times.append(edge)
        out.throughput.values.append((bits[bisect_right(receive_times, edge)]
                                      - bits[bisect_right(receive_times, edge - window)])
                                     / window)
        k += 1
    return out


def throughput_series(ledger: MetricsLedger, window: float = 0.5,
                      step: float = THROUGHPUT_STEP,
                      t_end: float | None = None) -> list[SeriesPoint]:
    """Delivered payload bits per second over a sliding window; see run_series."""
    return run_series(ledger, window, step, t_end).throughput.points()


def delay_series(ledger: MetricsLedger) -> list[SeriesPoint]:
    """One point per delivered packet: (receive time, end-to-end delay)."""
    return run_series(ledger).delay.points()


def cumulative_series(ledger: MetricsLedger, kind: str) -> list[SeriesPoint]:
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
    """Rebuild a ledger from its persisted trace.

    A line without eight fields, with an unknown kind letter, a field
    that is not a number or a time that is not finite raises
    LedgerConsistencyError naming the line."""
    ledger = MetricsLedger()
    kinds = dict(zip(KINDS, KINDS))     # a letter -> the kind constant itself
    for lineno, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        fields = raw.split(" ")
        if len(fields) != 8:
            raise LedgerConsistencyError(f"line {lineno}: {len(fields)} fields, not 8")
        kind, t, node, subkind, size, uid, src, dst = fields
        if kind not in kinds:
            raise LedgerConsistencyError(f"line {lineno}: unknown kind {kind!r}")
        try:
            row = (float(t), kinds[kind], int(node), subkind, int(size), int(uid), int(src),
                   int(dst))
        except ValueError:
            raise LedgerConsistencyError(f"line {lineno}: a field is not a number") from None
        if not math.isfinite(row[0]):
            raise LedgerConsistencyError(f"line {lineno}: time {t} is not finite")
        ledger.record(row)
    return ledger


def emit_plot_datasets(datasets: Iterable[Iterable[tuple[float, float]]], title: str,
                       out: TextIO) -> None:
    """Several series in one file, blank-line separated, shared title."""
    out.write(f"TitleText: {title}\n")
    for i, series in enumerate(datasets):
        if i:
            out.write("\n")
        _write_lines(out, "%.6f %.6f\n", series, 2)
