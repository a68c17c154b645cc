"""Append-only measurement ledger and every series derived from it.

All reported numbers are pure functions of the ledger, so a persisted
trace can be parsed back and must reproduce them bit-identically.

A row is a tuple of LedgerEvent's fields. Its kind is one of the letters
below and its subkind a message kind, the strings the trace prints: DATA
for an `s`, `r` or `f` row, a control kind for a `c` row, either for a
`d` row. `record`, the one check of a row, refuses any other row before
it changes anything and compares kinds by identity, so a row's kind is
one of these constants; a subkind is packed as its code in
the one fixed SUBKIND_CODE table. The ledger keeps rows in a short tail
list, and every CHUNK rows packs the tail into one chunk of columns: `d`
for the time, a str of the kind letters, a str of subkind codes and, for
each of the five ints, `h` if every value of the chunk fits 16 bits, `i`
if every one fits 32 bits, and else a tuple of the values, as for a
packet size wider than 32 bits; so 20 to 30 B a row against some 190 B
for a kept LedgerEvent. Every chunk has this one form: `chunks()` packs
a non-empty tail before it returns them, so each reader walks columns
alone, and a ledger that has been read keeps no row as a tuple. The uid
checks read a bytearray indexed by uid whose bits are the sent and the
transmitted control uids; a uid far beyond the row count, or a negative
one, goes to a dict instead, until the map grows over it. With the map,
a run whose ids and sizes are under 2**15 holds about 22 B of traced
memory a row (tests/test_simulation.py pins 26 B on a static CBR run).

The outputs are written as bytes, one `%` per chunk of rows or of plot
points, and `run_series` picks the sent, received and dropped rows of
each chunk with `itertools.compress`, with no loop over the rows in
Python. It keeps the send times in a float array indexed by uid, 8 B a
send where the sends are dense, or in a dict if any sent uid lies past
the array's reach: a negative one, one the uid map does not cover, or
one past SLOTS_PER_SEND slots a send.
"""
from __future__ import annotations

import locale
import math
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, itemgetter, ne, setitem, sub
from struct import error as struct_error, pack
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .errors import LedgerConsistencyError, LedgerOrderError
from .packets import DATA, MESSAGE_KINDS

THROUGHPUT_STEP = 0.1   # seconds between sliding-window throughput points
WINDOW_RULE = "window must be positive and finite"     # of the throughput window
CHUNK = 1024            # rows packed into columns at a time
TRACE_BYTES = b"%c %.6f %d %s %d %d %d %d\n"  # kind letter, then the fields from t on
UID_SLACK = 1 << 16     # uids the uid map may cover beyond twice the row count
SENT_UID, CONTROL_UID = 1, 2    # bits of a uid's byte in the uid map
SLOTS_PER_SEND = 8      # run_series' sent-time array covers at most this many uids a send

SENT = "s"          # application-level origination, once per packet
RECEIVED = "r"      # consumed at its destination
DROPPED = "d"       # lost, with the subkind saying what was lost
CONTROL_TX = "c"    # one protocol-message transmission
DATA_TX = "f"       # one per-hop data-frame transmission
KINDS = (SENT, RECEIVED, DROPPED, CONTROL_TX, DATA_TX)
CONTROL_KINDS = frozenset(MESSAGE_KINDS) - {DATA}   # the subkinds of a CONTROL_TX row
SUBKIND_CODE = {k: chr(i) for i, k in enumerate(MESSAGE_KINDS)}  # subkind -> packed code
SUBKIND_BYTES = [k.encode() for k in MESSAGE_KINDS]    # a packed code's ord -> subkind
# translate tables: a kind letter -> 1 for one kind, a packed subkind code -> 1 for DATA
PICK = {kind: bytes(i == ord(kind) for i in range(256)) for kind in KINDS}
IS_DATA = bytes(i == ord(SUBKIND_CODE[DATA]) for i in range(256))


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


def _int_column(values: tuple[int, ...]) -> array | tuple[int, ...]:
    """The narrowest of `h` and `i` that holds every value, else the values."""
    for code in "hi":
        try:
            return array(code, pack(f"{len(values)}{code}", *values))
        except struct_error:
            pass
    return values


def _subkind_error(kind: str, subkind: str) -> LedgerConsistencyError:
    return LedgerConsistencyError(f"unknown subkind {subkind!r}" if subkind not in SUBKIND_CODE
                                  else f"kind {kind!r} does not take subkind {subkind!r}")


class MetricsLedger:
    """Single-writer event log with running counters."""

    def __init__(self):
        self._chunks: list[tuple] = []      # each a chunk of columns; see chunks()
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
        # the kinds in order of how often a run records them, each checking its subkind
        # before it changes anything; _mark and _uid_bits are written out for a uid the map covers
        if kind is CONTROL_TX:
            if subkind not in CONTROL_KINDS:
                raise _subkind_error(kind, subkind)
            uid_map = self._uid_map
            if 0 <= uid < len(uid_map):
                uid_map[uid] |= CONTROL_UID
            else:
                self._mark(uid, CONTROL_UID)
            self.control_tx[subkind] = self.control_tx.get(subkind, 0) + 1
        elif kind is DATA_TX:
            if subkind != DATA:
                raise _subkind_error(kind, subkind)
            self.data_tx += 1
        elif kind is SENT:
            if subkind != DATA:
                raise _subkind_error(kind, subkind)
            uid_map = self._uid_map
            if 0 <= uid < len(uid_map):
                old = uid_map[uid]
                uid_map[uid] = old | SENT_UID
            else:
                old = self._mark(uid, SENT_UID)
            if old & SENT_UID:
                raise LedgerConsistencyError(f"duplicate sent uid {uid}")
            self.sent += 1
        elif kind is RECEIVED:
            if subkind != DATA:
                raise _subkind_error(kind, subkind)
            uid_map = self._uid_map
            if not (uid_map[uid] if 0 <= uid < len(uid_map) else self._uid_bits(uid)) & SENT_UID:
                raise LedgerConsistencyError(f"received unknown uid {uid}")
            self.received += 1
        elif kind is DROPPED:
            if subkind == DATA:
                if not self._uid_bits(uid) & SENT_UID:
                    raise LedgerConsistencyError(f"dropped unknown uid {uid}")
                self.dropped_data += 1
            elif subkind not in CONTROL_KINDS:
                raise _subkind_error(kind, subkind)
            elif not self._uid_bits(uid) & CONTROL_UID:
                raise LedgerConsistencyError(f"dropped unknown control uid {uid}")
        else:
            raise LedgerConsistencyError(f"unknown kind {kind!r}")
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
        a negative one too, is kept in a dict until the map grows over it."""
        uid_map = self._uid_map
        if not 0 <= uid < len(uid_map) and 0 <= uid < 2 * len(self) + UID_SLACK:
            uid_map.extend(bytes(max(uid + 1, 2 * len(uid_map)) - len(uid_map)))
            far = self._far_uids
            for covered in [u for u in far if 0 <= u < len(uid_map)]:
                uid_map[covered] = far.pop(covered)
        if 0 <= uid < len(uid_map):
            old = uid_map[uid]
            uid_map[uid] = old | bit
        else:
            old = self._far_uids.get(uid, 0)
            self._far_uids[uid] = old | bit
        return old

    def _pack(self) -> None:
        """Move the tail into one chunk of columns."""
        rows, self._tail = self._tail, []
        t, kinds, node, subkinds, size, uid, src, dst = zip(*rows)
        self._chunks.append((array("d", pack(f"{len(rows)}d", *t)), "".join(kinds),
                             _int_column(node), "".join(map(SUBKIND_CODE.__getitem__, subkinds)),
                             _int_column(size), _int_column(uid), _int_column(src),
                             _int_column(dst)))
        self._packed += len(rows)

    def chunks(self) -> list[tuple]:
        """Every row, in chunks of columns in the order recorded, after packing
        a non-empty tail. A chunk is (t, kinds, node, subkinds, size, uid,
        src, dst): a `d` array, a str of kind letters, a str of SUBKIND_CODE
        codes, and for each int an `h` or `i` array or a tuple."""
        if self._tail:
            self._pack()
        return self._chunks

    def rows(self) -> Iterator[tuple]:
        """Every row in the order recorded, as a tuple of LedgerEvent's fields."""
        for t, kinds, node, subkinds, size, uid, src, dst in self.chunks():
            yield from zip(t, kinds, node, map(MESSAGE_KINDS.__getitem__, subkinds.encode()),
                           size, uid, src, dst)

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

    def __init__(self, times: Iterable[float] = (), values: Iterable[float] = ()):
        self.times = array("d", times)
        self.values = array("d", values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.times, self.values)

    def __len__(self) -> int:
        return len(self.times)

    def points(self) -> list[SeriesPoint]:
        return list(map(SeriesPoint._make, self))


class RunSeries(NamedTuple):
    """Every series of a run's plots and report."""

    received: Series    # running count of delivered data packets
    dropped: Series     # running count of dropped data packets
    throughput: Series
    delay: Series


def _running_count(times: array) -> Series:
    """A running count's points: each distinct time of a nondecreasing array
    of times, at its first index, and the count at its last index."""
    last = bytes(map(ne, islice(times, 1, None), times)) + b"\1"[:len(times)]
    return Series(compress(times, b"\1" + last), compress(count(1), last))


def valid_window(window: float) -> bool:
    """Whether a throughput window holds WINDOW_RULE."""
    return 0 < window < math.inf


def run_series(ledger: MetricsLedger, window: float = 0.5,
               step: float = THROUGHPUT_STEP, t_end: float | None = None) -> RunSeries:
    """Every series of a run, from the sent, received and dropped rows that
    `compress` picks from each chunk's columns.

    `received` and `dropped` count the delivered and the dropped data
    packets, one point per time at which a count grew. `delay` has one point
    per delivered packet, (receive time, end-to-end delay), ordered by time
    and then delay. `throughput` is the delivered payload bits per second
    over a sliding window, one point per position of its trailing edge t up
    to t_end (the last row's time if None): the bits received up to t less
    those up to t - window, found by bisecting the receive times.
    """
    if not valid_window(window):
        raise ValueError(WINDOW_RULE)
    if t_end is None:
        t_end = ledger.last_t
    # send time by uid: in an array sized to the largest uid sent if every
    # sent uid is below `cap`, else in a dict. The cap is the uid map's reach,
    # at most SLOTS_PER_SEND slots a send, so the array at 8 B a slot never
    # costs more than the dict's ~100 B an entry; the map's SENT_UID bits say
    # where the sends are.
    uid_map, marks = ledger._uid_map, (bytes([SENT_UID]), bytes([SENT_UID | CONTROL_UID]))
    cap = min(len(uid_map), SLOTS_PER_SEND * ledger.sent)
    if sum(uid_map.count(m, 0, cap) for m in marks) == ledger.sent:
        sent_at = array("d", [0.0]) * (max(uid_map.rfind(m, 0, cap) for m in marks) + 1)
    else:
        sent_at = {}
    # receive times and delays (every receive is of DATA) and the DATA drops' times
    r_times, delays, dropped = (array("d") for _ in range(3))
    payload = [0]       # payload bytes in the first i receives, at index i
    for t, kinds, _, subkinds, sizes, uids, _, _ in ledger.chunks():
        kinds, is_data = kinds.encode(), subkinds.encode().translate(IS_DATA)
        pick = kinds.translate(PICK[SENT])
        any(map(setitem, repeat(sent_at), compress(uids, pick), compress(t, pick)))
        pick = kinds.translate(PICK[RECEIVED])
        n = len(r_times)
        r_times.extend(compress(t, pick))
        sent = compress(uids, pick)
        if len(r_times) - n > 1:    # itemgetter of one uid returns a bare float
            sent = itemgetter(*sent)(sent_at)
        else:
            sent = map(sent_at.__getitem__, sent)
        delays.extend(map(sub, r_times[n:], sent))
        # the chunk's running sums replace the last one, which they start from
        payload[-1:] = accumulate(compress(sizes, pick), initial=payload[-1])
        pick = kinds.translate(PICK[DROPPED])
        dropped.extend(compress(compress(t, pick), compress(is_data, pick)))
    # receive times never decrease: sort the delays of each run of equal ones
    end = 0
    for i in compress(count(1), map(eq, islice(r_times, 1, None), r_times)):
        if i >= end:
            end = bisect_right(r_times, r_times[i], i)
            delays[i - 1:end] = array("d", sorted(delays[i - 1:end]))
    throughput, k = Series(), 0
    while (edge := window + k * step) <= t_end + 1e-9:
        throughput.times.append(edge)
        throughput.values.append((payload[bisect_right(r_times, edge)]
                                  - payload[bisect_right(r_times, edge - window)]) * 8 / window)
        k += 1
    delay = Series()
    delay.times, delay.values = r_times, delays     # handed over, not copied
    return RunSeries(_running_count(r_times), _running_count(dropped), throughput, delay)


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
    """Added left to right: sum() of floats is compensated from Python 3.12 on."""
    if not series:
        return 0.0
    return reduce(add, series.values, 0.0) / len(series)


# ---------------------------------------------------------------------------
# persistence: line-oriented trace, xgraph-style plot data

def write_trace(ledger: MetricsLedger, out: BinaryIO) -> None:
    """One line per ledger row, each chunk formatted from its columns by one
    bytes `%` and written at once."""
    for t, kinds, node, subkinds, size, uid, src, dst in ledger.chunks():
        out.write(TRACE_BYTES * len(t) % tuple(chain.from_iterable(zip(
            kinds.encode(), t, node, map(SUBKIND_BYTES.__getitem__, subkinds.encode()),
            size, uid, src, dst))))


def parse_trace(lines: Iterable[str]) -> MetricsLedger:
    """Rebuild a ledger from its persisted trace.

    A line without eight fields, a field that is not a number or a time
    that is not finite raises LedgerConsistencyError naming the line. Any
    other line goes to `record`, and its error for a row it refuses, such
    as an unknown kind or a subkind the kind does not take, names it too."""
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
        try:
            row = (float(t), kinds.get(kind, kind), int(node), subkind, int(size), int(uid),
                   int(src), int(dst))
            if not math.isfinite(row[0]):
                raise LedgerConsistencyError(f"time {t} is not finite")
            ledger.record(row)
        except ValueError:
            raise LedgerConsistencyError(f"line {lineno}: a field is not a number") from None
        except (LedgerOrderError, LedgerConsistencyError) as e:
            raise type(e)(f"line {lineno}: {e}") from None
    return ledger


def emit_plot_datasets(datasets: Iterable[Iterable[tuple[float, float]]], title: str,
                       out: BinaryIO) -> None:
    """Several series in one file, blank-line separated, shared title. The
    title is encoded as a file opened in text mode encodes it."""
    out.write(f"TitleText: {title}\n".encode(locale.getpreferredencoding(False)))
    for i, series in enumerate(datasets):
        if i:
            out.write(b"\n")
        points = iter(series)
        while fields := tuple(chain.from_iterable(islice(points, CHUNK))):
            out.write(b"%.6f %.6f\n" * (len(fields) // 2) % fields)
