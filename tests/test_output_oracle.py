"""The output writers and the series against references written one row
or one point at a time.

`write_trace`, `emit_plot_datasets` and `run_series` work on whole
chunks: one `bytes` `%` per chunk of rows or of points, and columns picked with
`itertools.compress`. Each must give exactly what a loop over the rows
or the points gives, on the golden corpus and on ledgers built to hold
every form of int column: `h`, `i` and a tuple for a value wider than 32
bits, and a tail packed when it is read. `run_series` must also give,
bit for bit, what the chunk-wise store it replaced gives, which kept
every send time in one dict by uid.
"""
import io
import locale
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, compress, count, islice
from operator import eq, sub

import pytest
from hypothesis import given, settings, strategies as st

from manetsim import metrics
from manetsim.metrics import (CONTROL_TX, DATA_TX, DROPPED, RECEIVED, SENT, THROUGHPUT_STEP,
                              LedgerEvent, MetricsLedger, Series, emit_plot_datasets,
                              parse_trace, run_series, write_trace)
from manetsim.packets import DATA, MESSAGE_KINDS
from test_golden import CASES, WINDOW


TRACE_LINE = "%s %.6f %d %s %d %d %d %d\n"    # kind letter, then the fields from t on


def trace_reference(ledger) -> bytes:
    return "".join(TRACE_LINE % (r[1], r[0], *r[2:]) for r in ledger.rows()).encode()


def plot_reference(datasets, title) -> bytes:
    text = f"TitleText: {title}\n" + "\n".join(
        "".join("%.6f %.6f\n" % point for point in points) for points in datasets)
    return text.encode(locale.getpreferredencoding(False))


def reference_series(ledger, window=0.5, step=THROUGHPUT_STEP, t_end=None):
    """run_series as a loop over the rows: received, dropped, throughput and
    delay, each a list of (t, value) points."""
    if t_end is None:
        t_end = ledger.last_t
    received, dropped, receive_times, delays = [], [], [], []
    n_received = n_dropped = 0
    bits = [0]      # payload bits in the first i receives, at index i
    sent_at = {}

    def count_at(points, t, count):
        # a running count's point at t; replaces the last point if it is at t
        if points and points[-1][0] == t:
            points[-1] = (points[-1][0], count)
        else:
            points.append((t, count))

    for t, kind, _, subkind, size, uid, _, _ in ledger.rows():
        if kind == SENT:
            sent_at[uid] = t
        elif kind == RECEIVED:
            bits.append(bits[-1] + size * 8)
            insort(delays, t - sent_at[uid], bisect_left(receive_times, t))
            receive_times.append(t)
            if subkind == DATA:
                n_received += 1
                count_at(received, t, n_received)
        elif kind == DROPPED and subkind == DATA:
            n_dropped += 1
            count_at(dropped, t, n_dropped)
    throughput = []
    k = 0
    while (edge := window + k * step) <= t_end + 1e-9:
        throughput.append((edge, (bits[bisect_right(receive_times, edge)]
                                  - bits[bisect_right(receive_times, edge - window)]) / window))
        k += 1
    return [received, dropped, throughput, list(zip(receive_times, delays))]


def dict_store_series(ledger, window=0.5, step=THROUGHPUT_STEP, t_end=None):
    """run_series with every send time kept in one dict by uid, chunk by
    chunk as before the array store: received, dropped, throughput and
    delay, each a list of (t, value) points."""
    if t_end is None:
        t_end = ledger.last_t
    sent_at = {}
    r_times, delays, received, dropped = (array("d") for _ in range(4))
    payload = [0]
    for t, kinds, _, subkinds, sizes, uids, _, _ in ledger.chunks():
        kinds, is_data = kinds.encode(), subkinds.encode().translate(metrics.IS_DATA)
        pick = kinds.translate(metrics.PICK[SENT])
        sent_at.update(zip(compress(uids, pick), compress(t, pick)))
        pick = kinds.translate(metrics.PICK[RECEIVED])
        n = len(r_times)
        r_times.extend(compress(t, pick))
        delays.extend(map(sub, r_times[n:], map(sent_at.__getitem__, compress(uids, pick))))
        received.extend(compress(r_times[n:], compress(is_data, pick)))
        payload[-1:] = accumulate(compress(sizes, pick), initial=payload[-1])
        pick = kinds.translate(metrics.PICK[DROPPED])
        dropped.extend(compress(compress(t, pick), compress(is_data, pick)))
    end = 0
    for i in compress(count(1), map(eq, islice(r_times, 1, None), r_times)):
        if i >= end:
            end = bisect_right(r_times, r_times[i], i)
            delays[i - 1:end] = array("d", sorted(delays[i - 1:end]))
    throughput, k = [], 0
    while (edge := window + k * step) <= t_end + 1e-9:
        throughput.append((edge, (payload[bisect_right(r_times, edge)]
                                  - payload[bisect_right(r_times, edge - window)]) * 8 / window))
        k += 1

    def running_count(times):
        last = [a != b for a, b in zip(times, times[1:])] + [True] * bool(times)
        firsts = [True] + last
        return [(x, float(c)) for x, c in zip(compress(times, firsts), compress(count(1), last))]

    return [running_count(received), running_count(dropped), throughput,
            list(zip(r_times, delays))]


def hexed(points):
    return [(t.hex(), float(value).hex()) for t, value in points]


def written(writer, *args) -> bytes:
    out = io.BytesIO()
    writer(*args, out)
    return out.getvalue()


def assert_outputs_match_the_references(ledger, window, t_end, title):
    assert written(write_trace, ledger) == trace_reference(ledger)
    series = run_series(ledger, window, t_end=t_end)
    assert [list(s) for s in series] == reference_series(ledger, window, t_end=t_end)
    for datasets in ([series.received, series.dropped], [series.throughput], [series.delay]):
        assert written(emit_plot_datasets, datasets, title) == plot_reference(datasets, title)


@pytest.fixture(scope="module")
def corpus():
    return {case: CASES[case]().run() for case in sorted(CASES)}


def test_the_golden_corpus_matches_the_references(corpus):
    for case, sim in corpus.items():
        assert_outputs_match_the_references(sim.ledger, WINDOW, sim.spec.end_time,
                                            f"delay: {case} {sim.protocol}")


def test_a_plot_longer_than_a_chunk_matches_the_reference():
    points = [(k / 7, k * 1e-3) for k in range(3 * metrics.CHUNK + 5)]
    datasets = [points, points[:metrics.CHUNK], []]
    assert written(emit_plot_datasets, datasets, "t") == plot_reference(datasets, "t")


class Discard:
    def write(self, data):
        return len(data)


def test_a_plot_formats_a_chunk_of_points_at_a_time():
    """A tuple of all 100,000 floats of these 50,000 points would take over
    3 MB; the writer holds one chunk's fields and its bytes."""
    series = Series(array("d", range(50_000)), array("d", range(50_000)))
    tracemalloc.start()
    try:
        emit_plot_datasets([series], "t", Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def mixed_chunk_lines():
    """A trace of three chunks and a tail: `h` columns, a tuple of sizes
    for a 2**40-byte packet, an `i` column of uids, and a tail of four rows
    with a tuple of sizes and one of uids."""
    chunk = metrics.CHUNK
    lines = [f"s {uid / 1e4:.6f} 0 DATA 512 {uid} 0 5" for uid in range(1, chunk + 1)]
    lines.append(f"s 0.200000 1 DATA {2**40} {chunk + 1} 1 4")
    lines += [f"r 0.200000 5 DATA 512 {uid} 0 5" for uid in range(1, chunk)]
    lines.append("c 0.300000 2 RREQ 24 70000 2 -1")
    lines += [f"f 0.300000 2 DATA 512 {chunk} 0 5"] * (chunk - 1)
    lines += ["d 0.400000 2 RREQ 24 70000 2 -1", f"r 0.400000 4 DATA {2**40} {chunk + 1} 1 4",
              f"c 0.400000 3 HELLO 24 {2**40} 3 -1", f"d 0.400000 3 DATA 512 {chunk} 0 5"]
    return lines


def int_forms(chunk):
    """The typecode of each of a chunk's five int columns, or tuple."""
    return [getattr(column, "typecode", type(column)) for column in chunk[2:3] + chunk[4:]]


def test_a_ledger_of_every_chunk_form_matches_the_references():
    ledger = parse_trace(mixed_chunk_lines())
    assert len(ledger) == 3 * metrics.CHUNK + 4
    assert list(map(int_forms, ledger.chunks())) == [
        ["h", "h", "h", "h", "h"], ["h", tuple, "h", "h", "h"], ["h", "h", "i", "h", "h"],
        ["h", tuple, tuple, "h", "h"]]
    assert_outputs_match_the_references(ledger, 0.05, None, "délai: ünï")
    assert written(write_trace, ledger) == "".join(f"{line}\n" for line in
                                                   mixed_chunk_lines()).encode()


# small uids, negative ones, uids far beyond the row count and one no
# packed column holds
uids = st.one_of(st.integers(-3, 40), st.integers(2**31, 2**40), st.just(10**30))
sizes = st.one_of(st.integers(0, 1500), st.just(2**40))
CONTROL_SUBKINDS = MESSAGE_KINDS[1:]


@st.composite
def ledger_rows(draw):
    """Rows record() accepts, at times that often repeat: sends under
    distinct uids, DATA receives, forwards and drops, and control
    transmissions and their drops."""
    rows, sent, control = [], [], []
    us = 0
    for _ in range(draw(st.integers(0, 60))):
        us += draw(st.sampled_from((0, 0, 1, 250)))
        t = us / 1e6
        step = draw(st.sampled_from(("send", "control", "forward", "receive", "drop")))
        uid = draw(uids)
        if step == "control":
            if control and draw(st.booleans()):
                rows.append(LedgerEvent(t, DROPPED, 1, draw(st.sampled_from(CONTROL_SUBKINDS)),
                                        24, draw(st.sampled_from(control)), 1, -1))
            else:
                control.append(uid)
                rows.append(LedgerEvent(t, CONTROL_TX, 1, draw(st.sampled_from(CONTROL_SUBKINDS)),
                                        24, uid, 1, -1))
        elif step == "send" or not sent:
            if uid in sent:
                rows.append(LedgerEvent(t, DATA_TX, 0, DATA, draw(sizes), uid, 0, 5))
            else:
                sent.append(uid)
                rows.append(LedgerEvent(t, SENT, 0, DATA, draw(sizes), uid, 0, 5))
        else:
            kind = {"forward": DATA_TX, "drop": DROPPED, "receive": RECEIVED}[step]
            rows.append(LedgerEvent(t, kind, 2, DATA, draw(sizes), draw(st.sampled_from(sent)),
                                    0, 5))
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), ledger_rows(), st.sampled_from([0.0005, 0.002, 0.5]),
       st.one_of(st.none(), st.floats(0.0, 0.05)))
def test_run_series_equals_the_row_loop(chunk, rows, window, t_end):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", chunk)
        ledger = MetricsLedger()
        for row in rows:
            ledger.record(row)
    assert list(ledger.rows()) == rows
    assert_outputs_match_the_references(ledger, window, t_end, "t")


READS = {"chunks": MetricsLedger.chunks,
         "write_trace": lambda ledger: write_trace(ledger, Discard()),
         "run_series": run_series}


def read_once_at_the_end(ledger, window):
    return (len(ledger), list(ledger.rows()), written(write_trace, ledger),
            [hexed(series) for series in run_series(ledger, window)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), ledger_rows(), st.sampled_from([0.0005, 0.5]), st.data())
def test_reads_between_records_change_no_row_and_no_output(chunk, rows, window, data):
    """Each read packs the tail into a chunk of its own, so a ledger read
    between its records holds shorter chunks than one read once at the end."""
    reads = data.draw(st.lists(st.one_of(st.none(), st.sampled_from(sorted(READS))),
                               min_size=len(rows), max_size=len(rows)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", chunk)
        read, once = MetricsLedger(), MetricsLedger()
        for row, between in zip(rows, reads):
            if between:
                READS[between](read)
            read.record(row)
            once.record(row)
    assert read_once_at_the_end(read, window) == read_once_at_the_end(once, window)


@st.composite
def sent_time_ledgers(draw):
    """Rows record() accepts, for the sent-time store: sends under dense
    uids, under uids near and far beyond the uid map's reach and under
    negative ones, receives that may repeat a uid, control transmissions
    under a sent uid, and sizes and node ids that pack as `h`, as `i` or,
    over 32 bits, as a tuple."""
    rows, sent, dense, us = [], [], 0, 0
    for _ in range(draw(st.integers(0, 80))):
        us += draw(st.sampled_from((0, 1, 250, 40_000)))
        t = us / 1e6
        size = draw(st.sampled_from((512, 40_000, 2**33)))
        node = draw(st.sampled_from((0, 3, 70_000)))
        step = draw(st.sampled_from(("send", "send", "receive", "receive", "drop", "forward",
                                     "control")))
        if step == "send" or not sent:
            uid = draw(st.one_of(st.just(None), st.integers(0, 70_000), st.integers(2**17, 2**40),
                                 st.integers(-2**40, -1)))
            if uid is None or uid in sent:
                while dense in sent:
                    dense += 1
                uid = dense
            sent.append(uid)
            rows.append(LedgerEvent(t, SENT, node, DATA, size, uid, 0, 5))
        elif step == "control":
            rows.append(LedgerEvent(t, CONTROL_TX, node, "RREQ", 24, draw(st.sampled_from(sent)),
                                    node, -1))
        else:
            kind = {"receive": RECEIVED, "drop": DROPPED, "forward": DATA_TX}[step]
            rows.append(LedgerEvent(t, kind, node, DATA, size, draw(st.sampled_from(sent)), 0, 5))
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), sent_time_ledgers(), st.sampled_from([0.0005, 0.5]),
       st.one_of(st.none(), st.floats(0.0, 0.5)))
def test_run_series_equals_the_dict_store_bit_for_bit(chunk, rows, window, t_end):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", chunk)
        ledger = MetricsLedger()
        for row in rows:
            ledger.record(row)
    expected = dict_store_series(ledger, window, t_end=t_end)
    assert [hexed(series) for series in run_series(ledger, window, t_end=t_end)] \
        == list(map(hexed, expected))


def test_the_sent_time_ledgers_cover_every_store_and_column():
    """Ledgers of the strategy's kinds, three rows a chunk. The first two
    chunks alone send only dense uids, the largest also a control uid, so
    their send times fit an array; the whole ledger adds near, far and
    negative uids, which put them in a dict, a uid received twice, and
    chunks whose widest int column is a tuple or `i` after those of `h`
    columns, the last of them the tail, packed when it is read."""
    def row(t, kind, uid, size=512, node=0):
        return LedgerEvent(t, kind, node, "RREQ" if kind is CONTROL_TX else DATA, size, uid, 0, 5)

    rows = [row(0.0, SENT, 0), row(0.1, SENT, 1), row(0.2, SENT, 2),
            row(0.3, CONTROL_TX, 2), row(0.4, RECEIVED, 0), row(0.5, RECEIVED, 1),
            row(0.6, SENT, -5, size=2**33), row(0.7, RECEIVED, 1), row(0.8, RECEIVED, 2),
            row(0.9, SENT, 60_000, node=70_000), row(1.0, SENT, 2**20), row(1.1, RECEIVED, 60_000),
            row(1.2, RECEIVED, 2**20), row(1.3, RECEIVED, -5)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", 3)
        dense, ledger = MetricsLedger(), MetricsLedger()
        for r in rows[:6]:
            dense.record(r)
        for r in rows:
            ledger.record(r)
    widest = [max(int_forms(chunk), key=["h", "i", tuple].index) for chunk in ledger.chunks()]
    assert widest == ["h", "h", tuple, "i", "i"]
    assert ledger._uid_map[2] == 3 and ledger._far_uids.keys() == {2**20, -5}
    for led in (dense, ledger):
        expected = dict_store_series(led)
        assert [hexed(series) for series in run_series(led)] == list(map(hexed, expected))
    sent = {r.uid: r.t for r in rows if r.kind is SENT}
    assert list(run_series(ledger).delay.values) \
        == [r.t - sent[r.uid] for r in rows if r.kind is RECEIVED]
