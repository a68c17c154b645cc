"""The output writers and the series against references written one row
or one point at a time.

`write_trace`, `emit_plot_datasets` and `run_series` work on whole
chunks: one `bytes` `%` per chunk or dataset, and columns picked with
`itertools.compress`. Each must give exactly what a loop over the rows
or the points gives, on the golden corpus and on ledgers built to hold
every kind of chunk: packed columns, rows kept for a value no column
holds, and the unpacked tail.
"""
import io
import locale
from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st

from manetsim import metrics
from manetsim.metrics import (CONTROL_TX, DATA_TX, DROPPED, RECEIVED, SENT, THROUGHPUT_STEP,
                              TRACE_LINE, LedgerEvent, MetricsLedger, emit_plot_datasets,
                              parse_trace, run_series, write_trace)
from manetsim.packets import DATA, MESSAGE_KINDS
from test_golden import CASES, WINDOW


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


def mixed_chunk_lines():
    """A trace of three chunks and a tail: packed columns, rows for a
    2**40-byte packet, rows for a subkind outside MESSAGE_KINDS."""
    chunk = metrics.CHUNK
    lines = [f"s {uid / 1e4:.6f} 0 DATA 512 {uid} 0 5" for uid in range(1, chunk + 1)]
    lines.append(f"s 0.200000 1 DATA {2**40} {chunk + 1} 1 4")
    lines += [f"r 0.200000 5 DATA 512 {uid} 0 5" for uid in range(1, chunk)]
    lines.append("c 0.300000 2 X-LOCAL 24 -7 2 -1")
    lines += [f"f 0.300000 2 DATA 512 {chunk} 0 5"] * (chunk - 1)
    lines += ["d 0.400000 2 X-LOCAL 24 -7 2 -1", f"r 0.400000 4 DATA {2**40} {chunk + 1} 1 4",
              f"d 0.400000 3 DATA 512 {chunk} 0 5"]
    return lines


def test_a_ledger_of_every_chunk_form_matches_the_references():
    ledger = parse_trace(mixed_chunk_lines())
    assert [type(chunk) is list for chunk in ledger._chunks] == [False, True, True]
    assert len(ledger._tail) == 3 and "X-LOCAL" not in MESSAGE_KINDS
    assert_outputs_match_the_references(ledger, 0.05, None, "délai: ünï")
    assert written(write_trace, ledger) == "".join(f"{line}\n" for line in
                                                   mixed_chunk_lines()).encode()


# small uids, negative ones, uids far beyond the row count and one no
# packed column holds
uids = st.one_of(st.integers(-3, 40), st.integers(2**31, 2**40), st.just(10**30))
sizes = st.one_of(st.integers(0, 1500), st.just(2**40))
CONTROL_SUBKINDS = MESSAGE_KINDS[1:] + ("X-LOCAL",)


@st.composite
def ledger_rows(draw):
    """Rows record() accepts, at times that often repeat: sends under
    distinct uids, receives under any message kind, DATA drops, and
    control transmissions and their drops."""
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
            kind, subkind = {"forward": (DATA_TX, DATA), "drop": (DROPPED, DATA),
                             "receive": (RECEIVED, draw(st.sampled_from(MESSAGE_KINDS)))}[step]
            rows.append(LedgerEvent(t, kind, 2, subkind, draw(sizes),
                                    draw(st.sampled_from(sent)), 0, 5))
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
