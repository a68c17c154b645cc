import io
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from manetsim import metrics
from manetsim.errors import LedgerConsistencyError, LedgerOrderError
from manetsim.metrics import (CONTROL_TX, DATA_TX, DROPPED, KINDS, RECEIVED, SENT,
                              THROUGHPUT_STEP, LedgerEvent, MetricsLedger, Series, SeriesPoint,
                              control_overhead, delay_series, delivery_ratio, emit_plot_datasets,
                              mean_value, parse_trace, run_series, throughput_series,
                              transmission_efficiency, write_trace)


def ev(t, kind, node=0, subkind="DATA", size=512, uid=1, src=0, dst=5):
    return LedgerEvent(t, kind, node, subkind, size, uid, src, dst)


def ledger_with(*events):
    led = MetricsLedger()
    for e in events:
        led.record(e)
    return led


# -- record -----------------------------------------------------------------

def test_sent_then_received_counts_one_delivery():
    led = ledger_with(ev(1.0, SENT), ev(1.1, RECEIVED, node=5))
    assert led.sent == 1 and led.received == 1


def test_received_for_unknown_uid_rejected():
    led = MetricsLedger()
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(1.0, RECEIVED, uid=99))


def test_control_tx_leaves_data_counters_alone():
    led = ledger_with(ev(1.0, CONTROL_TX, subkind="RREQ", size=24))
    assert led.control_tx == {"RREQ": 1}
    assert led.sent == 0 and led.data_tx == 0


def test_out_of_order_rejected():
    led = ledger_with(ev(2.0, SENT))
    with pytest.raises(LedgerOrderError):
        led.record(ev(1.0, SENT, uid=2))


def test_control_drop_must_reference_transmitted_control():
    led = MetricsLedger()
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(1.0, DROPPED, subkind="RREP", uid=7))
    led.record(ev(1.0, CONTROL_TX, subkind="RREP", uid=7))
    led.record(ev(1.1, DROPPED, subkind="RREP", uid=7))
    assert led.events[-1].subkind == "RREP" and led.dropped_data == 0


# -- delivery ratio ----------------------------------------------------------

def test_delivery_ratio_eight_of_ten():
    led = MetricsLedger()
    for uid in range(1, 11):
        led.record(ev(uid * 0.1, SENT, uid=uid))
    for uid in range(1, 9):
        led.record(ev(2.0 + uid * 0.1, RECEIVED, uid=uid, node=5))
    assert delivery_ratio(led) == pytest.approx(0.8)


def test_delivery_ratio_vacuous_without_traffic():
    assert delivery_ratio(MetricsLedger()) == 1.0


# -- transmission efficiency --------------------------------------------------

def test_efficiency_one_packet_three_hops():
    led = ledger_with(
        ev(1.0, SENT),
        ev(1.0, DATA_TX, node=0),
        ev(1.001, DATA_TX, node=1),
        ev(1.002, DATA_TX, node=2),
        ev(1.003, RECEIVED, node=5),
    )
    assert transmission_efficiency(led) == pytest.approx(1 / 3)


def test_efficiency_drop_after_two_hops_plus_two_hop_delivery():
    led = ledger_with(
        ev(1.0, SENT, uid=1),
        ev(1.0, DATA_TX, uid=1),
        ev(1.001, DATA_TX, uid=1),
        ev(1.002, DROPPED, uid=1, node=2),
        ev(2.0, SENT, uid=2),
        ev(2.0, DATA_TX, uid=2),
        ev(2.001, DATA_TX, uid=2),
        ev(2.002, RECEIVED, uid=2, node=5),
    )
    assert transmission_efficiency(led) == pytest.approx(1 / 4)


def test_efficiency_undefined_without_transmissions():
    assert transmission_efficiency(MetricsLedger()) is None


# -- throughput ----------------------------------------------------------------

def test_throughput_four_packets_in_half_second_window():
    led = MetricsLedger()
    for uid, t in enumerate([0.1, 0.2, 0.3, 0.4], start=1):
        led.record(ev(t, SENT, uid=uid))
        led.record(ev(t + 0.05, RECEIVED, uid=uid, node=5))
    pts = throughput_series(led, window=0.5, step=0.5, t_end=0.5)
    assert pts == [SeriesPoint(0.5, 4 * 512 * 8 / 0.5)]
    assert pts[0].value == 32768.0


def test_throughput_empty_window_is_zero():
    led = ledger_with(ev(0.1, SENT))
    pts = throughput_series(led, window=0.5, step=0.5, t_end=1.0)
    assert [p.value for p in pts] == [0.0, 0.0]


@pytest.mark.parametrize("window", [0.0, -0.5, math.nan, math.inf, -math.inf])
def test_a_window_that_is_not_positive_is_rejected(window):
    with pytest.raises(ValueError, match="window must be positive"):
        run_series(ledger_with(ev(1.0, SENT)), window=window)


def quadratic_throughput(ledger, window=0.5, step=0.1, t_end=None):
    """Oracle: the original rescan of every receive for each window position."""
    receives = [(e.t, e.size) for e in ledger.events if e.kind == RECEIVED]
    if t_end is None:
        t_end = ledger.events[-1].t if ledger.events else 0.0
    points = []
    k = 0
    while window + k * step <= t_end + 1e-9:
        t = window + k * step
        bits = sum(size * 8 for (rt, size) in receives if t - window < rt <= t)
        points.append(SeriesPoint(t, bits / window))
        k += 1
    return points


WINDOWS = (0.1, 0.3, 0.5, 0.7, 1.0, 2.5)
STEPS = (0.05, 0.1, 0.2, 0.25, 0.3)


@st.composite
def receive_ledgers(draw):
    """(ledger, window, step, t_end) with receives on and beside window edges."""
    window, step = draw(st.sampled_from(WINDOWS)), draw(st.sampled_from(STEPS))
    span = 6.0
    edge = st.integers(0, int(span / step)).map(lambda k: window + k * step)
    near = st.one_of(
        edge,                                             # a trailing edge t
        edge.map(lambda t: t - window),                   # the excluded leading edge
        st.integers(0, int(span / step)).map(lambda k: k * step),
        edge.map(lambda t: math.nextafter(t, math.inf)),
        edge.map(lambda t: math.nextafter(t - window, -math.inf)),
        st.floats(0.0, span, allow_nan=False))
    times = draw(st.lists(near, max_size=40))
    times += draw(st.lists(st.sampled_from(times), max_size=10)) if times else []
    led = MetricsLedger()
    for uid in range(1, len(times) + 1):
        led.record(ev(min(times), SENT, uid=uid))
    for uid, t in enumerate(sorted(times), start=1):
        led.record(ev(t, RECEIVED, node=5, uid=uid,
                      size=draw(st.integers(1, 1500))))
    t_end = draw(st.one_of(st.none(), edge, st.floats(0.0, span, allow_nan=False)))
    return led, window, step, t_end


@settings(max_examples=300, deadline=None)
@given(receive_ledgers())
def test_throughput_equals_the_quadratic_rescan(case):
    led, window, step, t_end = case
    assert throughput_series(led, window, step, t_end) == \
        quadratic_throughput(led, window, step, t_end)


# -- delay -----------------------------------------------------------------------

def test_delay_three_hops_one_ms_each():
    led = ledger_with(ev(1.0, SENT),
                      ev(1.003, RECEIVED, node=5))
    pts = delay_series(led)
    assert len(pts) == 1
    assert pts[0].value == pytest.approx(0.003)


def test_delay_includes_discovery_buffering():
    led = ledger_with(ev(1.0, SENT),
                      ev(1.052, RECEIVED, node=5))
    assert delay_series(led)[0].value == pytest.approx(0.052)


def test_delay_points_ordered_by_receive_time():
    led = ledger_with(
        ev(1.0, SENT, uid=1), ev(1.1, SENT, uid=2),
        ev(1.2, RECEIVED, uid=1, node=5),
        ev(1.25, RECEIVED, uid=2, node=5),
    )
    pts = delay_series(led)
    assert [p.t for p in pts] == [1.2, 1.25]


def test_delay_points_at_one_receive_time_ordered_by_delay():
    led = ledger_with(
        ev(1.0, SENT, uid=1), ev(1.1, SENT, uid=2),
        ev(1.2, RECEIVED, uid=1, node=5),
        ev(1.2, RECEIVED, uid=2, node=6),
    )
    assert [(p.t, p.value) for p in delay_series(led)] == [(1.2, 1.2 - 1.1),
                                                           (1.2, 1.2 - 1.0)]


# -- cumulative counts -------------------------------------------------------------

@pytest.mark.parametrize("kind, expected", [
    (RECEIVED, [SeriesPoint(1.2, 1), SeriesPoint(1.5, 3)]),
    (DROPPED, [SeriesPoint(1.3, 1)]),
])
def test_cumulative_series_counts_data_packets_once_per_time(kind, expected):
    led = ledger_with(ev(1.0, SENT, uid=1), ev(1.0, SENT, uid=2), ev(1.1, SENT, uid=3),
                      ev(1.1, SENT, uid=4), ev(1.2, RECEIVED, uid=1, node=5),
                      ev(1.3, CONTROL_TX, subkind="RREQ", size=24, uid=9),
                      ev(1.3, DROPPED, uid=4, node=2),
                      ev(1.4, DROPPED, subkind="RREQ", size=24, uid=9, node=3),   # not data
                      ev(1.5, RECEIVED, uid=2, node=5), ev(1.5, RECEIVED, uid=3, node=5))
    assert metrics.cumulative_series(led, kind) == expected


# -- control overhead ---------------------------------------------------------------

def test_control_overhead_counts_by_subkind():
    led = ledger_with(
        ev(1.0, CONTROL_TX, subkind="RREQ", uid=1),
        ev(1.1, CONTROL_TX, subkind="RREQ", uid=2),
        ev(1.2, CONTROL_TX, subkind="RREP", uid=3),
    )
    assert control_overhead(led) == {"RREP": 1, "RREQ": 2, "total": 3}


def test_control_overhead_empty():
    assert control_overhead(MetricsLedger()) == {"total": 0}


# -- means ---------------------------------------------------------------------------------

def test_mean_adds_left_to_right_on_every_python_version():
    """1e16 + 1.0 rounds back to 1e16, so the fold reads 0.0; the
    compensated sum() of Python 3.12 and later would read 1/3."""
    assert mean_value(Series((0.0, 1.0, 2.0), (1e16, 1.0, -1e16))) == 0.0
    assert mean_value(Series()) == 0.0


# -- plot emission -----------------------------------------------------------------------

def test_emit_plot_empty_series_header_only():
    buf = io.BytesIO()
    emit_plot_datasets([[]], "empty", buf)
    assert buf.getvalue().decode() == "TitleText: empty\n"


def test_emit_plot_two_points_in_order():
    buf = io.BytesIO()
    emit_plot_datasets([[SeriesPoint(1.0, 0.8), SeriesPoint(2.0, 0.6)]], "ratio", buf)
    assert buf.getvalue().decode() == ("TitleText: ratio\n"
                              "1.000000 0.800000\n"
                              "2.000000 0.600000\n")


def test_emit_plot_datasets_blank_line_separated():
    buf = io.BytesIO()
    emit_plot_datasets([[SeriesPoint(1.0, 1.0)], [SeriesPoint(1.0, 2.0)]],
                       "combined", buf)
    assert buf.getvalue().decode() == ("TitleText: combined\n"
                              "1.000000 1.000000\n"
                              "\n"
                              "1.000000 2.000000\n")


# -- persistence round-trip ---------------------------------------------------------------

def _busy_ledger():
    led = MetricsLedger()
    led.record(ev(1.000001, SENT, uid=1))
    led.record(ev(1.000001, CONTROL_TX, subkind="RREQ", size=24, uid=2, dst=-1))
    led.record(ev(1.001234, DATA_TX, uid=1))
    led.record(ev(1.00246, DATA_TX, uid=1, node=2))
    led.record(ev(1.003743, RECEIVED, uid=1, node=5))
    led.record(ev(2.5, SENT, uid=3))
    led.record(ev(2.601, DROPPED, uid=3, node=4))
    return led


def test_trace_round_trip_preserves_events_exactly():
    led = _busy_ledger()
    buf = io.BytesIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().decode().splitlines())
    assert reparsed.events == led.events


def test_series_recomputed_from_trace_bit_identical():
    led = _busy_ledger()
    buf = io.BytesIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().decode().splitlines())
    assert delay_series(reparsed) == delay_series(led)
    assert throughput_series(reparsed, 0.5, 0.1, 3.0) == throughput_series(led, 0.5, 0.1, 3.0)
    assert control_overhead(reparsed) == control_overhead(led)
    assert delivery_ratio(reparsed) == delivery_ratio(led)


def parse_with_line_3(line):
    """parse_trace over a good line, a blank one and `line`; the error must name line 3."""
    with pytest.raises(LedgerConsistencyError, match=r"^line 3: "):
        parse_trace(["s 5.000000 0 DATA 512 1 0 5", "", line, "s 1.000000 0 DATA 512 3 0 5"])


@pytest.mark.parametrize("line", ["s 5.5 0 DATA 512 2 0", "s 5.5 0 DATA 512 2 0 5 9",
                                  "s  5.5 0 DATA 512 2 0 5"])
def test_parse_trace_rejects_a_line_without_eight_fields(line):
    parse_with_line_3(line)


@pytest.mark.parametrize("line", ["s five 0 DATA 512 2 0 5", "s 5.5 x DATA 512 2 0 5",
                                  "s 5.5 0 DATA 1.5 2 0 5", "s 5.5 0 DATA 512 2 0 -"])
def test_parse_trace_rejects_a_field_that_is_not_a_number(line):
    parse_with_line_3(line)


@pytest.mark.parametrize("kind", ["x", "S", "sent", "EventKind.SENT"])
def test_parse_trace_rejects_an_unknown_kind_letter(kind):
    parse_with_line_3(f"{kind} 5.5 0 DATA 512 2 0 5")


@pytest.mark.parametrize("subkind", ["X-LOCAL", "data", "DSDV_UPDATE", "MessageKind.DATA"])
def test_parse_trace_rejects_a_subkind_outside_the_message_kinds(subkind):
    """Such a subkind has no packed code; it was once kept in a chunk of rows."""
    parse_with_line_3(f"c 5.5 0 {subkind} 24 2 0 -1")
    with pytest.raises(LedgerConsistencyError, match=f"unknown subkind '{subkind}'"):
        parse_trace([f"c 5.5 0 {subkind} 24 2 0 -1"])


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e400"])
def test_parse_trace_rejects_a_time_that_is_not_finite(t):
    """A nan time once passed, and switched the order check off for every later row."""
    parse_with_line_3(f"s {t} 0 DATA 512 2 0 5")


@pytest.mark.parametrize("line, error", [
    ("s 4.000000 0 DATA 512 2 0 5", LedgerOrderError),
    ("s 5.000000 0 DATA 512 1 0 5", LedgerConsistencyError),     # uid 1 sent twice
    ("r 5.000000 5 DATA 512 2 0 5", LedgerConsistencyError),     # uid 2 never sent
    ("d 5.000000 3 DATA 512 2 0 5", LedgerConsistencyError),     # uid 2 never sent
], ids=["out-of-order", "duplicate-sent-uid", "unknown-received-uid", "unknown-dropped-uid"])
def test_parse_trace_names_the_line_of_a_row_the_ledger_refuses(line, error):
    with pytest.raises(error, match=r"^line 3: "):
        parse_trace(["s 5.000000 0 DATA 512 1 0 5", "", line])


OLD_TRACE_FMT = "{kind} {t:.6f} {node} {subkind} {size} {uid} {src} {dst}\n"
SUBKINDS = ("DATA", "RREQ", "RREP", "RERR", "HELLO", "DSDV-UPDATE")
# the pairs record() takes: DATA on s, r and f, a control kind on c, any message kind on d
TAKEN = sorted((kind, subkind) for kind in KINDS for subkind in SUBKINDS
               if kind == DROPPED or (subkind == "DATA") != (kind == CONTROL_TX))

trace_times = st.one_of(
    st.just(0.0),
    st.integers(0, 10**9).map(lambda j: j / 128),           # odd j: 7th decimal an exact tie
    st.integers(0, 10**7).map(lambda n: n / 1e6 + 5e-7),    # ties as written in decimal
    st.floats(0.0, 1e20, allow_nan=False),                  # up to very large times
)
ints = st.integers(-1, 2**40)


@settings(max_examples=500, deadline=None)
@given(trace_times, st.sampled_from(TAKEN), ints, ints, ints, ints, ints)
def test_trace_row_equals_the_str_format_row(t, pair, node, size, uid, src, dst):
    kind, subkind = pair
    e = LedgerEvent(t, kind, node, subkind, size, uid, src, dst)
    led = MetricsLedger()
    if kind in (RECEIVED, DROPPED):     # first the row whose uid record() checks it against
        led.record(ev(0.0, CONTROL_TX if kind == DROPPED and subkind != "DATA" else SENT,
                      subkind=subkind, uid=uid))
    led.record(e)
    buf = io.BytesIO()
    write_trace(led, buf)
    assert buf.getvalue().decode().splitlines(keepends=True)[-1] == OLD_TRACE_FMT.format(
        kind=kind, t=t, node=node, subkind=subkind, size=size, uid=uid,
        src=src, dst=dst)


@st.composite
def consistent_rows(draw, ints=ints, span=st.just(10**8),
                    control_subkinds=st.sampled_from(SUBKINDS[1:])):
    """Rows record() accepts, in order, at microsecond times as the engine
    quantizes, up to `span` microseconds."""
    times = sorted(draw(st.lists(st.integers(0, draw(span)), max_size=60)))
    rows = []
    data, control = [], []
    for uid, us in enumerate(times, start=1):
        t = us / 1e6
        step = draw(st.sampled_from(("send", "control", "data", "receive", "drop")))
        if step == "control":
            subkind = draw(control_subkinds)
            if control and draw(st.booleans()):
                rows.append(ev(t, DROPPED, subkind=subkind, dst=-1,
                               uid=draw(st.sampled_from(control))))
            else:
                control.append(uid)
                rows.append(ev(t, CONTROL_TX, subkind=subkind, size=draw(ints),
                               uid=uid, dst=-1))
        elif step == "send" or not data:
            data.append(uid)
            rows.append(ev(t, SENT, node=draw(ints), uid=uid))
        else:
            kind = {"data": DATA_TX, "receive": RECEIVED,
                    "drop": DROPPED}[step]
            rows.append(ev(t, kind, node=draw(ints), uid=draw(st.sampled_from(data)),
                           size=draw(ints), src=draw(ints), dst=draw(ints)))
    return rows


def consistent_ledgers():
    return consistent_rows().map(lambda rows: ledger_with(*rows))


@settings(max_examples=200, deadline=None)
@given(consistent_ledgers())
def test_record_counters_equal_a_recount_of_the_rows(led):
    def recount(kind, data=None):
        return sum(1 for e in led.events if e.kind == kind
                   and data in (None, e.subkind == "DATA"))
    control = Counter(e.subkind for e in led.events
                      if e.kind == CONTROL_TX)
    assert (led.sent, led.received, led.dropped_data, led.data_tx, led.control_tx) == \
        (recount(SENT), recount(RECEIVED),
         recount(DROPPED, True), recount(DATA_TX), dict(control))


@settings(max_examples=200, deadline=None)
@given(consistent_ledgers())
def test_parse_trace_reproduces_the_written_ledger(led):
    buf = io.BytesIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().decode().splitlines())
    assert reparsed.events == led.events
    assert (reparsed.sent, reparsed.received, reparsed.dropped_data,
            reparsed.data_tx, reparsed.control_tx) == \
        (led.sent, led.received, led.dropped_data, led.data_tx, led.control_tx)


# -- packed chunks ------------------------------------------------------------------

def row_at_a_time_outputs(rows, window, t_end):
    """The trace and the three plot files of a list of rows, derived one row at a
    time and one walk per series, as a ledger that kept every row derived them."""
    trace = "".join(OLD_TRACE_FMT.format(kind=e.kind, t=e.t, node=e.node,
                                         subkind=e.subkind, size=e.size, uid=e.uid,
                                         src=e.src, dst=e.dst) for e in rows)

    def cumulative(kind):
        points, count = [], 0
        for e in rows:
            if e.kind == kind and e.subkind == "DATA":
                count += 1
                if points and points[-1].t == e.t:
                    points[-1] = SeriesPoint(e.t, count)
                else:
                    points.append(SeriesPoint(e.t, count))
        return points

    sent_at = {e.uid: e.t for e in rows if e.kind == SENT}
    delay = [SeriesPoint(*p) for p in sorted((e.t, e.t - sent_at[e.uid]) for e in rows
                                             if e.kind == RECEIVED)]
    tput = quadratic_throughput(SimpleNamespace(events=rows), window, THROUGHPUT_STEP, t_end)

    def plot(datasets):
        return "TitleText: t\n" + "\n".join(
            "".join(f"{p.t:.6f} {p.value:.6f}\n" for p in points) for points in datasets)

    return trace, [plot([cumulative(RECEIVED), cumulative(DROPPED)]),
                   plot([tput]), plot([delay])], tuple(
        sum(p.value for p in points) / len(points) if points else 0.0
        for points in (tput, delay))


# node, size, uid, src and dst values: mostly small, some wider than an `i` column
mixed_ints = st.one_of(st.integers(-1, 50), st.integers(-1, 2**40), st.just(10**30))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), consistent_rows(mixed_ints, st.sampled_from([300, 10**7])),
       st.sampled_from(WINDOWS), st.one_of(st.none(), st.floats(0.0, 12.0)))
def test_any_chunk_size_streams_the_rows_and_outputs_of_every_int_column(chunk, rows, window,
                                                                         t_end):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", chunk)
        led = ledger_with(*rows)
    assert list(led.rows()) == rows
    assert led.events == rows and all(type(e) is LedgerEvent for e in led.events)
    buf = io.BytesIO()
    write_trace(led, buf)
    series = run_series(led, window, t_end=t_end)
    plots = []
    for datasets in ([series.received, series.dropped], [series.throughput], [series.delay]):
        out = io.BytesIO()
        emit_plot_datasets(datasets, "t", out)
        plots.append(out.getvalue().decode())
    assert (buf.getvalue().decode(), plots, (mean_value(series.throughput), mean_value(series.delay))) \
        == row_at_a_time_outputs(rows, window, t_end)


@pytest.mark.parametrize("kind", ["x", "sx", "S"])
def test_record_rejects_a_kind_outside_kinds_and_stores_nothing(kind):
    """Such a row was once stored, counted nowhere and written as a trace
    line that parse_trace refuses."""
    led = ledger_with(ev(1.0, SENT))
    with pytest.raises(LedgerConsistencyError, match="unknown kind"):
        led.record(ev(1.1, kind, uid=2))
    assert led.events == [ev(1.0, SENT)] and led.sent == 1
    led.record(ev(1.05, RECEIVED, node=5))    # the refused row moved no clock


def ledger_state(led):
    """Every row and counter of a ledger, and its uid map."""
    return (len(led), list(led.rows()), led.sent, led.received, led.dropped_data, led.data_tx,
            dict(led.control_tx), bytes(led._uid_map), dict(led._far_uids))


@pytest.mark.parametrize("subkind", [*SUBKINDS, "X-LOCAL"])
@pytest.mark.parametrize("kind", KINDS)
def test_record_takes_a_subkind_only_on_the_kinds_it_pairs_with(kind, subkind):
    """A refused row changes nothing, and a ledger with rows in its tail
    packs and reads as before; a taken row comes back from the trace.
    A subkind outside the message kinds was once kept, and lost the tail
    when it was packed."""
    setup = [ev(1.0, SENT, uid=1), ev(1.0, CONTROL_TX, subkind="RREQ", uid=2, dst=-1)]
    led, twin = ledger_with(*setup), ledger_with(*setup)
    uid = {SENT: 3, CONTROL_TX: 4, DROPPED: 1 if subkind == "DATA" else 2}.get(kind, 1)
    row = ev(2.0, kind, node=5, subkind=subkind, uid=uid)
    if (kind, subkind) in TAKEN:
        led.record(row)
        buf = io.BytesIO()
        write_trace(led, buf)
        assert list(parse_trace(buf.getvalue().decode().splitlines()).rows()) \
            == list(led.rows()) == [*setup, row]
    else:
        message = (f"kind '{kind}' does not take subkind '{subkind}'" if subkind in SUBKINDS
                   else f"unknown subkind '{subkind}'")
        with pytest.raises(LedgerConsistencyError, match=f"^{message}$"):
            led.record(row)
        assert ledger_state(led) == ledger_state(twin)
        parse_with_line_3(f"{kind} 5.5 5 {subkind} 512 {uid} 0 5")



@st.composite
def offered_rows(draw):
    """Rows of any kind and message kind, in time order: sends and control
    transmissions under fresh uids, other rows under an earlier row's uid."""
    rows, us = [], 0
    for uid in range(draw(st.integers(0, 40))):
        us += draw(st.sampled_from((0, 1, 250)))
        kind = draw(st.sampled_from(KINDS))
        if kind not in (SENT, CONTROL_TX) and uid:
            uid = draw(st.integers(0, uid - 1))
        rows.append(ev(us / 1e6, kind, subkind=draw(st.sampled_from(SUBKINDS)), uid=uid))
    return rows


def last_value(series):
    return series.values[-1] if len(series) else 0


@settings(max_examples=200, deadline=None)
@given(offered_rows())
def test_the_counters_equal_the_series_over_the_rows_record_takes(rows):
    """A receive of a control kind was once counted as a delivery that the
    received series and the throughput left out."""
    led = MetricsLedger()
    for row in rows:
        try:
            led.record(row)
        except LedgerConsistencyError:
            pass
    series = run_series(led)
    assert led.received == last_value(series.received) == len(series.delay)
    assert led.dropped_data == last_value(series.dropped)


def test_a_far_or_negative_uid_is_checked_without_a_map_entry():
    far = 2**40
    lines = [f"s 1.000000 0 DATA 512 {far} 0 5", f"r 1.500000 5 DATA 512 {far} 0 5",
             "c 1.600000 0 RREQ 24 -1 0 5", "d 1.700000 3 RREQ 24 -1 0 5"]
    tracemalloc.start()
    try:
        led = parse_trace(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (led.sent, led.received, led.control_tx) == (1, 1, {"RREQ": 1})
    assert delay_series(led) == [SeriesPoint(1.5, 0.5)]
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(2.0, SENT, uid=far))
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(2.0, RECEIVED, uid=-1))


def test_sparse_sends_keep_their_times_in_a_dict_not_a_long_array():
    """100 sends among 40,000 uids: an array to the largest sent uid would
    take 320 KB on top of the ~110 KB that one chunk's picked columns take
    at their peak, and the dict of their times a few KB."""
    led = MetricsLedger()
    for uid in range(20_000):
        led.record(ev(uid * 1e-4, CONTROL_TX, subkind="RREQ", size=24, uid=uid))
        if uid % 200 == 0:
            led.record(ev(uid * 1e-4, SENT, uid=20_000 + uid))
            led.record(ev(uid * 1e-4, RECEIVED, node=5, uid=20_000 + uid))
    tracemalloc.start()
    try:
        series = run_series(led)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.delay) == 100 and set(series.delay.values) == {0.0}
    assert peak < 192 * 1024


def test_dense_sends_keep_their_times_in_an_array_also_under_control_uids():
    """20,000 dense sends, each uid also transmitted as control and received
    once: run_series peaks near 1.9 MB with their times in an array, and
    near 3.4 MB with them in a dict."""
    led = MetricsLedger()
    for uid in range(20_000):
        led.record(ev(uid * 1e-4, SENT, uid=uid))
        led.record(ev(uid * 1e-4, CONTROL_TX, subkind="RREQ", size=24, uid=uid))
        led.record(ev(uid * 1e-4, RECEIVED, node=5, uid=uid))
    tracemalloc.start()
    try:
        series = run_series(led)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series.delay) == 20_000 and set(series.delay.values) == {0.0}
    assert peak < 2.5 * 2**20


def far_then_near_rows():
    """A SENT of uid 70,000 and a control transmission of uid 70,001 as the
    first rows, both beyond the uid map's reach then, and SENTs of uids
    1..65,536, over which the map grows past both."""
    yield ev(1.0, SENT, uid=70_000)
    yield ev(1.0, CONTROL_TX, subkind="RREQ", size=24, uid=70_001)
    for uid in range(1, 65_537):
        yield ev(1.0, SENT, uid=uid)


def test_a_far_uid_is_kept_when_the_map_grows_over_it():
    led = ledger_with(*far_then_near_rows())
    assert 70_001 < len(led._uid_map) and led._far_uids == {}
    led.record(ev(2.0, RECEIVED, node=5, uid=70_000))
    led.record(ev(2.0, DROPPED, subkind="RREQ", size=24, uid=70_001))
    assert (led.sent, led.received, led.control_tx) == (65_537, 1, {"RREQ": 1})
    with pytest.raises(LedgerConsistencyError, match="duplicate sent uid 70000"):
        led.record(ev(3.0, SENT, uid=70_000))
    assert delay_series(led) == [SeriesPoint(2.0, 1.0)]


def test_a_parsed_trace_keeps_a_far_uid_when_the_map_grows_over_it():
    out = io.BytesIO()
    write_trace(ledger_with(*far_then_near_rows()), out)
    lines = out.getvalue().decode().splitlines() + ["r 2.000000 5 DATA 512 70000 0 5",
                                           "d 2.000000 0 RREQ 24 70001 0 5"]
    led = parse_trace(lines)
    assert (led.sent, led.received, led.control_tx) == (65_537, 1, {"RREQ": 1})
    assert delay_series(led) == [SeriesPoint(2.0, 1.0)]
    with pytest.raises(LedgerConsistencyError,
                       match=f"line {len(lines) + 1}: duplicate sent uid 70000"):
        parse_trace(lines + ["s 3.000000 0 DATA 512 70000 0 5"])


@pytest.mark.parametrize("value", [ev(1.0, SENT), SeriesPoint(1.0, 2.0)],
                         ids=["LedgerEvent", "SeriesPoint"])
def test_rows_and_points_are_immutable(value):
    for name in type(value).__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_equal_rows_hash_equal():
    a, b = ev(1.0, DROPPED, subkind="RREQ"), ev(1.0, DROPPED, subkind="RREQ")
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, ev(1.0, DROPPED, subkind="RREP")}) == 2


def test_conservation_identity_on_hand_ledger():
    led = _busy_ledger()
    assert (led.sent, led.received, led.dropped_data) == (2, 1, 1)
    assert led.unresolved == 0
    assert led.lost == 1


def test_combined_two_scenario_throughput_file():
    # one file, one throughput dataset per scenario, blank-line separated
    from manetsim.scenario import builtin
    from manetsim.simulation import Simulation
    datasets = []
    for name in ("scenario1", "scenario2"):
        result = Simulation(builtin(name), "aodv", seed=1).run()
        datasets.append(throughput_series(result.ledger, 0.5, 0.1, 5.0))
    buf = io.BytesIO()
    emit_plot_datasets(datasets, "throughput by scenario", buf)
    body = buf.getvalue().decode().split("TitleText: throughput by scenario\n", 1)[1]
    blocks = body.split("\n\n")
    assert len(blocks) == 2
    assert len(blocks[0].strip().splitlines()) == len(datasets[0])
    assert len(blocks[1].strip().splitlines()) == len(datasets[1])
