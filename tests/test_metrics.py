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
                              THROUGHPUT_STEP, LedgerEvent, MetricsLedger, SeriesPoint,
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


# -- plot emission -----------------------------------------------------------------------

def test_emit_plot_empty_series_header_only():
    buf = io.StringIO()
    emit_plot_datasets([[]], "empty", buf)
    assert buf.getvalue() == "TitleText: empty\n"


def test_emit_plot_two_points_in_order():
    buf = io.StringIO()
    emit_plot_datasets([[SeriesPoint(1.0, 0.8), SeriesPoint(2.0, 0.6)]], "ratio", buf)
    assert buf.getvalue() == ("TitleText: ratio\n"
                              "1.000000 0.800000\n"
                              "2.000000 0.600000\n")


def test_emit_plot_datasets_blank_line_separated():
    buf = io.StringIO()
    emit_plot_datasets([[SeriesPoint(1.0, 1.0)], [SeriesPoint(1.0, 2.0)]],
                       "combined", buf)
    assert buf.getvalue() == ("TitleText: combined\n"
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
    buf = io.StringIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().splitlines())
    assert reparsed.events == led.events


def test_series_recomputed_from_trace_bit_identical():
    led = _busy_ledger()
    buf = io.StringIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().splitlines())
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


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e400"])
def test_parse_trace_rejects_a_time_that_is_not_finite(t):
    """A nan time once passed, and switched the order check off for every later row."""
    parse_with_line_3(f"s {t} 0 DATA 512 2 0 5")


OLD_TRACE_FMT = "{kind} {t:.6f} {node} {subkind} {size} {uid} {src} {dst}\n"
SUBKINDS = ("DATA", "RREQ", "RREP", "RERR", "HELLO", "DSDV-UPDATE")

trace_times = st.one_of(
    st.just(0.0),
    st.integers(0, 10**9).map(lambda j: j / 128),           # odd j: 7th decimal an exact tie
    st.integers(0, 10**7).map(lambda n: n / 1e6 + 5e-7),    # ties as written in decimal
    st.floats(0.0, 1e20, allow_nan=False),                  # up to very large times
)
ints = st.integers(-1, 2**40)


@settings(max_examples=500, deadline=None)
@given(trace_times, st.sampled_from(KINDS), ints, st.sampled_from(SUBKINDS),
       ints, ints, ints, ints)
def test_trace_row_equals_the_str_format_row(t, kind, node, subkind, size, uid, src, dst):
    e = LedgerEvent(t, kind, node, subkind, size, uid, src, dst)
    led = MetricsLedger()
    led._tail.append(e)         # one row, packed if it fits; record() would check uids
    led._pack()
    buf = io.StringIO()
    write_trace(led, buf)
    assert buf.getvalue() == OLD_TRACE_FMT.format(
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
    buf = io.StringIO()
    write_trace(led, buf)
    reparsed = parse_trace(buf.getvalue().splitlines())
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


# node, size, uid, src and dst values: mostly small, some wider than a packed column
mixed_ints = st.one_of(st.integers(-1, 50), st.integers(-1, 2**40), st.just(10**30))
# control subkinds: the message kinds, and one outside them that keeps its chunk as rows
mixed_subkinds = st.sampled_from(SUBKINDS[1:] + ("X-LOCAL",))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), consistent_rows(mixed_ints, st.sampled_from([300, 10**7]),
                                          mixed_subkinds),
       st.sampled_from(WINDOWS), st.one_of(st.none(), st.floats(0.0, 12.0)))
def test_any_chunk_size_streams_the_rows_and_outputs_of_a_row_list(chunk, rows, window,
                                                                   t_end):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CHUNK", chunk)
        led = ledger_with(*rows)
    assert list(led.rows()) == rows
    assert led.events == rows and all(type(e) is LedgerEvent for e in led.events)
    buf = io.StringIO()
    write_trace(led, buf)
    series = run_series(led, window, t_end=t_end)
    plots = []
    for datasets in ([series.received, series.dropped], [series.throughput], [series.delay]):
        out = io.StringIO()
        emit_plot_datasets(datasets, "t", out)
        plots.append(out.getvalue())
    assert (buf.getvalue(), plots, (mean_value(series.throughput), mean_value(series.delay))) \
        == row_at_a_time_outputs(rows, window, t_end)


def test_a_kind_that_is_not_one_letter_keeps_its_chunk_as_rows(monkeypatch):
    """Packed kinds are one str of letters; a longer kind would shift the rows after it."""
    monkeypatch.setattr(metrics, "CHUNK", 3)
    rows = [ev(1.0, SENT), ev(1.1, "sx", uid=2), ev(1.2, RECEIVED, node=5)]
    led = ledger_with(*rows)
    assert led._chunks == [rows] and led.events == rows


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
    buf = io.StringIO()
    emit_plot_datasets(datasets, "throughput by scenario", buf)
    body = buf.getvalue().split("TitleText: throughput by scenario\n", 1)[1]
    blocks = body.split("\n\n")
    assert len(blocks) == 2
    assert len(blocks[0].strip().splitlines()) == len(datasets[0])
    assert len(blocks[1].strip().splitlines()) == len(datasets[1])
