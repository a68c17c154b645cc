import io

import pytest

from manetsim.errors import LedgerConsistencyError, LedgerOrderError, NoTransmissionsError
from manetsim.metrics import (EventKind, LedgerEvent, MetricsLedger, SeriesPoint,
                              control_overhead, delay_series, delivery_ratio,
                              emit_plot_datasets, parse_trace, throughput_series,
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
    led = ledger_with(ev(1.0, EventKind.SENT), ev(1.1, EventKind.RECEIVED, node=5))
    assert led.sent == 1 and led.received == 1


def test_received_for_unknown_uid_rejected():
    led = MetricsLedger()
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(1.0, EventKind.RECEIVED, uid=99))


def test_control_tx_leaves_data_counters_alone():
    led = ledger_with(ev(1.0, EventKind.CONTROL_TX, subkind="RREQ", size=24))
    assert led.control_tx == {"RREQ": 1}
    assert led.sent == 0 and led.data_tx == 0


def test_out_of_order_rejected():
    led = ledger_with(ev(2.0, EventKind.SENT))
    with pytest.raises(LedgerOrderError):
        led.record(ev(1.0, EventKind.SENT, uid=2))


def test_control_drop_must_reference_transmitted_control():
    led = MetricsLedger()
    with pytest.raises(LedgerConsistencyError):
        led.record(ev(1.0, EventKind.DROPPED, subkind="RREP", uid=7))
    led.record(ev(1.0, EventKind.CONTROL_TX, subkind="RREP", uid=7))
    led.record(ev(1.1, EventKind.DROPPED, subkind="RREP", uid=7))
    assert led.dropped_control == 1


# -- delivery ratio ----------------------------------------------------------

def test_delivery_ratio_eight_of_ten():
    led = MetricsLedger()
    for uid in range(1, 11):
        led.record(ev(uid * 0.1, EventKind.SENT, uid=uid))
    for uid in range(1, 9):
        led.record(ev(2.0 + uid * 0.1, EventKind.RECEIVED, uid=uid, node=5))
    assert delivery_ratio(led) == pytest.approx(0.8)


def test_delivery_ratio_vacuous_without_traffic():
    assert delivery_ratio(MetricsLedger()) == 1.0


# -- transmission efficiency --------------------------------------------------

def test_efficiency_one_packet_three_hops():
    led = ledger_with(
        ev(1.0, EventKind.SENT),
        ev(1.0, EventKind.DATA_TX, node=0),
        ev(1.001, EventKind.DATA_TX, node=1),
        ev(1.002, EventKind.DATA_TX, node=2),
        ev(1.003, EventKind.RECEIVED, node=5),
    )
    assert transmission_efficiency(led) == pytest.approx(1 / 3)


def test_efficiency_drop_after_two_hops_plus_two_hop_delivery():
    led = ledger_with(
        ev(1.0, EventKind.SENT, uid=1),
        ev(1.0, EventKind.DATA_TX, uid=1),
        ev(1.001, EventKind.DATA_TX, uid=1),
        ev(1.002, EventKind.DROPPED, uid=1, node=2),
        ev(2.0, EventKind.SENT, uid=2),
        ev(2.0, EventKind.DATA_TX, uid=2),
        ev(2.001, EventKind.DATA_TX, uid=2),
        ev(2.002, EventKind.RECEIVED, uid=2, node=5),
    )
    assert transmission_efficiency(led) == pytest.approx(1 / 4)


def test_efficiency_undefined_without_transmissions():
    with pytest.raises(NoTransmissionsError):
        transmission_efficiency(MetricsLedger())


# -- throughput ----------------------------------------------------------------

def test_throughput_four_packets_in_half_second_window():
    led = MetricsLedger()
    for uid, t in enumerate([0.1, 0.2, 0.3, 0.4], start=1):
        led.record(ev(t, EventKind.SENT, uid=uid))
        led.record(ev(t + 0.05, EventKind.RECEIVED, uid=uid, node=5))
    pts = throughput_series(led, window=0.5, step=0.5, t_end=0.5)
    assert pts == [SeriesPoint(0.5, 4 * 512 * 8 / 0.5)]
    assert pts[0].value == 32768.0


def test_throughput_empty_window_is_zero():
    led = ledger_with(ev(0.1, EventKind.SENT))
    pts = throughput_series(led, window=0.5, step=0.5, t_end=1.0)
    assert [p.value for p in pts] == [0.0, 0.0]


# -- delay -----------------------------------------------------------------------

def test_delay_three_hops_one_ms_each():
    led = ledger_with(ev(1.0, EventKind.SENT),
                      ev(1.003, EventKind.RECEIVED, node=5))
    pts = delay_series(led)
    assert len(pts) == 1
    assert pts[0].value == pytest.approx(0.003)


def test_delay_includes_discovery_buffering():
    led = ledger_with(ev(1.0, EventKind.SENT),
                      ev(1.052, EventKind.RECEIVED, node=5))
    assert delay_series(led)[0].value == pytest.approx(0.052)


def test_delay_points_ordered_by_receive_time():
    led = ledger_with(
        ev(1.0, EventKind.SENT, uid=1), ev(1.1, EventKind.SENT, uid=2),
        ev(1.2, EventKind.RECEIVED, uid=1, node=5),
        ev(1.25, EventKind.RECEIVED, uid=2, node=5),
    )
    pts = delay_series(led)
    assert [p.t for p in pts] == [1.2, 1.25]


# -- control overhead ---------------------------------------------------------------

def test_control_overhead_counts_by_subkind():
    led = ledger_with(
        ev(1.0, EventKind.CONTROL_TX, subkind="RREQ", uid=1),
        ev(1.1, EventKind.CONTROL_TX, subkind="RREQ", uid=2),
        ev(1.2, EventKind.CONTROL_TX, subkind="RREP", uid=3),
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
    led.record(ev(1.000001, EventKind.SENT, uid=1))
    led.record(ev(1.000001, EventKind.CONTROL_TX, subkind="RREQ", size=24, uid=2, dst=-1))
    led.record(ev(1.001234, EventKind.DATA_TX, uid=1))
    led.record(ev(1.00246, EventKind.DATA_TX, uid=1, node=2))
    led.record(ev(1.003743, EventKind.RECEIVED, uid=1, node=5))
    led.record(ev(2.5, EventKind.SENT, uid=3))
    led.record(ev(2.601, EventKind.DROPPED, uid=3, node=4))
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


def test_conservation_identity_on_hand_ledger():
    led = _busy_ledger()
    assert led.sent == led.received + led.dropped_data + led.unresolved
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
