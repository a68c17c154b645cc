"""AODV's loss on a highway, split into topology and protocol (tests/highway.py)."""
import pytest

from highway import SPEEDS, Probe, highway, measure, ratio
from manetsim.simulation import Simulation


@pytest.mark.parametrize("protocol", ["aodv", "dsdv"])
def test_the_probe_names_every_data_drop_and_changes_no_row(protocol):
    spec = highway(40.0, seed=1, duration=5.0)
    probe = Probe(spec, protocol=protocol, seed=1).run()
    assert probe.ledger.dropped_data > 0
    assert sum(probe.drops.values()) == probe.ledger.dropped_data
    assert probe.reachable <= probe.sends == probe.ledger.sent
    plain = Simulation(spec, protocol, seed=1).run()
    assert list(probe.ledger.rows()) == list(plain.ledger.rows())


@pytest.mark.slow
def test_aodv_delivers_less_of_what_it_could_as_speed_grows_and_dsdv_less_still():
    """Seeds 1 to 3, 30 s each: deliveries per send whose destination was
    reachable at send time, at each v of SPEEDS."""
    aodv = [ratio(measure("aodv", v)) for v in SPEEDS]
    dsdv = [ratio(measure("dsdv", v)) for v in SPEEDS]
    assert all(slower >= faster for slower, faster in zip(aodv, aodv[1:])), aodv
    assert all(d < a for a, d in zip(aodv[1:], dsdv[1:])), (aodv, dsdv)
