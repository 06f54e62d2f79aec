"""Unit tests: the node health feed."""

import pytest

from repro.core.fault_tolerance import Health, HealthMonitor
from repro.errors import HardwareError
from repro.hardware.cluster import build_agc_cluster


# -- HealthMonitor --------------------------------------------------------------


def test_monitor_tracks_state_and_notifies():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=1)
    monitor = HealthMonitor(cluster)
    seen = []
    monitor.subscribe(seen.append)
    monitor.report("ib01", Health.WARNING, reason="ECC")
    assert monitor.state["ib01"] is Health.WARNING
    assert monitor.healthy_nodes() == ["eth01"]
    assert seen[0].reason == "ECC"


def test_monitor_unknown_node():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    monitor = HealthMonitor(cluster)
    with pytest.raises(HardwareError):
        monitor.report("ghost", Health.FAILED)


def test_monitor_scheduled_report():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    monitor = HealthMonitor(cluster)
    monitor.schedule_report(5.0, "ib01", Health.FAILED)
    cluster.env.run(until=10.0)
    assert monitor.state["ib01"] is Health.FAILED
    assert monitor.events[0].time == pytest.approx(5.0)
