"""Placement engine and the cloud scheduler that picks through it."""

import pytest

from repro.core.scheduler import CloudScheduler
from repro.errors import SchedulerError
from repro.orchestrator.placement import PlacementEngine
from repro.orchestrator.state import FleetStateStore
from repro.testbed import create_job, provision_vms
from repro.units import GiB

from tests.conftest import drive


def _vms(cluster, hosts, prefix="vm"):
    qemus = provision_vms(cluster, hosts, memory_bytes=4 * GiB, name_prefix=prefix)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{prefix}")
    return job, qemus


def test_packed_and_spread_policies(cluster44):
    _, qemus = _vms(cluster44, ["ib01", "ib02"])
    engine = PlacementEngine(cluster44)
    assert engine.pick_packed(qemus, cluster44.eth_only_nodes()) == ["eth01", "eth02"]
    assert engine.pick_packed(
        qemus, cluster44.eth_only_nodes(), consolidate_to=1
    ) == ["eth01"]
    assert engine.pick_spread(qemus, cluster44.ib_nodes(), exclude={"ib01"}) == [
        "ib02", "ib03",
    ]


def test_reservations_hide_capacity(cluster44):
    _, qemus = _vms(cluster44, ["ib01"])
    store = FleetStateStore(cluster44)
    engine = PlacementEngine(cluster44, store)
    node = cluster44.node("eth01")
    store.reserve("eth01", int(store.available_bytes(node)), owner="other")
    assert engine.pick_packed(qemus, cluster44.eth_only_nodes()) == ["eth02"]


def test_hca_reservation_blocks_attach_placement(cluster44):
    _, qemus = _vms(cluster44, ["eth01"])
    store = FleetStateStore(cluster44)
    engine = PlacementEngine(cluster44, store)
    store.reserve("ib01", 1 * GiB, owner="other", hca=True)
    hosts = engine.pick_spread(qemus, cluster44.ib_nodes(), need_hca=True)
    assert hosts == ["ib02"]


def test_scheduler_without_store_matches_seed_behaviour(cluster44):
    scheduler = CloudScheduler(cluster44)
    _, qemus = _vms(cluster44, ["ib01", "ib02"])
    assert scheduler.pick_fallback_hosts(qemus) == ["eth01", "eth02"]
    assert scheduler.pick_recovery_hosts(qemus) == ["ib01", "ib02"]
    with pytest.raises(SchedulerError):
        scheduler.pick_fallback_hosts([])
