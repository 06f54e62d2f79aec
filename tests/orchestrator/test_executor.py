"""Fleet orchestrator end-to-end: completion, retry, evacuation, failure."""

from repro.core.fault_tolerance import Health, HealthMonitor
from repro.orchestrator import FleetConfig, FleetOrchestrator
from repro.orchestrator.admission import EVACUATION_PRIORITY
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass

from tests.conftest import drive


def _busy(proc, comm):
    for _ in range(100_000):
        yield proc.vm.compute(0.2, nthreads=1)
        yield from comm.barrier()


def _register(orch, cluster, job_id, hosts, tenant="default", data=32 * MiB):
    qemus = provision_vms(cluster, hosts, memory_bytes=4 * GiB, name_prefix=job_id)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{job_id}")
    for q in qemus:
        q.vm.memory.write(0, data, PageClass.DATA)
    job.launch(_busy)
    orch.register_job(job_id, job, qemus, tenant=tenant)
    return qemus


def _settle(orch, request=None):
    env = orch.env

    def waiter():
        if request is not None:
            yield request.done
        yield orch.all_settled()

    drive(env, waiter(), name="waiter")


def test_single_fallback_completes(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01", "ib02"])
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "completed"
    assert sorted(q.node.name for q in qemus) == ["eth01", "eth02"]
    # All reservations were returned.
    assert orch.store.total_released == orch.store.total_reserved
    assert not orch.store.inflight


def test_abort_blacklists_and_retries_elsewhere(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    # First migration attempt dies with a non-transient fault → rollback.
    cluster44.faults.arm("ninja.migration", nth=1, times=1)
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "completed"
    assert request.attempts == 2
    assert "eth01" in request.blacklist
    assert qemus[0].node.name == "eth02"


def test_retries_exhausted_leaves_job_at_origin(cluster44):
    orch = FleetOrchestrator(cluster44, config=FleetConfig(max_attempts=2))
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    cluster44.faults.arm("ninja.migration", nth=1, times=100)
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "aborted"
    assert request.attempts == 2
    # Rolled back cleanly: the VM still runs at its origin.
    assert qemus[0].node.name == "ib01"
    assert orch.store.total_released == orch.store.total_reserved


def test_health_warning_enqueues_evacuation(cluster44):
    orch = FleetOrchestrator(cluster44)
    monitor = HealthMonitor(cluster44)
    orch.watch(monitor)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    env = cluster44.env

    def experiment():
        yield env.timeout(1.0)
        monitor.report("ib01", Health.WARNING, reason="ecc-errors")
        yield orch.all_settled()

    drive(env, experiment(), name="exp")
    [request] = orch.requests
    assert request.kind == "evacuate"
    assert request.priority == EVACUATION_PRIORITY
    assert request.status == "completed"
    assert qemus[0].node.name != "ib01"
    # A second WARNING while the first evacuation is pending is deduped.
    monitor.report("ib01", Health.WARNING, reason="again")
    assert len(orch.requests) == 1


def test_infeasible_request_fails_instead_of_hanging(cluster44):
    orch = FleetOrchestrator(cluster44)
    _register(orch, cluster44, "j0", ["ib01"])
    for name in ("eth01", "eth02", "eth03", "eth04"):
        node = cluster44.node(name)
        orch.store.reserve(name, int(orch.store.available_bytes(node)), owner="hog")
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "failed"
    assert "no feasible placement" in request.error


def test_tenant_limit_serialises_one_tenants_jobs(cluster44):
    config = FleetConfig(max_inflight_per_tenant=1, link_budget_s=None)
    orch = FleetOrchestrator(cluster44, config=config)
    _register(orch, cluster44, "j0", ["ib01"], tenant="acme")
    _register(orch, cluster44, "j1", ["ib02"], tenant="acme")
    r0 = orch.submit("j0", kind="fallback")
    r1 = orch.submit("j1", kind="fallback")
    _settle(orch)
    assert r0.status == r1.status == "completed"
    assert orch.admission.stats.deferred.get("tenant-limit", 0) >= 1
    assert max(orch.wave_log) == 1  # never two acme sequences at once


def test_spread_request_uses_explicit_hosts(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01", "ib02"])
    request = orch.submit("j0", kind="spread", dst_hosts=["eth03", "eth04"])
    _settle(orch, request)
    assert request.status == "completed"
    assert sorted(q.node.name for q in qemus) == ["eth03", "eth04"]


def test_recovery_lands_back_on_ib_with_attach(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    fallback = orch.submit("j0", kind="fallback")
    _settle(orch, fallback)
    assert qemus[0].node.name == "eth01"
    recovery = orch.submit("j0", kind="recovery")
    _settle(orch, recovery)
    assert recovery.status == "completed"
    assert qemus[0].node.name in cluster44.ib_cabled
    assert qemus[0].node.has_bypass_fabric
