"""The canned fleet experiment behind ``repro fleet`` and the benchmark.

A two-site estate: the IB-cabled primary runs one single-VM-group MPI
job per blade; the operator drains the whole IB sub-cluster onto the
Ethernet estate, half of which sits behind a thin WAN pipe at a backup
site.  Each job arrives with a naive round-robin destination (job *i* →
``eth0i``), which sends the *large* jobs over the WAN.

* **naive** mode (``sequenced=False``) executes that assignment as
  given, all migrations at once — the baseline;
* **sequenced** mode runs the full planner: the destination-swap pass
  re-maps large jobs onto local Ethernet hosts (small ones absorb the
  WAN hop), and wave sequencing serialises the migrations that still
  share the WAN bottleneck.

The function returns a :class:`FleetScenarioResult` with the makespan,
per-wave concurrency, and deferral counts — the benchmark artifact's
payload.  The estate, provisioning and drain helpers here are shared by
all four canned fleet drills (see also ``repro.incident.scenario``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.hardware.cluster import Cluster
from repro.network.degradation import chaos_from_spec
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.state import FleetStateStore
from repro.recovery.recovery import RecoveryManager
from repro.sim.trace import Tracer
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB, gbps
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy

#: Guest-RAM size for fleet-scenario VMs (smaller than the paper's
#: 20 GiB so destination hosts can absorb several).
FLEET_VM_MEMORY = 4 * GiB
#: Resident data set of a "small" job's VM (compresses to ~this on wire).
SMALL_DATA_BYTES = 256 * MiB
#: Resident data set of a "large" job's VM.
LARGE_DATA_BYTES = 1536 * MiB
#: Tenants the drained jobs are dealt to round-robin.
TENANTS = 2


@dataclass
class FleetScenarioResult:
    """Everything ``repro fleet`` prints and BENCH_fleet.json records."""

    sequenced: bool
    jobs: int
    vms_per_job: int
    makespan_s: float
    #: Migrations started by each scan that started any — the de-facto
    #: concurrency of each execution wave.
    wave_concurrency: List[int] = field(default_factory=list)
    deferred: Dict[str, int] = field(default_factory=dict)
    deferred_total: int = 0
    destination_swaps: int = 0
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def build_fleet_cluster(
    nvms: int,
    spares: int = 0,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """Primary site (IB blades + local Ethernet) plus a WAN-attached backup.

    ``nvms`` IB-cabled source blades, ``ceil(nvms/2)`` Ethernet hosts in
    the primary enclosure, and ``floor(nvms/2)`` (at least one) behind
    the WAN — so a one-for-one drain *must* push half the fleet through
    the bottleneck unless the planner re-maps destinations.  ``spares``
    empty primary-site hosts (``sp01``…) give the incident drills
    somewhere local to evacuate or restore to while the WAN is dark.
    """
    if nvms < 2:
        raise ValueError("fleet scenario needs at least 2 VMs")
    cluster = Cluster(seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(nvms)]
    eth_names = [f"eth{i + 1:02d}" for i in range(nvms)]
    spare_names = [f"sp{i + 1:02d}" for i in range(spares)]
    local_eth = eth_names[: (nvms + 1) // 2]
    remote_eth = eth_names[(nvms + 1) // 2:]
    for name in ib_names + eth_names + spare_names:
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={"primary": ib_names + local_eth + spare_names, "backup": remote_eth},
        wan_bandwidth_Bps=gbps(wan_gbps),
        wan_latency_s=5e-3,
    )
    cluster.wire_infiniband(ib_names)
    return cluster


def _busy(proc, comm):
    """Compute/barrier loop — keeps ranks inside MPI calls so the
    SymVirt coordinator can service checkpoint requests."""
    for _ in range(1_000_000):
        yield proc.vm.compute(0.2, nthreads=1)
        yield from comm.barrier()


def _provision_fleet(cluster, jobs: int, vms_per_job: int, tenants: int):
    """Provision + launch the scenario's MPI jobs; returns records of
    (job_id, tenant, job, qemus, naive round-robin dst_hosts)."""
    env = cluster.env
    nvms = jobs * vms_per_job
    eth_names = [f"eth{i + 1:02d}" for i in range(nvms)]
    records = []
    for i in range(jobs):
        src_hosts = [f"ib{i * vms_per_job + k + 1:02d}" for k in range(vms_per_job)]
        qemus = provision_vms(
            cluster, src_hosts, memory_bytes=FLEET_VM_MEMORY, name_prefix=f"j{i}"
        )
        job = create_job(cluster, qemus)
        done = env.process(job.init(), name=f"fleet.init.j{i}")
        env.run(until=done)
        data = SMALL_DATA_BYTES if i < jobs // 2 else LARGE_DATA_BYTES
        for q in qemus:
            q.vm.memory.write(0, data, PageClass.DATA)
        job.launch(_busy)
        dst_hosts = [
            eth_names[(i * vms_per_job + k) % nvms] for k in range(vms_per_job)
        ]
        records.append((f"j{i}", f"t{i % max(tenants, 1)}", job, qemus, dst_hosts))
    return records


def _register_all(orch: FleetOrchestrator, records) -> None:
    for job_id, tenant, job, qemus, _ in records:
        # rank_main lets a checkpoint restore relaunch the SPMD program.
        orch.register_job(job_id, job, qemus, tenant=tenant, rank_main=_busy)


def _spawn_drain(orch: FleetOrchestrator, records, start_at: float,
                 chaos=None) -> None:
    """Submit every job's spread drain (naive destinations) at ``start_at``.

    The chaos clock starts with the drain, so ``t=`` offsets in a degrade
    spec, or a drill's cut time, are relative to the first submission.
    """
    env = orch.env

    def _submit_all():
        yield env.timeout(start_at - env.now)
        if chaos is not None:
            chaos.start()
        for job_id, _, _, _, dst_hosts in records:
            orch.submit(job_id, kind="spread", dst_hosts=dst_hosts)

    env.process(_submit_all(), name="fleet.submit")


def _final_hosts(store: FleetStateStore) -> Dict[str, List[str]]:
    """Where each registered job's VMs run now, in registration order."""
    return {
        job_id: [q.node.name for q in record.qemus]
        for job_id, record in store.jobs.items()
    }


def run_fleet_scenario(
    jobs: int = 8,
    vms_per_job: int = 1,
    sequenced: bool = True,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    inject_site: Optional[str] = None,
    inject_nth: int = 1,
    inject_transient: bool = False,
    degrade_spec: Optional[str] = None,
    degrade_link: str = "wan:*",
    postcopy: str = "off",
    viability_floor_Bps: Optional[float] = None,
) -> FleetScenarioResult:
    """Drain ``jobs`` MPI jobs off the IB sub-cluster through the fleet
    orchestrator; return makespan + concurrency + deferral metrics.

    ``inject_site`` arms the deterministic fault injector (e.g.
    ``ninja.migration``) so fleet runs exercise the abort → blacklist →
    retry path; ``inject_transient`` makes the fault a retryable
    :class:`~repro.errors.QmpError` instead of a fatal one.

    Degraded-path knobs: ``degrade_spec`` is a
    :func:`~repro.network.degradation.parse_degrade_spec` schedule that
    starts (against links matching ``degrade_link``, default the WAN
    pipe) the moment the drain begins; ``postcopy`` feeds an adaptive
    :class:`~repro.vmm.policy.MigrationPolicy` to every Ninja sequence;
    ``viability_floor_Bps`` makes the orchestrator defer requests whose
    migration path has degraded below that bottleneck bandwidth.
    """
    nvms = jobs * vms_per_job
    cluster = build_fleet_cluster(nvms, wan_gbps=wan_gbps, seed=seed, tracer=tracer)
    env = cluster.env
    if inject_site:
        from repro.errors import QmpError

        error = (
            QmpError("GenericError", "injected transient fault")
            if inject_transient
            else None  # default FaultInjectionError → abort + rollback
        )
        cluster.faults.arm(inject_site, error=error, nth=inject_nth)
    config = FleetConfig() if sequenced else FleetConfig.naive()
    if viability_floor_Bps is not None:
        config.viability_floor_Bps = viability_floor_Bps
    orch = FleetOrchestrator(cluster, config=config)
    if postcopy != "off":
        orch.ninja.migration_policy = MigrationPolicy.adaptive(postcopy=postcopy)
    chaos = (
        chaos_from_spec(cluster, degrade_spec, link_pattern=degrade_link)
        if degrade_spec
        else None
    )
    records = _provision_fleet(cluster, jobs, vms_per_job, TENANTS)
    _register_all(orch, records)

    start_at = env.now + 1.0
    _spawn_drain(orch, records, start_at, chaos=chaos)
    env.run(until=start_at + 0.001)  # requests now queued; loop running
    env.run(until=orch.all_settled())

    statuses = Counter(r.status for r in orch.requests)
    return FleetScenarioResult(
        sequenced=sequenced,
        jobs=jobs,
        vms_per_job=vms_per_job,
        makespan_s=round(env.now - start_at, 3),
        wave_concurrency=list(orch.wave_log),
        deferred=dict(orch.admission.stats.deferred),
        deferred_total=orch.admission.stats.deferred_total,
        destination_swaps=orch.swaps_applied,
        completed=statuses["completed"],
        aborted=statuses["aborted"],
        failed=statuses["failed"],
        outcomes=[
            {
                "request": r.request_id,
                "job": r.job_id,
                "status": r.status,
                "attempts": r.attempts,
                "duration_s": (
                    round(r.finished_at - r.submitted_at, 3)
                    if r.finished_at is not None
                    else None
                ),
                "error": r.error,
            }
            for r in orch.requests
        ],
        final_hosts=_final_hosts(orch.store),
    )


@dataclass
class FleetCrashResult:
    """Everything ``repro fleet --crash-at-time`` prints."""

    jobs: int
    vms_per_job: int
    crash_requested_at: float
    crashed: bool = False
    crash_time: Optional[float] = None
    crash_error: str = ""
    recovered: bool = False
    recovery_epoch: Optional[int] = None
    #: Per-orphaned-sequence recovery outcomes.
    decisions: List[Dict[str, object]] = field(default_factory=list)
    reseeded: int = 0
    resubmitted: int = 0
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    #: VMs still parked at the end (the leak recovery must prevent).
    parked_vms: List[str] = field(default_factory=list)
    makespan_s: float = 0.0
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_fleet_crash_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    crash_at_time: float = 5.0,
    recover: bool = True,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> FleetCrashResult:
    """Drain the fleet, kill the controller ``crash_at_time`` seconds
    after the drain starts, then (optionally) run crash recovery and a
    successor orchestrator that resumes the remaining work.

    The crash is armed at every ``controller.crash.*`` site with an
    ``at_time`` trigger: the first journal boundary any sequence reaches
    at or after the deadline kills the whole control plane; sibling
    sequences die at their own next boundary; orphaned precopy streams
    keep running.  Recovery then fences the epoch, replays the journal,
    rolls each orphan forward or back, and re-seeds reservations in a
    fresh :class:`~repro.orchestrator.state.FleetStateStore` for the
    successor orchestrator.
    """
    nvms = jobs * vms_per_job
    cluster = build_fleet_cluster(nvms, wan_gbps=wan_gbps, seed=seed, tracer=tracer)
    env = cluster.env
    orch = FleetOrchestrator(cluster)
    records = _provision_fleet(cluster, jobs, vms_per_job, TENANTS)
    _register_all(orch, records)

    start_at = env.now + 1.0
    cluster.faults.arm("controller.crash.*", at_time=start_at + crash_at_time)
    _spawn_drain(orch, records, start_at)
    env.run(until=start_at + 0.001)
    env.run(until=env.any_of([orch.crash_event, orch.all_settled()]))

    result = FleetCrashResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        crash_requested_at=crash_at_time,
        crashed=orch.crashed,
        crash_time=round(env.now - start_at, 3) if orch.crashed else None,
        crash_error=orch.crash_error,
    )
    # Unless the drain finished before the deadline, or the operator
    # asked to see the wreckage, recovery and a successor take over.
    requests = orch.requests
    if orch.crashed and recover:
        # Let the zombie sequences die at their next boundary before
        # reconciling, then hand the journal to recovery with a *fresh*
        # state store (the dead orchestrator's reservations died with it).
        env.run(until=orch.crash_drained())
        store = FleetStateStore(cluster)
        manager = RecoveryManager(cluster, orch.journal, store=store)
        box: List[object] = []

        def _recover():
            report = yield from manager.recover(reason=f"crash at t+{crash_at_time}s")
            box.append(report)

        done = env.process(_recover(), name="recovery")
        env.run(until=done)
        report = box[0]
        result.recovered = report.clean
        result.recovery_epoch = report.epoch
        result.reseeded = report.reseeded
        result.decisions = [
            {
                "mid": d.mid,
                "decision": d.decision,
                "phase_reached": d.phase_reached,
                "basis": d.basis,
                "actions": d.actions,
                "parked_after": d.parked_after,
                "error": d.error,
            }
            for d in report.decisions
        ]

        # Successor orchestrator: same journal, the recovery-seeded store.
        orch2 = FleetOrchestrator(cluster, config=orch.config, state=store, journal=orch.journal)
        _register_all(orch2, records)
        for spec in report.resubmit:
            orch2.submit(
                str(spec["job"]),
                kind=str(spec.get("kind", "fallback")),
                priority=int(spec.get("priority", 0) or 0),
                dst_hosts=spec.get("dst_hosts"),  # type: ignore[arg-type]
            )
        result.resubmitted = len(orch2.requests)
        if orch2.requests:
            env.run(until=orch2.all_settled())
        # Requests the dead orchestrator never finished are superseded by
        # the resubmissions; count outcomes over what actually terminated.
        requests = [*(r for r in orch.requests if r.terminal), *orch2.requests]

    statuses = Counter(r.status for r in requests)
    result.completed = statuses["completed"]
    result.aborted = statuses["aborted"]
    result.failed = statuses["failed"]
    result.parked_vms = sorted(
        q.vm.name
        for _, _, _, qemus, _ in records
        for q in qemus
        if q.vm.hypercall.parked
    )
    result.makespan_s = round(env.now - start_at, 3)
    result.final_hosts = _final_hosts(orch.store)
    return result
