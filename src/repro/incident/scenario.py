"""The fiber-cut and host-failure drills behind ``repro incident``,
BENCH_incident.json and BENCH_hostfail.json.

Both drills are configurations of one private driver, :class:`_Drill`.
It builds the fleet-scenario estate — IB blades draining onto an
Ethernet estate whose far half sits behind a thin WAN pipe — plus a few
*spare* hosts in the primary enclosure (evacuation and restore headroom),
a heartbeat mesh, and the full incident-response stack.  It then starts
the drain and steps the simulation in 0.5 s slices until the drill's
done-predicate holds.  A crashed incident manager is replaced by a
successor that rebuilds its incidents from the journal, and so is a
crashed checkpoint service.

**Fiber cut** (:func:`run_incident_scenario`).  ``cut_at_s`` seconds into
the drain the WAN fiber goes dark for ``heal_after_s`` seconds, killing
whatever migration is mid-flight over it.  With ``autonomous=True`` the
:class:`~repro.incident.manager.IncidentManager` must detect the cut from
telemetry, classify it ``fiber-cut``, and run the runbook: blacklist the
severed links, switch retried sequences to postcopy-fallback, raise the
viability floor, evacuate the stranded jobs around the cut, wait for the
heal, and re-admit — with zero lost VMs.  ``autonomous=False`` is the
baseline: same cut, diagnosis only, and the jobs whose destinations died
stay failed.  ``crash_during_remediation=True`` additionally kills the
controller at the evacuation step (after the journal intent, before the
action); the successor's
:meth:`~repro.incident.manager.IncidentManager.resume` must finish the
runbook without double-executing any committed step.

**Host failure** (:func:`run_host_failure_scenario`).  A proactive
checkpoint service snapshots the fleet, a host dies without warning
mid-drain, and the runbook restores its jobs from their last committed
generation on the spares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ControllerCrashError
from repro.incident.correlator import RESOLVED, Incident
from repro.incident.manager import IncidentManager
from repro.incident.runbook import (
    DEFAULT_RUNBOOK,
    RESTORE_BOOT_SITE,
    RunbookStep,
)
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.orchestrator.executor import FleetOrchestrator
from repro.orchestrator.scenario import (
    TENANTS,
    _final_hosts,
    _provision_fleet,
    _register_all,
    _spawn_drain,
    build_fleet_cluster,
)
from repro.recovery.checkpoints import FleetCheckpointService
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.sim.trace import Tracer
from repro.storage.nfs import NfsServer
from repro.units import gbps
from repro.vmm.vm import RunState

#: Crash-injection site used by ``crash_during_remediation`` (the
#: evacuation is the long-running, most-interruptible runbook step).
CRASH_SITE = "incident.action.evacuate-affected"

#: Default crash site for ``crash_during_restore``: after the restore
#: intent is journaled, before the replacement VMs boot.
RESTORE_CRASH_SITE = RESTORE_BOOT_SITE

HEARTBEAT_PERIOD_S = 0.5
#: Simulated-time budget of a drill from the start of the drain.
MAX_RUNTIME_S = 900.0
#: Bandwidth of the checkpoint store's dedicated link.
NFS_GBPS = 40.0


@dataclass
class IncidentScenarioResult:
    """Everything ``repro incident`` prints and BENCH_incident.json records."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    cut_at_s: float
    heal_after_s: float
    #: Diagnosis: the classified incidents (``Incident.to_dict`` payloads).
    incidents: List[Dict[str, object]] = field(default_factory=list)
    incident_class: str = ""
    mttd_s: Optional[float] = None
    mttr_s: Optional[float] = None
    alerts: int = 0
    all_resolved: bool = False
    #: Request outcomes (spread drain + evacuations + retries).
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    cancelled: int = 0
    evacuated_jobs: List[str] = field(default_factory=list)
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    #: VMs left parked (lost) at the end — the headline must be empty.
    lost_vms: List[str] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)
    #: Crash drill bookkeeping.
    crash_injected: bool = False
    crashed: bool = False
    resumed_incidents: int = 0
    #: (incident, step, action) triples executed more than once across
    #: the dead and successor controllers — must stay empty.
    double_executed: List[List[object]] = field(default_factory=list)
    makespan_s: float = 0.0
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _drill_runbook():
    """DEFAULT_RUNBOOK with restores pinned to the drill's spare hosts."""
    runbook = dict(DEFAULT_RUNBOOK)
    runbook["host-failure"] = (
        RunbookStep("evacuate-host", timeout_s=300.0, retries=1),
        RunbookStep(
            "restore-from-checkpoint", {"spare_pattern": "sp*"},
            timeout_s=600.0, retries=1, restores_service=True,
        ),
    )
    return runbook


def _all_resolved(incidents: List[Incident]) -> bool:
    return bool(incidents) and all(i.status == RESOLVED for i in incidents)


class _Drill:
    """One incident drill: the estate, the drain, the incident-response
    stack and the controller-succession loop.

    ``crash`` arms a ``(site, reason)`` controller crash.
    ``checkpoint_period_s`` adds a proactive checkpoint service and the
    drill runbook that restores onto the spares.  ``cut_at_s`` cuts the
    WAN fiber for ``heal_after_s``.  ``kill_at_s`` kills ``kill_host``
    (default: picked once it is covered by a checkpoint) without warning.
    """

    def __init__(
        self,
        jobs: int,
        vms_per_job: int,
        spares: int,
        wan_gbps: float,
        seed: int,
        tracer: Optional[Tracer],
        autonomous: bool,
        crash: Optional[Tuple[str, str]] = None,
        checkpoint_period_s: Optional[float] = None,
        cut_at_s: Optional[float] = None,
        heal_after_s: float = 120.0,
        kill_at_s: Optional[float] = None,
        kill_host: Optional[str] = None,
    ) -> None:
        self.autonomous = autonomous
        self.crash_armed = crash is not None
        self.kill_at_s = kill_at_s
        self.victim = kill_host
        self.killed_at: Optional[float] = None
        self.vms_lost_at_kill: List[str] = []
        self.resumed = 0
        self.start_at = 0.0

        self.cluster = cluster = build_fleet_cluster(
            jobs * vms_per_job, spares=spares, wan_gbps=wan_gbps,
            seed=seed, tracer=tracer,
        )
        self.env = env = cluster.env
        if crash is not None:
            site, reason = crash
            cluster.faults.arm(site, error=ControllerCrashError(reason))
        self.orch = orch = FleetOrchestrator(cluster)

        self.services: List[FleetCheckpointService] = []
        self.runbook = None
        if checkpoint_period_s is not None:
            # The checkpoint store hangs off the enclosure's converged
            # fabric, not the clients' 10 GbE links: a generation's write
            # window must fit well inside the checkpoint period.
            self.nfs = NfsServer(env, bandwidth_Bps=gbps(NFS_GBPS) * 0.7)
            self.checkpoint_period_s = checkpoint_period_s
            self._new_service()
            self.runbook = _drill_runbook()

        self.records = _provision_fleet(cluster, jobs, vms_per_job, TENANTS)
        _register_all(orch, self.records)

        # Heartbeat mesh: every node beats; phi feeds both the legacy
        # HealthMonitor evacuation path and the incident telemetry probe.
        self.monitor = HeartbeatMonitor(cluster)
        for node in cluster.nodes:
            env.process(
                self.monitor.emit_heartbeats(node, HEARTBEAT_PERIOD_S),
                name=f"heartbeat.{node}",
            )
        self.monitor.start()
        orch.watch(self.monitor.health)

        self.managers: List[IncidentManager] = []
        # Pre-drain samples let EWMA baselines learn "healthy".
        self._new_manager(autonomous)
        for service in self.services:
            service.start()

        self.chaos = None
        if cut_at_s is not None:
            self.chaos = NetworkChaos(
                cluster,
                [
                    DegradationEvent(
                        at_time=cut_at_s,
                        kind="drop",
                        duration_s=heal_after_s,
                        link_pattern="wan:*",
                    )
                ],
            )
        if kill_host is not None:
            cluster.node(kill_host)  # existence check before the drill starts

    # -- controllers -------------------------------------------------------------

    def _new_manager(self, autonomous: bool) -> IncidentManager:
        manager = IncidentManager(
            self.cluster,
            self.orch,
            heartbeats=self.monitor,
            autonomous=autonomous,
            checkpoints=self.services[-1] if self.services else None,
            runbook=self.runbook,
        )
        manager.start()
        self.managers.append(manager)
        return manager

    def _new_service(self) -> FleetCheckpointService:
        service = FleetCheckpointService(
            self.cluster, self.orch.store, self.nfs, self.orch.journal,
            period_s=self.checkpoint_period_s,
        )
        self.services.append(service)
        return service

    @property
    def crashed(self) -> bool:
        return any(m.crashed for m in self.managers) or any(
            s.crashed for s in self.services
        )

    def incidents(self) -> List[Incident]:
        # Latest manager wins: a successor's rebuilt incident supersedes
        # the dead manager's (forever-REMEDIATING) copy of the same id.
        by_id: Dict[int, Incident] = {}
        for m in self.managers:
            for incident in m.incidents:
                by_id[incident.incident_id] = incident
        return [by_id[iid] for iid in sorted(by_id)]

    # -- host kill ---------------------------------------------------------------

    def _committed_jobs(self) -> Set[str]:
        return {
            r.payload.get("job")
            for r in self.orch.journal.records
            if r.kind == "checkpoint-commit"
        }

    def _victim_covered(self, host: str) -> bool:
        """Every job on ``host`` holds a committed generation."""
        on_victim = [r.job_id for r in self.orch.store.jobs_on(host)]
        return bool(on_victim) and set(on_victim) <= self._committed_jobs()

    def _pick_victim(self) -> Optional[str]:
        """First landed job with a committed generation → its host.

        The orchestrator places spread drains by capacity, not by the
        naive destination list, so the victim cannot be named up front.
        Every job co-located on the candidate host must be covered too —
        the kill takes the whole host, not just the picked job.
        """
        store = self.orch.store
        committed = self._committed_jobs()
        for job_id in sorted(store.jobs):
            if job_id not in committed:
                continue
            record = store.jobs[job_id]
            if record.busy:  # mid-migration: not a restore-path drill
                continue
            hosts = record.hosts()
            if not hosts or any(self.cluster.node(h).failed for h in hosts):
                continue
            host = hosts[0]
            if all(
                r.job_id in committed and not r.busy
                for r in store.jobs_on(host)
            ):
                return host
        return None

    def _kill(self):
        env = self.env
        yield env.timeout(self.start_at + self.kill_at_s - env.now)
        # Arm the failure only once the victim's jobs are coverable: the
        # drill measures the restore path, not the (separately tested)
        # no-checkpoint error path.  Give up at half the runtime budget so
        # a broken schedule still kills and fails the run visibly instead
        # of hanging.
        give_up = self.start_at + MAX_RUNTIME_S / 2.0
        if self.victim is not None:
            while not self._victim_covered(self.victim) and env.now < give_up:
                yield env.timeout(0.5)
        else:
            while self._pick_victim() is None and env.now < give_up:
                yield env.timeout(0.5)
            self.victim = self._pick_victim() or self.records[0][4][0]
        yield env.timeout(1.0)
        self.killed_at = env.now
        self.vms_lost_at_kill = list(self.cluster.fail_host(self.victim))

    # -- the drill ---------------------------------------------------------------

    def _settled(self, request) -> bool:
        # The baseline has no restore path: a request stuck behind a dead
        # VM will never run; count it stranded instead of waiting it out.
        return request.terminal or (
            not self.autonomous and request.defer_reason == "vm-down"
        )

    def _done(self, done: Callable[[List[Incident]], bool]) -> bool:
        if not all(self._settled(r) for r in self.orch.requests):
            return False
        if self.crash_armed and not self.crashed:
            return False  # the armed crash has not fired yet
        incidents = self.incidents()
        return bool(incidents) and done(incidents)

    def run(self, done: Callable[[List[Incident]], bool]) -> None:
        """Drain the fleet and step until ``done(incidents)`` holds (once
        every request settled, the armed crash fired and some incident
        opened), or the runtime budget runs out."""
        env = self.env
        self.start_at = env.now + 1.0
        _spawn_drain(self.orch, self.records, self.start_at, chaos=self.chaos)
        if self.kill_at_s is not None:
            env.process(self._kill(), name="drill.kill")
        env.run(until=self.start_at + 0.001)

        deadline = self.start_at + MAX_RUNTIME_S
        while env.now < deadline and not self._done(done):
            if self.managers[0].crashed and len(self.managers) == 1:
                # Controller succession: the dead controller stops
                # observing; a successor rebuilds the incidents from the
                # journal and finishes the runbooks without
                # double-executing a committed step.
                self.managers[0].stop()
                successor = self._new_manager(autonomous=True)
                self.resumed = len(successor.resume())
            if self.services and self.services[-1].crashed:
                # Checkpoint-service succession: a fresh service resumes
                # the generation numbering from the journal; the open
                # intent of the dead one never commits.
                self.services[-1].stop()
                self._new_service().start()
            env.run(until=env.now + 0.5)

        if not self.services:
            return
        # Let an in-flight checkpoint tick finish before folding final VM
        # state: its parked VMs resume at tick end and must not read as lost.
        drain_until = env.now + 120.0
        while (
            any(rec.busy for rec in self.orch.store.jobs.values())
            and env.now < drain_until
        ):
            env.run(until=env.now + 0.5)
        # Sim time has not advanced since the busy check, so no new tick can
        # have started: stopping here never interrupts a parked fleet.
        for s in self.services:
            s.stop()

    def summary(self) -> Dict[str, object]:
        """The result fields both drills report, keyed by field name."""
        orch = self.orch
        incidents = self.incidents()
        executed = [item for m in self.managers for item in m.executor.executed]
        statuses = Counter(r.status for r in orch.requests)
        return dict(
            incidents=[i.to_dict() for i in incidents],
            alerts=sum(len(m.alerts) for m in self.managers),
            all_resolved=_all_resolved(incidents),
            completed=statuses["completed"],
            aborted=statuses["aborted"],
            failed=statuses["failed"],
            cancelled=statuses["cancelled"],
            evacuated_jobs=sorted(
                {
                    r.job_id
                    for r in orch.requests
                    if r.kind == "evacuate" and r.status == "completed"
                }
            ),
            outcomes=[
                {
                    "request": r.request_id,
                    "job": r.job_id,
                    "kind": r.kind,
                    "status": r.status,
                    "attempts": r.attempts,
                    "error": r.error,
                }
                for r in orch.requests
            ],
            lost_vms=sorted(
                q.vm.name
                for record in orch.store.jobs.values()
                for q in record.qemus
                if q.vm.state is RunState.SHUTOFF
                or (q.vm.hypercall is not None and q.vm.hypercall.parked)
            ),
            crashed=self.crashed,
            resumed_incidents=self.resumed,
            double_executed=[
                list(item)
                for item in sorted({i for i in executed if executed.count(i) > 1})
            ],
            makespan_s=round(self.env.now - self.start_at, 3),
            final_hosts=_final_hosts(orch.store),
        )


def run_incident_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    cut_at_s: float = 6.0,
    heal_after_s: float = 120.0,
    autonomous: bool = True,
    crash_during_remediation: bool = False,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> IncidentScenarioResult:
    """Drain the fleet, cut the WAN fiber mid-drain, and report how the
    incident-response stack (or its absence) handled it."""
    drill = _Drill(
        jobs, vms_per_job, spares, wan_gbps, seed, tracer, autonomous,
        crash=(
            (CRASH_SITE, "injected crash mid-remediation")
            if crash_during_remediation
            else None
        ),
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
    )

    def _done(incidents: List[Incident]) -> bool:
        if autonomous:
            # Converged once the cut was diagnosed and fully remediated.
            return _all_resolved(incidents)
        # Diagnosis-only baseline: give detection time to open the
        # incident after the last request settles.
        return drill.env.now >= drill.start_at + cut_at_s + 5.0

    drill.run(_done)
    incidents = drill.incidents()
    primary = incidents[0] if incidents else None
    return IncidentScenarioResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
        incident_class=primary.klass if primary is not None else "",
        mttd_s=round(primary.mttd_s, 4) if primary is not None else None,
        mttr_s=(
            round(primary.mttr_s, 4)
            if primary is not None and primary.mttr_s is not None
            else None
        ),
        actions=list(primary.actions) if primary is not None else [],
        crash_injected=crash_during_remediation,
        **drill.summary(),
    )


@dataclass
class HostFailureScenarioResult:
    """Everything the host-failure drill prints and BENCH_hostfail.json
    records."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    kill_host: str
    kill_at_s: float
    #: When the host actually died (waiting for checkpoint coverage can
    #: push the kill past ``kill_at_s``), relative to the drain start.
    killed_at_s: Optional[float] = None
    checkpoint_period_s: float = 0.0
    #: Fiber cut overlapping the host failure (None = host failure only).
    cut_at_s: Optional[float] = None
    incidents: List[Dict[str, object]] = field(default_factory=list)
    incident_classes: List[str] = field(default_factory=list)
    alerts: int = 0
    all_resolved: bool = False
    #: Proactive checkpointing accounting.
    generations_committed: int = 0
    checkpoint_skips: int = 0
    #: RPO of the worst restored job (failure instant back to the restored
    #: generation's consistency point) — must stay ≤ the checkpoint period.
    rpo_s: Optional[float] = None
    rpo_bound_s: float = 0.0
    #: First anomaly to restore commit of the slowest restored job.
    restore_rto_s: Optional[float] = None
    restored_jobs: List[str] = field(default_factory=list)
    #: Replacement VMs adopted (not re-booted) by a resumed restore.
    adopted_vms: List[str] = field(default_factory=list)
    #: VMs that died with the host at kill time.
    vms_lost_at_kill: List[str] = field(default_factory=list)
    #: VMs still dead/parked at the end — the headline must be empty.
    lost_vms: List[str] = field(default_factory=list)
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Requests never settled (baseline: work stranded behind dead VMs).
    stranded: int = 0
    evacuated_jobs: List[str] = field(default_factory=list)
    crash_injected: bool = False
    crash_site: str = ""
    crashed: bool = False
    resumed_incidents: int = 0
    double_executed: List[List[object]] = field(default_factory=list)
    #: (incident, job) pairs with more than one restore-commit — the
    #: no-double-restore witness, must stay empty.
    double_restored: List[List[object]] = field(default_factory=list)
    #: Spare hosts ever leased to two incidents at once — must stay empty.
    spare_double_leases: List[List[object]] = field(default_factory=list)
    makespan_s: float = 0.0
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_host_failure_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    kill_at_s: float = 12.0,
    kill_host: Optional[str] = None,
    checkpoint_period_s: float = 20.0,
    cut_at_s: Optional[float] = None,
    heal_after_s: float = 120.0,
    autonomous: bool = True,
    crash_during_restore: bool = False,
    crash_site: str = RESTORE_CRASH_SITE,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> HostFailureScenarioResult:
    """Kill a host without warning mid-drain; report how proactive
    checkpointing + checkpoint-restore remediation handled it.

    The fleet checkpoint service snapshots every eligible job each
    ``checkpoint_period_s`` onto an NFS store with a dedicated link.
    ``kill_at_s`` seconds into the drain, and once the victim's jobs hold
    a committed checkpoint generation, ``kill_host`` (default: the host
    of the first landed, covered job — that job drains fast and sits
    still while the WAN jobs are mid-flight) dies hard — no WARNING, no
    drain window — taking its VMs with it.  The failure is still
    unannounced to the controller; the *drill* just arms it where the
    restore path (rather than the no-checkpoint error path) is
    exercised.  The incident stack must classify the heartbeat silence
    as ``host-failure``, fall through the (impossible) evacuation, and
    restore the dead jobs from their last committed checkpoint
    generation on spare capacity leased through the
    :class:`~repro.orchestrator.state.SpareArbiter`.

    ``cut_at_s`` additionally cuts the WAN fiber (a second incident whose
    evacuations compete for the same spares); ``crash_during_restore``
    kills the controller at ``crash_site`` and a successor must resume to
    the same outcome without double-restoring.
    """
    drill = _Drill(
        jobs, vms_per_job, spares, wan_gbps, seed, tracer, autonomous,
        crash=(
            (crash_site, f"injected crash at {crash_site}")
            if crash_during_restore
            else None
        ),
        checkpoint_period_s=checkpoint_period_s,
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
        kill_at_s=kill_at_s,
        kill_host=kill_host,
    )

    def _done(incidents: List[Incident]) -> bool:
        if drill.killed_at is None:
            return False
        if not autonomous:
            return drill.env.now >= drill.killed_at + 15.0
        # An unrelated earlier incident (e.g. drain congestion) being
        # resolved must not end the drill before the heartbeat silence is
        # even detectable: require the victim's own host-failure incident.
        return any(
            i.klass == "host-failure"
            and drill.victim in (i.suspect_hosts | i.hosts)
            for i in incidents
        ) and _all_resolved(incidents)

    drill.run(_done)
    orch = drill.orch
    restore_commits = [
        r.payload
        for r in orch.journal.records
        if r.kind == "restore-commit"
    ]
    commit_counts: Dict[tuple, int] = {}
    for payload in restore_commits:
        key = (payload.get("incident"), payload.get("job"))
        commit_counts[key] = commit_counts.get(key, 0) + 1
    # True RPO: the drill knows the exact failure instant; measure lost
    # work from there back to the restored generation's consistency
    # point.  (The journal's per-restore ``rpo_s`` is the controller's
    # conservative estimate from the first detected anomaly instead.)
    consistency_by_gen = {
        (r.payload.get("job"), r.payload.get("generation")):
            float(r.payload.get("consistency_at", 0.0))
        for r in orch.journal.records
        if r.kind == "checkpoint-commit"
    }
    rpos = []
    for payload in restore_commits:
        consistency = consistency_by_gen.get(
            (payload.get("job"), payload.get("generation"))
        )
        if consistency is not None and drill.killed_at is not None:
            rpos.append(max(drill.killed_at - consistency, 0.0))
        else:
            rpos.append(float(payload.get("rpo_s", 0.0)))
    rtos = [float(p.get("rto_s", 0.0)) for p in restore_commits]

    return HostFailureScenarioResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        kill_host=drill.victim or "",
        kill_at_s=kill_at_s,
        killed_at_s=(
            round(drill.killed_at - drill.start_at, 3)
            if drill.killed_at is not None
            else None
        ),
        checkpoint_period_s=checkpoint_period_s,
        cut_at_s=cut_at_s,
        incident_classes=sorted({i.klass for i in drill.incidents()}),
        generations_committed=sum(
            1 for r in orch.journal.records if r.kind == "checkpoint-commit"
        ),
        checkpoint_skips=sum(len(s.skips) for s in drill.services),
        rpo_s=round(max(rpos), 4) if rpos else None,
        rpo_bound_s=checkpoint_period_s,
        restore_rto_s=round(max(rtos), 4) if rtos else None,
        restored_jobs=sorted(
            {str(p.get("job")) for p in restore_commits}
        ),
        adopted_vms=sorted(
            {str(v) for p in restore_commits for v in p.get("adopted", ())}
        ),
        vms_lost_at_kill=sorted(drill.vms_lost_at_kill),
        stranded=sum(1 for r in orch.requests if not r.terminal),
        crash_injected=crash_during_restore,
        crash_site=crash_site if crash_during_restore else "",
        double_restored=sorted(
            [list(k) for k, v in commit_counts.items() if v > 1]
        ),
        spare_double_leases=[list(d) for d in orch.arbiter.double_leases],
        **drill.summary(),
    )
