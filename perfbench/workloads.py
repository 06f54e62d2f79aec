"""The three benchmark workloads and their output checks.

Each workload is one function ``(seed, traced) -> Outcome``.  It builds
its inputs from ``seed`` through the program's public entry points,
times set-up and the run separately (``gc.collect()`` before each timed
region that starts outside the simulation), checks the outputs, and
reads the program's own counters off the objects it created.  With
``traced=True`` the same work runs under span wrappers
(``spans.traced``) and the outcome also carries the span summary the
per-layer metrics are computed from.
"""

from __future__ import annotations

import gc
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.network.flows as flows_mod
import repro.orchestrator.planner as planner_mod
from repro.analysis.experiments import run_fig7_npb
from repro.core.ninja import NinjaMigration
from repro.core.scheduler import CloudScheduler
from repro.incident.detectors import Detector
from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.incident.telemetry import LinkTelemetryProbe, TelemetryBus
from repro.mpi.runtime import MpiJob, MpiProcess
from repro.network.fattree import FatTree
from repro.network.flows import FlowNetwork
from repro.orchestrator.continuous import ContinuousFleet, ScaleConfig
from repro.orchestrator.executor import FleetOrchestrator
from repro.orchestrator.planner import WavePlanner
from repro.orchestrator.scenario import run_fleet_crash_scenario, run_fleet_scenario
from repro.recovery.journal import MigrationJournal
from repro.recovery.recovery import RecoveryManager
from repro.sim.core import Environment
from repro.sim.fairshare import FairShare
from repro.sim.trace import Tracer
from repro.vmm.guest_memory import GuestMemory
from repro.workloads.npb import NpbWorkload

from perfbench.calibrate import clock
from perfbench.spans import SpanSummary, Target, collecting, traced

#: ``vms1024_hour`` of ``benchmarks/test_scale.py``: 1,024 VMs on a k=16
#: fat-tree, one simulated hour of open Poisson arrivals.
FLEET_HOUR = dict(
    n_vms=1024, k=16, vms_per_host=2, duration_s=3600.0,
    arrival_rate_per_s=12.0, max_concurrent=256, rack_local_frac=0.9,
    mix={"churn": 0.92, "consolidate": 0.04, "drain": 0.04},
)

#: Figure 7's CG class D pair; ``run_fig7_npb``'s defaults give 8 IB VMs
#: x 8 ranks and one IB->IB Ninja migration three minutes after the start.
NPB_BENCH = "CG"

#: Span targets: (owner, attribute, span name, layer, busy group).
TARGETS = [
    Target(Environment, "step", "sim.step", "sim", "sim.step"),
    Target(FairShare, "submit", "sim.fairshare.submit", "sim.fairshare", "sim.fairshare"),
    Target(FairShare, "cancel", "sim.fairshare.cancel", "sim.fairshare", "sim.fairshare"),
    Target(FlowNetwork, "start", "network.flows.start", "network.flows", "network.flows.start"),
    Target(FlowNetwork, "cancel", "network.flows.cancel", "network.flows", "network.flows.start"),
    # Completions enter the flow layer through this event callback.
    Target(FlowNetwork, "_on_wakeup", "network.flows.settle", "network.flows",
           "network.flows.settle"),
    Target(flows_mod, "compute_maxmin_flow_rates", "network.flows.solve",
           "network.flows", "network.flows.solve"),
    Target(FatTree, "path", "network.fattree.path", "network.fattree", "network.fattree.path"),
    # The continuous fleet's driver enters it per request and per migration
    # through these two; it has no public per-request call.
    Target(ContinuousFleet, "_handle", "orchestrator.continuous.handle",
           "orchestrator.continuous", "orchestrator.continuous.handle"),
    Target(ContinuousFleet, "_migrate", "orchestrator.continuous.migrate",
           "orchestrator.continuous", "orchestrator.continuous.migrate"),
    Target(FleetOrchestrator, "submit", "orchestrator.submit", "orchestrator",
           "orchestrator.submit"),
    Target(planner_mod, "estimate_entry_bytes", "orchestrator.planner.estimate",
           "orchestrator", "orchestrator.planner.estimate"),
    Target(WavePlanner, "analyze", "orchestrator.planner.analyze", "orchestrator",
           "orchestrator.planner.analyze"),
    Target(WavePlanner, "waves", "orchestrator.planner.waves", "orchestrator",
           "orchestrator.planner.analyze"),
    Target(WavePlanner, "destination_swap", "orchestrator.planner.destination_swap",
           "orchestrator", "orchestrator.planner.analyze"),
    Target(GuestMemory, "class_counts", "vmm.guest_memory.class_counts", "vmm",
           "vmm.guest_memory.scan"),
    Target(GuestMemory, "round_accounting", "vmm.guest_memory.round_accounting", "vmm",
           "vmm.guest_memory.scan"),
    Target(MpiProcess, "send", "mpi.send", "mpi", "mpi.send"),
    Target(MpiProcess, "isend", "mpi.isend", "mpi", "mpi.send"),
    Target(MpiProcess, "recv", "mpi.recv", "mpi", "mpi.send"),
    Target(NinjaMigration, "execute", "core.ninja.execute", "core.ninja", "core.ninja.execute"),
    Target(MigrationJournal, "append", "recovery.journal.append", "recovery.journal",
           "recovery.journal.append"),
    Target(RecoveryManager, "recover", "recovery.journal.recover", "recovery.journal",
           "recovery.journal.replay"),
    Target(Tracer, "emit", "sim.trace.emit", "sim.trace", "sim.trace.emit"),
    Target(Tracer, "emit_batch", "sim.trace.emit_batch", "sim.trace", "sim.trace.emit"),
    Target(LinkTelemetryProbe, "sample_once", "incident.probe", "incident",
           "incident.telemetry"),
    Target(TelemetryBus, "publish", "incident.publish", "incident", "incident.telemetry"),
    Target(Detector, "observe", "incident.detector.observe", "incident",
           "incident.detector"),
]

#: Layers whose self time is reported, in report order.
LAYERS = [
    "sim", "sim.fairshare", "network.flows", "network.fattree",
    "orchestrator.continuous", "orchestrator", "vmm", "mpi", "core.ninja",
    "recovery.journal", "sim.trace", "incident", "unattributed",
]

#: Program objects whose own counters every run reads.
COLLECTED = [
    Environment, FlowNetwork, MigrationJournal, Tracer, MpiJob, FleetOrchestrator,
    NpbWorkload, CloudScheduler,
]


@dataclass
class Outcome:
    """What one workload run produced."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Output checks by name (a failed check is a failed operation).
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Simulated results (deterministic per seed).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Work counters the program keeps itself (deterministic per seed).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values read from program objects (not from spans).
    layer: Dict[str, float] = field(default_factory=dict)
    spans: Optional[SpanSummary] = None

    def count_failed_checks(self) -> None:
        self.failed += sum(1 for ok in self.checks.values() if not ok)


class _Probes:
    """Observers that read arguments/results of wrapped calls."""

    def __init__(self) -> None:
        self.solve_sizes: List[int] = []
        self.pages_scanned = 0
        self.ninja_results: list = []
        self._open_starts: Dict[str, float] = {}
        self.migration_latency_s: List[float] = []

    def on_solve(self, args, kwargs, result) -> None:
        self.solve_sizes.append(len(args[0]))

    def on_scan(self, args, kwargs, result) -> None:
        self.pages_scanned += args[0].npages

    def on_flow_start(self, args, kwargs, result) -> None:
        label = kwargs.get("label", "")
        if label.startswith("mig:") and label not in self._open_starts:
            self._open_starts[label] = args[0].env.now

    def on_migrate_done(self, args, kwargs, result) -> None:
        fleet, vm = args[0], args[1]
        started = self._open_starts.pop(f"mig:{vm.name}")
        self.migration_latency_s.append(fleet.env.now - started)

    def on_ninja(self, args, kwargs, result) -> None:
        self.ninja_results.append(result)

    def observers(self) -> Dict[str, Callable]:
        return {
            "network.flows.solve": self.on_solve,
            "network.flows.start": self.on_flow_start,
            "orchestrator.continuous.migrate": self.on_migrate_done,
            "vmm.guest_memory.class_counts": self.on_scan,
            "vmm.guest_memory.round_accounting": self.on_scan,
            "core.ninja.execute": self.on_ninja,
        }


def _instrumented(traced_run: bool, on_init: Optional[Dict[type, Callable]] = None):
    """Context for one run: collectors always, span wrappers if traced.

    ``on_init`` adds constructor hooks to the collected classes.
    """
    stack = ExitStack()
    hooks = {FlowNetwork: FlowNetwork.enable_solver_stats, **(on_init or {})}
    found = stack.enter_context(collecting(COLLECTED, on_init=hooks))
    probes = _Probes()
    rec = (
        stack.enter_context(traced(TARGETS, observers=probes.observers()))
        if traced_run
        else None
    )
    return stack, found, probes, rec


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * q / 100.0), len(ordered) - 1)]


def _program_counters(found: Dict[type, list]) -> tuple:
    """(counters, per-layer values) read off the objects a run created."""
    stats = [n.solver_stats for n in found[FlowNetwork] if n.solver_stats is not None]
    samples = [s for st in stats for s in st.samples_s]
    orchs = found[FleetOrchestrator]
    mpi_bytes = sum(sum(job.comm_stats().values()) for job in found[MpiJob])
    routes: Dict[str, int] = {}
    for job in found[MpiJob]:
        for name, n in job.transports_in_use().items():
            routes[name] = routes.get(name, 0) + n
    counters = {
        "sim.events": sum(e.events_processed for e in found[Environment]),
        "network.flows.starts": sum(n.total_started for n in found[FlowNetwork]),
        "network.flows.completed": sum(n.total_completed for n in found[FlowNetwork]),
        "network.flows.solves": sum(s.calls for s in stats),
        "network.flows.flows_touched": sum(s.flows_touched for s in stats),
        "mpi.bytes": mpi_bytes,
        "recovery.journal.appends": sum(len(j.records) for j in found[MigrationJournal]),
        "sim.trace.emits": sum(len(t.records) for t in found[Tracer]),
        "orchestrator.submits": sum(len(o.requests) for o in orchs),
        "orchestrator.deferred": sum(o.admission.stats.deferred_total for o in orchs),
        "orchestrator.destination_swaps": sum(o.swaps_applied for o in orchs),
    }
    layer = {
        "network.flows.solve.p99_us": _percentile(samples, 99) * 1e6 if samples else 0.0,
        "mpi.routes.openib": routes.get("openib", 0),
        "mpi.routes.tcp": routes.get("tcp", 0),
    }
    return counters, layer


def _read_counters(out: Outcome, found, probes: _Probes, rec) -> None:
    """Fill counters (and, traced, spans) once every wrapper is gone."""
    out.counters, out.layer = _program_counters(found)
    if rec is not None:
        out.spans = rec.reduce()
        sizes = probes.solve_sizes
        out.layer.update({
            "network.flows.singleton_solves": sum(1 for n in sizes if n == 1),
            "vmm.guest_memory.pages_scanned": probes.pages_scanned,
            "core.ninja.aborts": sum(1 for r in probes.ninja_results if r.aborted),
            "vmm.migration.rounds": sum(
                len(s.rounds) for r in probes.ninja_results for s in r.migration_stats.values()
            ),
            "vmm.migration.wire_bytes": sum(
                s.wire_bytes for r in probes.ninja_results for s in r.migration_stats.values()
            ),
        })


# ---------------------------------------------------------------------------
# fleet-hour
# ---------------------------------------------------------------------------


def fleet_hour(seed: int, traced_run: bool = False) -> Outcome:
    """``ContinuousFleet`` over one simulated hour (open loop, 12 req/s)."""
    out = Outcome()
    config = ScaleConfig(**{**FLEET_HOUR, "mix": dict(FLEET_HOUR["mix"])}, seed=seed)
    stack, found, probes, rec = _instrumented(traced_run)
    with stack:
        t0 = clock()
        env = Environment()
        fleet = ContinuousFleet(env, config)
        fleet.start()
        out.setup_s = clock() - t0
        gc.collect()
        t1 = clock()
        env.run()
        out.wall_s = clock() - t1
    _read_counters(out, found, probes, rec)

    out.attempted = fleet.moves_requested + fleet.starved
    out.checks = {
        "completed+rejected==requested":
            fleet.migrations_completed + fleet.rejected == fleet.moves_requested,
        "flows started==completed":
            fleet.flows.total_started == fleet.flows.total_completed,
        "horizon covered": env.now >= config.duration_s,
        "no migration in flight": fleet.in_flight == 0,
    }
    out.sim = {
        "sim_duration_s": env.now,
        "sim_migrations": fleet.migrations_completed,
        "sim_bytes_moved_gb": fleet.bytes_moved / 1e9,
    }
    out.layer.update({
        "orchestrator.continuous.requests": sum(fleet.requests.values()),
        "orchestrator.continuous.starved": fleet.starved,
        "orchestrator.continuous.rejected": fleet.rejected,
    })
    out.counters["orchestrator.continuous.moves"] = fleet.moves_requested
    out.counters["orchestrator.continuous.starved"] = fleet.starved
    if rec is not None:
        lat = probes.migration_latency_s
        out.checks["latency sample per migration"] = len(lat) == fleet.migrations_completed
        out.sim["sim_migration_p50_s"] = _percentile(lat, 50)
        out.sim["sim_migration_p99_s"] = _percentile(lat, 99)
        out.sim["sim_migration_samples"] = len(lat)
    out.failed = fleet.rejected
    out.count_failed_checks()
    return out


# ---------------------------------------------------------------------------
# npb-cg
# ---------------------------------------------------------------------------


def npb_cg(seed: int, traced_run: bool = False) -> Outcome:
    """Figure 7's CG class D pair, run by ``run_fig7_npb`` itself.

    Constructor hooks split its host time into set-up and run: an arm
    starts when its cluster's :class:`Environment` is built, and its
    set-up ends when its :class:`NpbWorkload` is built, right after
    ``job.init()``.
    """
    out = Outcome()
    arms: List[Dict[str, float]] = []

    def arm_start(env: Environment) -> None:
        if arms:
            arms[-1]["end"] = clock()
        gc.collect()
        arms.append({"start": clock()})

    def setup_done(workload: NpbWorkload) -> None:
        arms[-1]["run"] = clock()

    stack, found, probes, rec = _instrumented(
        traced_run, on_init={Environment: arm_start, NpbWorkload: setup_done}
    )
    with stack:
        result = run_fig7_npb(NPB_BENCH, seed=seed)
        arms[-1]["end"] = clock()
    out.setup_s = sum(a["run"] - a["start"] for a in arms)
    out.wall_s = sum(a["end"] - a["run"] for a in arms)
    _read_counters(out, found, probes, rec)

    ninja = found[CloudScheduler][0].triggers[0].result
    b = result.breakdown
    frozen = b.migration_s + b.hotplug_s + b.linkup_s
    routes = found[MpiJob][-1].transports_in_use()
    out.attempted = 3
    out.failed = 1 if ninja.aborted else 0
    out.checks = {
        "two arms, one Ninja sequence":
            len(arms) == 2 and len(found[CloudScheduler]) == 1,
        "overhead within [frozen-5, total+10]":
            frozen - 5.0 <= result.overhead_s <= b.total_s + 10.0,
        "baseline in 300..1500 s": 300.0 < result.baseline_s < 1500.0,
        "hotplug in 8..16 s": 8.0 < b.hotplug_s < 16.0,
        "linkup 28.5 +- 1.5 s": abs(b.linkup_s - 28.5) <= 1.5,
        "ranks back on openib after resume":
            routes.get("openib", 0) > 0 and routes.get("tcp", 0) == 0,
    }
    out.sim = {
        "sim_baseline_s": result.baseline_s,
        "sim_overhead_s": result.overhead_s,
        "sim_migration_s": b.migration_s,
        "sim_hotplug_s": b.hotplug_s,
        "sim_linkup_s": b.linkup_s,
    }
    out.count_failed_checks()
    return out


# ---------------------------------------------------------------------------
# control-drill
# ---------------------------------------------------------------------------


def _drill(fn: Callable, **kwargs) -> tuple:
    """Run one canned scenario; split host time at its first submission.

    Everything before the first ``fleet submitted`` trace record is the
    scenario's set-up (cluster build, provisioning, job init).  The
    scenario gets its own fresh :class:`Tracer`, exactly as it would
    build by default.
    """
    tracer = Tracer()
    marks: Dict[str, float] = {}

    def first_submit(record) -> None:
        unsubscribe()
        marks["t1"] = clock()

    unsubscribe = tracer.subscribe("fleet.submitted", first_submit)
    gc.collect()
    t0 = clock()
    result = fn(tracer=tracer, **kwargs)
    t2 = clock()
    return result, marks["t1"] - t0, t2 - marks["t1"]


def control_drill(seed: int, traced_run: bool = False) -> Outcome:
    """Fleet drain, controller crash + replay, fiber cut, host failure."""
    out = Outcome()
    stack, found, probes, rec = _instrumented(traced_run)
    with stack:
        fleet, s1, w1 = _drill(run_fleet_scenario, jobs=8, sequenced=True, seed=seed)
        crash, s2, w2 = _drill(run_fleet_crash_scenario, seed=seed)
        cut, s3, w3 = _drill(run_incident_scenario, seed=seed)
        host, s4, w4 = _drill(run_host_failure_scenario, seed=seed)
    out.setup_s = s1 + s2 + s3 + s4
    out.wall_s = w1 + w2 + w3 + w4
    _read_counters(out, found, probes, rec)

    requests = [
        fleet.completed + fleet.aborted + fleet.failed,
        crash.completed + crash.aborted + crash.failed,
        cut.completed + cut.aborted + cut.failed + cut.cancelled,
        host.completed + host.aborted + host.failed + host.cancelled + host.stranded,
    ]
    lost = len(crash.parked_vms) + len(cut.lost_vms) + len(host.lost_vms)
    out.attempted = sum(requests)
    out.failed = (
        fleet.failed + crash.failed + cut.failed + host.failed
        + lost + len(host.spare_double_leases)
    )
    out.checks = {
        "all 8 drain jobs complete": fleet.completed == 8,
        "crash recovered": crash.crashed and crash.recovered,
        "no lost VMs": lost == 0,
        "no double-executed steps": not cut.double_executed and not host.double_executed,
        "no double restores": not host.double_restored,
        "no spare double-lease": not host.spare_double_leases,
        "fiber cut resolved": cut.all_resolved and cut.mttr_s is not None,
        "host failure resolved": host.all_resolved and bool(host.restored_jobs),
        "RPO <= checkpoint period":
            host.rpo_s is not None and host.rpo_s <= host.checkpoint_period_s,
    }
    out.sim = {
        "sim_makespan_s": fleet.makespan_s,
        "sim_crash_makespan_s": crash.makespan_s,
        "sim_mttr_s": cut.mttr_s if cut.mttr_s is not None else math.nan,
        "sim_rpo_s": host.rpo_s if host.rpo_s is not None else math.nan,
        "sim_restore_rto_s": host.restore_rto_s if host.restore_rto_s is not None else math.nan,
    }
    out.layer["incident.alerts"] = cut.alerts + host.alerts
    out.count_failed_checks()
    return out


#: How each workload's run time (``wall_s``) scales with the calibration
#: kernel's speed (``calibrate.kernel_speed``): minus the slope of
#: log(measured wall) on log(kernel speed), fitted over 667 repetitions
#: at kernel speeds 0.31-1.04 (R^2 0.98-0.99).  The interpreter-bound
#: workloads track the kernel; the control drills, three quarters NumPy
#: page-class scans, slow down less than it under the same load.
ELASTICITY: Dict[str, float] = {"fleet-hour": 1.0, "npb-cg": 1.08, "control-drill": 0.64}

WORKLOADS: Dict[str, Callable[[int, bool], Outcome]] = {
    "fleet-hour": fleet_hour,
    "npb-cg": npb_cg,
    "control-drill": control_drill,
}
