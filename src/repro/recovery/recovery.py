"""Crash recovery: journal replay, reconciliation, roll-forward/roll-back.

After a controller crash the cluster holds *orphaned* state: guests may
be parked in ``symvirt_wait``, HCAs half-detached, QEMU precopy streams
still draining, reservations booked by a dead orchestrator.  The
:class:`RecoveryManager` turns the write-ahead journal plus the observed
world back into a safe one:

1. **Fence** — bump the cluster fencing epoch so any zombie controller
   command is rejected (:class:`~repro.errors.StaleEpochError`) instead
   of racing recovery's own QMP traffic.
2. **Replay** — fold the journal into per-migration snapshots; every
   sequence without a terminal record is recovery work.
3. **Reconcile** — the journal may *lag* the world (records are written
   after their guard), never lead it: recovery first waits out in-flight
   precopy streams and hotplug primitives, finishes interrupted ejects,
   then trusts observation over journal where they disagree (e.g. a
   ``resume`` intent plus zero parked VMs means the commit-point signal
   landed even if its record did not).
4. **Decide** — per sequence: *roll-forward* past the commit point
   (guests already run at their destinations; finish link-up, shed dead
   HCAs), *roll-back* before it (detach stray HCAs, migrate relocated
   VMs home, re-attach origin HCAs, release the owed SymVirt rounds).
5. **Re-seed** — moved-but-rolling-back VMs get their *origin* capacity
   reserved in the (fresh) :class:`~repro.orchestrator.state.FleetStateStore`
   while they travel home, so a resumed orchestrator cannot book the
   slot out from under them; the reservations are released once the VM
   lands.

Every action recovery takes is itself journalled (``recovery-begin`` /
``recovery-decision`` / ``rollback-action`` / ``recovered`` /
``recovery-complete``) — recovery of a crashed recovery replays cleanly
because the fold is idempotent.

The undo steps themselves — :func:`settle`, :func:`finish_partial_ejects`,
:func:`roll_back` and :func:`shed_dead_hcas` — are module-level and
shared: :meth:`~repro.core.ninja.NinjaMigration.execute` runs the same
ones on a live abort, fed from ``journal.snapshot(mid)`` of its own
sequence, so the live rollback and crash recovery cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import FleetError, PhaseTimeoutError, ReproError
from repro.network.fabric import PortState
from repro.recovery.journal import MigrationJournal, MigrationSnapshot
from repro.symvirt.controller import Controller

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.state import FleetStateStore
    from repro.sim.core import Environment
    from repro.vmm.qemu import QemuProcess

#: Poll interval while waiting for in-flight work to settle.
SETTLE_POLL_S = 0.05
#: Upper bound on settling: a migration stream that never resolves is
#: indistinguishable from a crashed QEMU, and an error beats a deadlock.
SETTLE_TIMEOUT_S = 3600.0
#: Bound on waiting for coordinators to (re)park during a roll-back.  A
#: crash before the checkpoint request means nobody will ever park — the
#: roll-back must not deadlock on a round that is not owed.
PARK_TIMEOUT_S = 120.0
#: Bound on recovery's wait for destination HCA ports to link-train.
LINKUP_TIMEOUT_S = 120.0
#: Quiet polls crash recovery demands before reconciling: a command the
#: dead controller issued just before dying is still on the wire for one
#: QMP round trip and only then shows up as in flight.
RECOVERY_QUIET_POLLS = 3


# -- the undo steps (shared by the live rollback and crash recovery) -----------


def settle(env: "Environment", qemus, quiet_polls: int = 0):
    """Wait until no VM in ``qemus`` has an in-flight migration stream or
    hotplug primitive (generator).

    Both are simulation processes of their own: they run on after a
    parallel phase fails fast, and after the controller that started them
    dies.  Undoing before they land would race their state transitions.
    Returns once ``quiet_polls + 1`` consecutive polls, ``SETTLE_POLL_S``
    apart, find nothing in flight.
    """
    deadline = env.now + SETTLE_TIMEOUT_S
    quiet = 0
    while True:
        busy = any(
            qemu.hotplug.active_ops
            or (qemu.current_migration is not None
                and qemu.current_migration.stats.in_flight)
            for qemu in qemus
        )
        quiet = 0 if busy else quiet + 1
        if quiet > quiet_polls:
            return
        if env.now >= deadline:
            raise PhaseTimeoutError("settle", SETTLE_TIMEOUT_S)
        yield env.timeout(SETTLE_POLL_S)


def finish_partial_ejects(cluster: "Cluster", qemus, tag: str, actions: List[str]) -> None:
    """Complete hotplug primitives that were interrupted mid-flight.

    A seated function with no guest driver is the signature of an
    interrupted attach (driver never probed) or detach (driver unbound,
    eject unfinished); either way the safe terminal state is "ejected".
    """
    for qemu in qemus:
        assignment = qemu.assignments.get(tag)
        kernel = qemu.vm.kernel
        if (
            assignment is not None
            and assignment.attached
            and kernel is not None
            and not kernel.has_driver(assignment.function)
        ):
            assignment.unseat()
            actions.append(f"finish-eject:{qemu.vm.name}")
            cluster.trace("recovery", "finish_eject", vm=qemu.vm.name, tag=tag)


def _acted(journal: MigrationJournal, mid: str, actions: List[str], action: str) -> None:
    """Report one undo step that acted (journalled after it landed: the
    journal may lag the world, never lead it)."""
    actions.append(action)
    journal.append("rollback-action", mid=mid, action=action)


def _bounded(env: "Environment", events, timeout_s: float):
    """Wait for all ``events`` or the timeout; returns True if they all
    fired (generator)."""
    if not events:
        return True
    barrier = env.all_of(events)
    clock = env.timeout(timeout_s)
    yield env.any_of([barrier, clock])
    return bool(barrier.triggered)


def roll_back(
    ctl: Controller,
    snap: MigrationSnapshot,
    journal: MigrationJournal,
    actions: List[str],
    store: Optional["FleetStateStore"] = None,
):
    """Undo a sequence that never reached its commit point (generator).

    Everything comes from the journal snapshot ``snap`` plus the observed
    world, in reverse phase order:

    ``detach-stray``
        eject HCAs this sequence attached on VMs away from their origin;
    ``migrate-back``
        precopy every relocated VM back to its origin host — except VMs
        with a journalled postcopy switchover, whose only runnable image
        is on the destination.  With a ``store``, each origin slot is
        re-seeded while the VM travels home, so a resumed orchestrator
        cannot book it;
    ``reattach-origin``
        re-attach the HCA on every VM that started with one;
    ``resume-guests``
        hand back the SymVirt rounds still owed (two minus the journalled
        signals), reported once per round.  Each wait for the park is
        bounded: coordinators that never got a checkpoint request never
        park.

    Only the steps that act are appended to ``actions``.  Returns the
    number of origin slots re-seeded.
    """
    tag = snap.tag
    stray = [
        a for a in ctl.agents
        if a.has_attached(tag) and a.qemu.node.name != snap.origin[a.qemu.vm.name]
    ]
    if stray:
        yield ctl._parallel(a.device_detach(tag) for a in stray)
        _acted(journal, snap.mid, actions, "detach-stray")

    moved = {
        a.qemu.vm.name: snap.origin[a.qemu.vm.name]
        for a in ctl.agents
        if a.qemu.node.name != snap.origin[a.qemu.vm.name]
        and a.qemu.vm.name not in snap.postcopy_vms
    }
    reseeded = 0
    if moved:
        if store is not None:
            for agent in ctl.agents:
                name = agent.qemu.vm.name
                if name not in moved:
                    continue
                try:
                    store.reserve(moved[name], agent.qemu.vm.memory.size_bytes, owner=snap.mid)
                    reseeded += 1
                except FleetError as err:
                    # The slot is contested; the migrate-back is the
                    # physical claim and must proceed regardless.
                    ctl.cluster.trace("recovery", "reseed_failed", vm=name, error=str(err))
        yield from ctl.migration([], [], mapping=moved)
        _acted(journal, snap.mid, actions, "migrate-back")

    pending = [
        a for a in ctl.agents
        if snap.had_attached.get(a.qemu.vm.name) and not a.has_attached(tag)
    ]
    if pending:
        yield ctl._parallel(a.device_attach(host="", tag=tag) for a in pending)
        _acted(journal, snap.mid, actions, "reattach-origin")

    for _ in range(max(2 - snap.signals, 0)):
        parked = yield from _bounded(
            ctl.env,
            [a.qemu.vm.hypercall.wait_parked() for a in ctl.agents],
            PARK_TIMEOUT_S,
        )
        if not parked:
            break
        yield from ctl.signal()
        _acted(journal, snap.mid, actions, "resume-guests")

    if store is not None and moved:
        store.release_owner(snap.mid)
    return reseeded


def shed_dead_hcas(
    ctl: Controller, tag: str, journal: MigrationJournal, mid: str, actions: List[str]
):
    """Past the commit point the move stands: eject every HCA whose port
    never trained, so the guests fall back to the Ethernet path
    (generator)."""
    dead = []
    for agent in ctl.agents:
        if agent.has_attached(tag):
            port = agent.qemu.assignments[tag].function.port
            if port is None or port.state is not PortState.ACTIVE:
                dead.append(agent)
    if dead:
        yield ctl._parallel(a.device_detach(tag) for a in dead)
        _acted(journal, mid, actions, "detach-dead-hca")


@dataclass
class RecoveryDecision:
    """What recovery concluded (and did) for one orphaned sequence."""

    mid: str
    label: str
    #: "roll-forward" | "roll-back"
    decision: str
    #: Deepest phase whose intent was journalled.
    phase_reached: str
    #: Why the decision fell where it did.
    basis: str = ""
    actions: List[str] = field(default_factory=list)
    #: VM name → host after recovery.
    final_hosts: Dict[str, str] = field(default_factory=dict)
    #: VMs still parked after recovery (must be empty).
    parked_after: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and not self.parked_after


@dataclass
class RecoveryReport:
    """Outcome of one full recovery pass."""

    epoch: int
    reason: str = ""
    decisions: List[RecoveryDecision] = field(default_factory=list)
    #: Origin-capacity reservations created while VMs travelled home.
    reseeded: int = 0
    #: Fleet requests that should be resubmitted to a fresh orchestrator.
    resubmit: List[Dict[str, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(d.ok for d in self.decisions)

    @property
    def rolled_forward(self) -> List[RecoveryDecision]:
        return [d for d in self.decisions if d.decision == "roll-forward"]

    @property
    def rolled_back(self) -> List[RecoveryDecision]:
        return [d for d in self.decisions if d.decision == "roll-back"]


class RecoveryManager:
    """Replays the journal after a controller crash and repairs the world."""

    def __init__(
        self,
        cluster: "Cluster",
        journal: MigrationJournal,
        store: Optional["FleetStateStore"] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.journal = journal
        self.store = store

    # -- world lookups ------------------------------------------------------------

    def _qemu(self, vm_name: str) -> Optional["QemuProcess"]:
        for node in self.cluster.nodes.values():
            for qemu in node.vms:
                if qemu.vm.name == vm_name:
                    return qemu
        return None

    def _qemus(self, snap: MigrationSnapshot) -> List["QemuProcess"]:
        qemus = []
        for name in snap.vms:
            qemu = self._qemu(name)
            if qemu is None:
                raise ReproError(f"recovery: VM {name!r} vanished from the cluster")
            qemus.append(qemu)
        return qemus

    # -- the recovery pass -----------------------------------------------------------

    def recover(self, reason: str = "controller crash"):
        """Run the full pass (generator — drive from a simulation process)."""
        epoch = self.cluster.fencing.bump(reason)
        self.cluster.trace("recovery", "begin", epoch=epoch, reason=reason)
        self.journal.append("recovery-begin", epoch=epoch, reason=reason)
        report = RecoveryReport(epoch=epoch, reason=reason)
        for snap in self.journal.unfinished():
            decision = yield from self._recover_one(snap, report)
            report.decisions.append(decision)
        report.resubmit = self._resubmission_specs(report)
        self.journal.append(
            "recovery-complete",
            epoch=epoch,
            sequences=len(report.decisions),
            rolled_forward=len(report.rolled_forward),
            rolled_back=len(report.rolled_back),
            clean=report.clean,
        )
        self.cluster.trace(
            "recovery", "complete", epoch=epoch,
            sequences=len(report.decisions), clean=report.clean,
        )
        return report

    # -- per-sequence ---------------------------------------------------------------

    def _decide(self, snap: MigrationSnapshot, qemus) -> tuple:
        """(decision, basis) for one orphaned sequence.

        The journal's ``commit-point`` record is authoritative when
        present.  When absent, observation breaks the tie for the one
        uncertain window: a journalled ``resume`` intent plus *zero*
        parked VMs means the second signal was delivered before the
        crash — the guests run at their destinations and yanking them
        back would tear a running job, so recovery rolls forward.
        """
        if snap.committed:
            return "roll-forward", "commit-point record"
        if snap.postcopy_vms:
            # A postcopy switchover is a per-VM point of no return: the
            # origin holds no runnable image, so the move must stand even
            # though the sequence-level commit point was never reached.
            return "roll-forward", "postcopy-switchover record"
        if "resume" in snap.intents:
            parked = [q.vm.name for q in qemus if q.vm.hypercall.parked]
            if not parked:
                return "roll-forward", "resume intent + no VM parked"
        return "roll-back", "no commit-point record"

    def _recover_one(self, snap: MigrationSnapshot, report: RecoveryReport):
        qemus = self._qemus(snap)
        ctl = Controller(self.cluster, qemus)  # fresh epoch: passes fencing
        yield from settle(self.env, qemus, quiet_polls=RECOVERY_QUIET_POLLS)
        decision_kind, basis = self._decide(snap, qemus)
        decision = RecoveryDecision(
            mid=snap.mid,
            label=snap.label,
            decision=decision_kind,
            phase_reached=snap.phase_reached,
            basis=basis,
        )
        self.journal.append(
            "recovery-decision", mid=snap.mid, decision=decision_kind, basis=basis,
        )
        self.cluster.trace(
            "recovery", "decision", mid=snap.mid, decision=decision_kind,
            basis=basis, phase=snap.phase_reached,
        )
        finish_partial_ejects(self.cluster, qemus, snap.tag, decision.actions)
        try:
            if decision_kind == "roll-forward":
                yield from self._roll_forward(snap, ctl, decision)
            else:
                report.reseeded += yield from roll_back(
                    ctl, snap, self.journal, decision.actions, store=self.store
                )
        except ReproError as err:
            decision.error = str(err)
        ctl.close()
        decision.final_hosts = {q.vm.name: q.node.name for q in qemus}
        decision.parked_after = [
            q.vm.name for q in qemus if q.vm.hypercall.parked
        ]
        self.journal.append(
            "recovered", mid=snap.mid, decision=decision_kind,
            actions=list(decision.actions), error=decision.error,
        )
        return decision

    def _roll_forward(self, snap: MigrationSnapshot, ctl: Controller, decision):
        """Past the commit point: the move stands.  Deliver a resume the
        crash swallowed, wait out link-up, then shed HCAs whose port
        never trains."""
        tag = snap.tag
        # The crash may have landed before the second signal's record but
        # after its delivery; if any VM is somehow still parked (crash at
        # resume intent resolved forward by journal), deliver the resume.
        parked = [a for a in ctl.agents if a.qemu.vm.hypercall.parked]
        if parked:
            yield ctl._parallel(a.signal() for a in parked)
            decision.actions.append("deliver-resume")
        training = []
        for agent in ctl.agents:
            if snap.attach.get(agent.qemu.vm.name) and agent.has_attached(tag):
                port = agent.qemu.assignments[tag].function.port
                if port is not None and port.state is not PortState.ACTIVE:
                    training.append(port.wait_active())
        if training:
            trained = yield from _bounded(self.env, training, LINKUP_TIMEOUT_S)
            decision.actions.append("await-linkup")
            if not trained:
                yield from shed_dead_hcas(
                    ctl, tag, self.journal, snap.mid, decision.actions
                )

    # -- fleet resubmission ------------------------------------------------------------

    def _resubmission_specs(self, report: RecoveryReport) -> List[Dict[str, object]]:
        """Journalled fleet requests that still need to run.

        A request whose last attempt rolled *forward* is effectively
        completed (the VMs moved); one that rolled back — or never
        started — is resubmitted to the successor orchestrator.
        """
        forward_labels = {d.label for d in report.rolled_forward}
        specs: List[Dict[str, object]] = []
        for state in self.journal.unfinished_requests():
            labels = [lbl for lbl in state.get("labels", []) if lbl]
            if labels and labels[-1] in forward_labels:
                continue
            specs.append(
                {
                    "job": state.get("job"),
                    "kind": state.get("request_kind", "fallback"),
                    "priority": state.get("priority", 0),
                    "dst_hosts": state.get("dst_hosts"),
                }
            )
        return specs
