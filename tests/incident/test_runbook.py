"""RunbookExecutor: journaled steps, timeout/retry, crash-safe resume."""

from __future__ import annotations

import pytest

from repro.errors import ControllerCrashError, IncidentError
from repro.incident.correlator import RESOLVED, Incident
from repro.incident.runbook import DEFAULT_RUNBOOK, RunbookExecutor, RunbookStep
from repro.orchestrator import FleetOrchestrator
from repro.recovery.checkpoints import FleetCheckpointService
from repro.storage.nfs import NfsServer
from repro.testbed import create_job, provision_vms
from repro.units import GiB
from repro.vmm.vm import RunState

from tests.conftest import drive


def _incident(klass="fiber-cut", links=(), hosts=(), jobs=(), iid=9000):
    return Incident(
        incident_id=iid,
        opened_at=1.0,
        first_anomaly_at=1.0,
        klass=klass,
        severity="critical",
        links=set(links),
        hosts=set(hosts),
        jobs=set(jobs),
    )


@pytest.fixture
def orch(cluster44):
    return FleetOrchestrator(cluster44)


def _journal_kinds(journal, incident_id):
    return [
        (r.kind, r.payload.get("step"))
        for r in journal.records
        if r.kind.startswith("incident") and r.payload.get("incident") == incident_id
    ]


def test_unknown_class_raises(cluster44, orch):
    executor = RunbookExecutor(cluster44, orch)
    incident = _incident(klass="alien-invasion")

    def run():
        yield from executor.execute(incident)

    with pytest.raises(IncidentError, match="no runbook"):
        drive(cluster44.env, run())


def test_unknown_action_raises(cluster44, orch):
    executor = RunbookExecutor(
        cluster44, orch, runbook={"fiber-cut": (RunbookStep("warp-core"),)}
    )
    incident = _incident()

    def run():
        yield from executor.execute(incident)

    with pytest.raises(IncidentError, match="unknown runbook action"):
        drive(cluster44.env, run())


def test_steps_journal_intent_then_commit_in_order(cluster44, orch):
    runbook = {
        "fiber-cut": (
            RunbookStep("blacklist-links", timeout_s=5.0),
            RunbookStep("readmit", timeout_s=5.0),
        )
    }
    executor = RunbookExecutor(cluster44, orch, runbook=runbook)
    incident = _incident(links={"wan:x"})
    drive(cluster44.env, executor.execute(incident))

    assert _journal_kinds(orch.journal, incident.incident_id) == [
        ("incident-open", None),
        ("incident-action-intent", 0),
        ("incident-action-commit", 0),
        ("incident-action-intent", 1),
        ("incident-action-commit", 1),
        ("incident-resolved", None),
    ]
    assert incident.status == "resolved"
    assert executor.executed == [
        (incident.incident_id, 0, "blacklist-links"),
        (incident.incident_id, 1, "readmit"),
    ]


def test_blacklist_and_readmit_mutate_planner(cluster44, orch):
    runbook = {"fiber-cut": (RunbookStep("blacklist-links"),)}
    executor = RunbookExecutor(cluster44, orch, runbook=runbook)
    incident = _incident(links={"wan:x"}, iid=9001)
    drive(cluster44.env, executor.execute(incident))
    assert orch.planner.blacklisted == {"wan:x"}
    executor._act_readmit(incident, {})
    assert orch.planner.blacklisted == set()


def test_switch_postcopy_saves_and_readmit_restores_policy(cluster44, orch):
    runbook = {
        "fiber-cut": (
            RunbookStep("switch-postcopy", {"mode": "always"}),
            RunbookStep("readmit"),
        )
    }
    executor = RunbookExecutor(cluster44, orch, runbook=runbook)
    before = orch.ninja.migration_policy
    incident = _incident(iid=9002)
    drive(cluster44.env, executor.execute(incident))
    # Flipped during remediation, restored by readmit.
    assert orch.ninja.migration_policy is before


def test_raise_floor_keeps_higher_existing_floor(cluster44, orch):
    orch.config.viability_floor_Bps = 99e6
    executor = RunbookExecutor(cluster44, orch)
    executor._act_raise_floor(_incident(iid=9003), {"floor_Bps": 50e6})
    assert orch.config.viability_floor_Bps == 99e6


def test_step_timeout_then_retry_exhaustion(cluster44, orch):
    runbook = {
        "fiber-cut": (
            RunbookStep(
                "await-heal", {"recheck_s": 1.0, "max_wait_s": 600.0},
                timeout_s=3.0, retries=1,
            ),
        )
    }
    executor = RunbookExecutor(cluster44, orch, runbook=runbook)
    # A link that never heals: awaiting it times out (twice), then fails.
    wan = next(
        link
        for link in cluster44.eth_fabric.topology.links()
    )
    wan.fail()
    incident = _incident(links={wan.name}, iid=9004)
    env = cluster44.env
    t0 = env.now

    def run():
        yield from executor.execute(incident)

    with pytest.raises(IncidentError, match="failed after 2 attempt"):
        drive(env, run())
    # Two attempts x 3 s timeout.
    assert env.now == pytest.approx(t0 + 6.0, abs=0.5)
    assert executor.executed == []  # nothing committed


def test_await_heal_returns_once_link_restores(cluster44, orch):
    executor = RunbookExecutor(cluster44, orch)
    wan = next(link for link in cluster44.eth_fabric.topology.links())
    wan.fail()
    incident = _incident(links={wan.name}, iid=9005)
    env = cluster44.env

    def healer():
        yield env.timeout(5.0)
        wan.restore()

    env.process(healer(), name="healer")
    drive(env, executor._act_await_heal(incident, {"recheck_s": 1.0}))
    assert env.now >= 5.0


def test_committed_steps_are_skipped_on_reexecution(cluster44, orch):
    runbook = {
        "fiber-cut": (
            RunbookStep("blacklist-links"),
            RunbookStep("switch-postcopy", {"mode": "fallback"}),
            RunbookStep("readmit"),
        )
    }
    incident = _incident(links={"wan:x"}, iid=9006)
    first = RunbookExecutor(cluster44, orch, runbook=runbook)
    # Crash after step 0 commits: arm the crash at the *second* action.
    cluster44.faults.arm(
        "incident.action.switch-postcopy",
        error=ControllerCrashError("mid-remediation crash"),
    )

    def run_first():
        yield from first.execute(incident)

    with pytest.raises(ControllerCrashError):
        drive(cluster44.env, run_first())
    assert first.executed == [(incident.incident_id, 0, "blacklist-links")]
    # Intent for step 1 journaled, but no commit.
    kinds = _journal_kinds(orch.journal, incident.incident_id)
    assert ("incident-action-intent", 1) in kinds
    assert ("incident-action-commit", 1) not in kinds

    # Successor executor over the same journal.
    second = RunbookExecutor(cluster44, orch, runbook=runbook)
    assert second.committed_steps(incident.incident_id) == {0}
    resumed = _incident(links={"wan:x"}, iid=9006)
    drive(cluster44.env, second.execute(resumed))
    # Step 0 was NOT double-executed; steps 1-2 ran exactly once.
    assert second.executed == [
        (incident.incident_id, 1, "switch-postcopy"),
        (incident.incident_id, 2, "readmit"),
    ]
    assert resumed.status == "resolved"
    assert resumed.actions[0].endswith("(recovered: skipped)")


def test_already_resolved_incident_is_a_noop(cluster44, orch):
    runbook = {"fiber-cut": (RunbookStep("blacklist-links"),)}
    executor = RunbookExecutor(cluster44, orch, runbook=runbook)
    incident = _incident(links={"wan:x"}, iid=9007)
    drive(cluster44.env, executor.execute(incident))
    again = RunbookExecutor(cluster44, orch, runbook=runbook)
    replay = _incident(links={"wan:x"}, iid=9007)
    drive(cluster44.env, again.execute(replay))
    assert again.executed == []
    assert replay.status == "resolved"


def test_default_runbook_covers_all_classes():
    for klass in ("fiber-cut", "host-failure", "degraded-wan", "congestion"):
        steps = DEFAULT_RUNBOOK[klass]
        assert steps, klass
        # Every class restores service somewhere (stamps MTTR).
        assert any(s.restores_service for s in steps), klass


def test_host_death_before_any_checkpoint_reports_the_job_lost(cluster44, orch):
    """A host dies before its job's first checkpoint generation commits:
    the restore step has nothing to restore from.  It must fail at once
    with the job named, not wait out its timeout, and the VM stays lost."""
    env = cluster44.env
    qemus = provision_vms(cluster44, ["ib01"], memory_bytes=1 * GiB)
    job = create_job(cluster44, qemus, procs_per_vm=1)
    drive(env, job.init(), name="init")
    orch.register_job("j0", job, qemus)
    # A checkpoint service is attached but has never run a generation.
    service = FleetCheckpointService(cluster44, orch.store, NfsServer(env), orch.journal)
    executor = RunbookExecutor(cluster44, orch, checkpoints=service)
    assert cluster44.fail_host("ib01") == [qemus[0].vm.name]
    incident = _incident(klass="host-failure", hosts={"ib01"}, jobs={"j0"})
    t0 = env.now

    with pytest.raises(IncidentError, match="j0: no committed checkpoint generation"):
        drive(env, executor.execute(incident))

    restore = DEFAULT_RUNBOOK["host-failure"][-1]
    assert restore.action == "restore-from-checkpoint"
    assert env.now - t0 < restore.timeout_s
    assert qemus[0].vm.state is RunState.SHUTOFF
    assert executor.restores == []
    assert incident.status != RESOLVED
    assert not orch.journal.restore_commit_for(incident.incident_id, "j0")
