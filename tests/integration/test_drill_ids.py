"""Request and incident ids are numbered per run, not per interpreter."""

from __future__ import annotations

import pytest

from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.orchestrator.scenario import run_fleet_crash_scenario, run_fleet_scenario
from repro.sim.trace import Tracer

DRILLS = {
    "fleet": lambda: run_fleet_scenario(jobs=2),
    "fleet-crash": lambda: run_fleet_crash_scenario(jobs=2, crash_at_time=2.0),
    "fiber-cut": lambda: run_incident_scenario(jobs=2, spares=1),
    "host-failure": lambda: run_host_failure_scenario(jobs=2, spares=1),
}


@pytest.mark.parametrize("drill", sorted(DRILLS))
def test_second_run_in_one_process_repeats_the_first(drill):
    assert DRILLS[drill]().to_dict() == DRILLS[drill]().to_dict()


def test_successor_request_ids_follow_the_dead_orchestrators():
    """Dead and successor orchestrators share the cluster's counter: the
    journal folds requests by id, so a resubmission must never reuse one."""
    tracer = Tracer()
    result = run_fleet_crash_scenario(jobs=4, tracer=tracer)
    assert result.crashed and result.resubmitted > 0
    ids = tracer.series("fleet", "submitted", "request")
    dead, successor = ids[: result.jobs], ids[result.jobs:]
    assert len(successor) == result.resubmitted
    assert min(successor) > max(dead)
