"""Continuous-arrival scale mode: fleet invariants and kernel parity."""

import pytest

import repro.orchestrator.continuous
from repro.errors import FleetError
from repro.network.flows_reference import GlobalResolveFlowNetwork
from repro.orchestrator.continuous import (
    CHURN,
    CONSOLIDATE,
    DRAIN,
    ContinuousFleet,
    ScaleConfig,
    ScaleResult,
    run_scale_scenario,
)
from repro.sim.core import Environment
from repro.sim.trace import Tracer

#: Small, fast campaign shared by most tests (~0.1 s wall).
_SMALL = dict(n_vms=24, k=4, vms_per_host=4, duration_s=60.0,
              arrival_rate_per_s=2.0, seed=11)


def test_requires_free_slots():
    with pytest.raises(FleetError):
        ContinuousFleet(Environment(), ScaleConfig(n_vms=128, k=4, vms_per_host=8))


def test_campaign_runs_and_accounts():
    result = run_scale_scenario(ScaleConfig(**_SMALL))
    assert result.n_hosts == 16
    assert result.duration_s >= 60.0
    assert result.migrations_completed > 0
    assert result.migrations_completed + result.rejected == result.moves_requested
    assert result.flows_started == result.flows_completed
    assert result.rounds_total >= result.migrations_completed
    assert result.bytes_moved > 0
    assert result.solver_calls > 0 and result.solver_p99_s >= result.solver_p50_s
    assert sum(result.requests.values()) > 0


def test_campaign_is_deterministic_per_seed():
    a = run_scale_scenario(ScaleConfig(**_SMALL))
    b = run_scale_scenario(ScaleConfig(**_SMALL))
    assert a.moves_requested == b.moves_requested
    assert a.migrations_completed == b.migrations_completed
    assert a.flows_started == b.flows_started
    assert a.bytes_moved == b.bytes_moved
    assert a.duration_s == b.duration_s


def test_kernel_arms_agree_on_fleet_outcomes(monkeypatch):
    """The incremental and global-resolve kernels are different engines
    for the same fluid model: identical traffic, identical outcomes."""
    inc = run_scale_scenario(ScaleConfig(**_SMALL))
    monkeypatch.setattr(
        repro.orchestrator.continuous, "FlowNetwork", GlobalResolveFlowNetwork
    )
    leg = run_scale_scenario(ScaleConfig(**_SMALL))
    assert inc.moves_requested == leg.moves_requested
    assert inc.migrations_completed == leg.migrations_completed
    assert inc.flows_started == leg.flows_started
    assert inc.bytes_moved == pytest.approx(leg.bytes_moved, rel=1e-9)
    assert inc.duration_s == pytest.approx(leg.duration_s, rel=1e-6)


def test_slot_accounting_survives_churn():
    env = Environment()
    fleet = ContinuousFleet(env, ScaleConfig(**_SMALL))
    fleet.start()
    env.run()
    assert fleet.in_flight == 0
    assert sum(fleet.host_load.values()) == fleet.config.n_vms
    assert all(0 <= n <= fleet.config.vms_per_host for n in fleet.host_load.values())
    for host, vms in fleet._host_vms.items():
        assert len(vms) == fleet.host_load[host]
        assert all(vm.host == host for vm in vms)


def test_admission_cap_rejects_excess():
    config = ScaleConfig(n_vms=24, k=4, vms_per_host=4, duration_s=120.0,
                         arrival_rate_per_s=8.0, max_concurrent=2, seed=11)
    result = run_scale_scenario(config)
    assert result.rejected > 0
    assert result.migrations_completed + result.rejected == result.moves_requested


def test_request_mix_reaches_all_handlers():
    config = ScaleConfig(**_SMALL, mix={CHURN: 0.4, CONSOLIDATE: 0.3, DRAIN: 0.3})
    result = run_scale_scenario(config)
    assert all(result.requests[k] > 0 for k in (CHURN, CONSOLIDATE, DRAIN))


def test_tracer_records_migrations():
    tracer = Tracer()
    result = run_scale_scenario(ScaleConfig(**_SMALL), tracer=tracer)
    assert tracer.count("scale", "migrated") == result.migrations_completed
    record = tracer.first("scale", "migrated")
    assert record.fields["src"] != record.fields["dst"]
    assert record.fields["rounds"] >= 1


def test_result_to_dict_is_json_ready():
    import json

    result = run_scale_scenario(ScaleConfig(**_SMALL))
    payload = result.to_dict()
    assert payload["events_per_s"] == pytest.approx(result.events_per_s)
    assert payload["wall_s_per_sim_hour"] == pytest.approx(result.wall_s_per_sim_hour)
    json.dumps(payload)  # must serialize cleanly


def test_zero_division_guards():
    empty = ScaleResult(
        n_vms=0, n_hosts=0, k=0, duration_s=0.0, wall_s=0.0,
        requests={}, moves_requested=0, migrations_completed=0, rejected=0,
        starved=0, rounds_total=0, bytes_moved=0.0, sim_events=0,
        flows_started=0, flows_completed=0, solver_calls=0,
        solver_flows_touched=0, solver_p50_s=0.0, solver_p99_s=0.0,
        solver_total_s=0.0,
    )
    assert empty.events_per_s == float("inf")
    assert empty.wall_s_per_sim_hour == 0.0
