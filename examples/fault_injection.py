#!/usr/bin/env python
"""Transactional Ninja migration under injected faults.

Three scenarios on one 2+2 cluster pattern (fresh cluster each):

1. a **fatal** fault in the attach phase of a self-migration — the
   sequence aborts and rolls back from its journal (origin HCAs
   re-attach, guests resume), and the job recovers to openib;
2. a **transient** QMP failure during migration — absorbed by bounded
   retry with exponential backoff, sequence completes;
3. a **hung** detach phase — the per-phase timeout interrupts it and the
   rollback restores the original placement.

The ``rollback:`` line lists only the undo steps that acted, one
``resume-guests`` per SymVirt round handed back::

    --- fatal fault in attach: abort + rollback
      rollback: reattach-origin -> resume-guests
    ...
    --- hung detach: per-phase timeout + rollback
      rollback: resume-guests -> resume-guests

Run:  python examples/fault_injection.py
"""

from repro import CloudScheduler, build_agc_cluster, create_job, provision_vms
from repro import workloads
from repro.core.faults import RetryPolicy
from repro.core.ninja import NinjaMigration
from repro.errors import QmpError
from repro.units import GB, GiB


def build():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=2 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    env = cluster.env

    def bootstrap():
        yield from job.init()
        job.launch(
            workloads.BcastReduceLoop(iterations=200, bytes_per_node=1 * GB).rank_main
        )
        yield env.timeout(10.0)

    env.run(until=env.process(bootstrap()))
    return cluster, vms, job


def report(title, cluster, vms, job, result):
    print(f"--- {title}")
    print(f"  status:   {result.status}"
          + (f" (failed in {result.failed_phase!r})" if result.aborted else ""))
    if result.retries:
        print(f"  retries:  {result.retries}")
    if result.rollback_actions:
        print(f"  rollback: {' -> '.join(result.rollback_actions)}")
    cluster.env.run(until=cluster.env.now + 60.0)  # link training + BTL rebuild
    print(f"  VMs:      {[(q.vm.name, q.node.name, q.vm.state.name) for q in vms]}")
    print(f"  job:      {job.live_ranks}/{job.size} ranks, "
          f"transports {job.transports_in_use()}")
    print(f"  trace:    {cluster.tracer.count('ninja', 'retry')} retries, "
          f"{cluster.tracer.count('ninja', 'aborted')} aborts recorded\n")


def scenario_fatal_attach():
    cluster, vms, job = build()
    # Default error is a non-transient FaultInjectionError -> abort + rollback.
    cluster.faults.arm("ninja.attach")
    scheduler = CloudScheduler(cluster)
    plan = scheduler.ninja.self_migration_plan(vms, attach_ib=True)

    def main():
        return (yield from scheduler.run_now("demo", plan, job))

    result = cluster.env.run(until=cluster.env.process(main()))
    report("fatal fault in attach: abort + rollback", cluster, vms, job, result)


def scenario_transient_migration():
    cluster, vms, job = build()
    # A QmpError is transient: absorbed by retry with exponential backoff.
    cluster.faults.arm("qmp.migrate", error=QmpError("GenericError", "socket reset"))
    ninja = NinjaMigration(
        cluster, retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.5)
    )
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])

    def main():
        return (yield from ninja.execute(job, plan))

    result = cluster.env.run(until=cluster.env.process(main()))
    report("transient QMP fault: absorbed by retry", cluster, vms, job, result)


def scenario_hung_detach_timeout():
    cluster, vms, job = build()
    cluster.faults.arm("ninja.detach", hang=True)
    ninja = NinjaMigration(cluster, phase_timeout_s={"detach": 20.0})
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])

    def main():
        return (yield from ninja.execute(job, plan))

    result = cluster.env.run(until=cluster.env.process(main()))
    report("hung detach: per-phase timeout + rollback", cluster, vms, job, result)


if __name__ == "__main__":
    scenario_fatal_attach()
    scenario_transient_migration()
    scenario_hung_detach_timeout()
