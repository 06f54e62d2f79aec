"""Metric names, units, and how repetitions reduce to them.

Imports nothing from the program, so ``run.py`` can use it before it
knows whether the program's sources are present.  The metric names and
units are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple


def load_declared(root: Path) -> dict:
    """``BENCHMARK.json``: workload names and metric names with units."""
    return json.loads((root / "BENCHMARK.json").read_text())


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Median over untraced repetitions."""
    names = ("setup_s", "wall_s", "peak_rss_mb")
    return {name: median([r[name] for r in reps]) for name in names}


def per_layer(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from one traced repetition.

    Counts come from the program's own counters where it keeps one, and
    from span call counts otherwise; busy and self times from spans.
    Every time is in reference seconds: span times are rescaled by the
    traced repetition's run-time factor, the others by their own
    repetition's.  ``sim.events_per_s`` and the solve p99 come from
    untraced repetitions (no wrapper cost); ``sim.events_per_s`` divides
    by the run time only (``wall_s``, set-up excluded).
    ``trace.overhead_s`` is the traced repetition's host time minus the
    untraced median.
    """
    c, layer, sp = traced["counters"], traced["layer"], traced["spans"]
    factor = traced["wall_factor"]
    calls = sp["calls"]
    busy = {name: t * factor for name, t in sp["busy_s"].items()}
    self_s = {name: t * factor for name, t in sp["self_s"].items()}
    host = median([r["setup_s"] + r["wall_s"] for r in untraced])
    solves = c["network.flows.solves"]
    span_solves = calls["network.flows.solve"]
    m = {
        "sim.events": c["sim.events"],
        "sim.events_per_s": c["sim.events"] / median([r["wall_s"] for r in untraced]),
        "sim.step.self_s": self_s["sim"],
        "sim.fairshare.submits": calls["sim.fairshare.submit"],
        "sim.fairshare.busy_s": busy["sim.fairshare"],
        "network.flows.starts": c["network.flows.starts"],
        "network.flows.start.busy_s": busy["network.flows.start"],
        "network.flows.settle.busy_s": busy["network.flows.settle"],
        "network.flows.solves": solves,
        "network.flows.solve.busy_s": busy["network.flows.solve"],
        "network.flows.solve.p99_us": median(
            [r["layer"]["network.flows.solve.p99_us"] * r["wall_factor"] for r in untraced]
        ),
        "network.flows.flows_touched": c["network.flows.flows_touched"],
        # Base: solver calls (0 when the workload started no flow).
        "network.flows.flows_per_solve": (
            c["network.flows.flows_touched"] / solves if solves else 0.0
        ),
        "network.flows.singleton_solve_frac": (
            layer["network.flows.singleton_solves"] / span_solves if span_solves else 0.0
        ),
        "network.fattree.paths": calls["network.fattree.path"],
        "network.fattree.path.busy_s": busy["network.fattree.path"],
        "orchestrator.continuous.requests": layer.get("orchestrator.continuous.requests", 0),
        "orchestrator.continuous.handle.busy_s": busy["orchestrator.continuous.handle"],
        "orchestrator.continuous.migrate.busy_s": busy["orchestrator.continuous.migrate"],
        "orchestrator.continuous.starved": layer.get("orchestrator.continuous.starved", 0),
        "orchestrator.continuous.rejected": layer.get("orchestrator.continuous.rejected", 0),
        "orchestrator.submits": c["orchestrator.submits"],
        "orchestrator.planner.estimates": calls["orchestrator.planner.estimate"],
        "orchestrator.planner.estimate.busy_s": busy["orchestrator.planner.estimate"],
        "orchestrator.planner.analyze.busy_s": busy["orchestrator.planner.analyze"],
        "orchestrator.deferred": c["orchestrator.deferred"],
        "orchestrator.destination_swaps": c["orchestrator.destination_swaps"],
        "vmm.guest_memory.scans": (
            calls["vmm.guest_memory.class_counts"]
            + calls["vmm.guest_memory.round_accounting"]
        ),
        "vmm.guest_memory.scan.busy_s": busy["vmm.guest_memory.scan"],
        "vmm.guest_memory.pages_scanned": layer["vmm.guest_memory.pages_scanned"],
        "vmm.migration.rounds": layer["vmm.migration.rounds"],
        "vmm.migration.wire_gb": layer["vmm.migration.wire_bytes"] / 1e9,
        "mpi.messages": calls["mpi.send"] + calls["mpi.isend"],
        "mpi.bytes_gb": c["mpi.bytes"] / 1e9,
        "mpi.send.busy_s": busy["mpi.send"],
        "mpi.routes.openib": layer["mpi.routes.openib"],
        "mpi.routes.tcp": layer["mpi.routes.tcp"],
        "core.ninja.sequences": calls["core.ninja.execute"],
        "core.ninja.aborts": layer["core.ninja.aborts"],
        "core.ninja.execute.busy_s": busy["core.ninja.execute"],
        "recovery.journal.appends": c["recovery.journal.appends"],
        "recovery.journal.append.busy_s": busy["recovery.journal.append"],
        "recovery.journal.replay.busy_s": busy["recovery.journal.replay"],
        "sim.trace.emits": c["sim.trace.emits"],
        "sim.trace.emit.busy_s": busy["sim.trace.emit"],
        "incident.telemetry.samples": calls["incident.publish"],
        "incident.detector.observes": calls["incident.detector.observe"],
        "incident.alerts": layer.get("incident.alerts", 0),
        "incident.telemetry.busy_s": busy["incident.telemetry"],
        "trace.wall_s": sp["wall_s"] * factor,
        "trace.overhead_s": traced["setup_s"] + traced["wall_s"] - host,
    }
    for name, seconds in self_s.items():
        if name != "sim":
            m[f"{name}.self_s"] = seconds
    return m


def self_time_gap(traced: dict) -> float:
    """|sum of layer self times (unattributed included) - traced wall|."""
    sp = traced["spans"]
    return abs(sum(sp["self_s"].values()) - sp["wall_s"])


def span_parity(traced: dict) -> List[Tuple[str, int, int]]:
    """Span counts that must equal a counter the program keeps itself."""
    c, calls = traced["counters"], traced["spans"]["calls"]
    pairs = [
        ("sim.events", c["sim.events"], calls["sim.step"]),
        ("network.flows.solves", c["network.flows.solves"], calls["network.flows.solve"]),
        ("network.flows.starts", c["network.flows.starts"], calls["network.flows.start"]),
        (
            "recovery.journal.appends",
            c["recovery.journal.appends"],
            calls["recovery.journal.append"],
        ),
    ]
    return [p for p in pairs if p[1] != p[2]]
