"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario
from repro.sim.core import Environment

from perfbench import metrics, rep, spans, workloads

ROOT = Path(__file__).resolve().parent.parent

SMALL = ScaleConfig(
    n_vms=24, k=4, vms_per_host=2, duration_s=60.0, arrival_rate_per_s=3.0,
    max_concurrent=16, rack_local_frac=0.5, seed=3,
)


def _small_run(traced_run: bool):
    stack, found, probes, rec = workloads._instrumented(traced_run)
    with stack:
        result = run_scale_scenario(SMALL)
    counters, _ = workloads._program_counters(found)
    return result, counters, rec


def test_wrappers_are_removed_after_a_traced_run():
    originals = {
        (t.owner, t.attr): spans._raw(t.owner, t.attr) for t in workloads.TARGETS
    }
    env_init = Environment.__init__
    _, _, rec = _small_run(traced_run=True)
    recorded = len(rec)
    assert recorded > 0
    for target in workloads.TARGETS:
        assert not spans.is_wrapped(target.owner, target.attr), target.name
        assert spans._raw(target.owner, target.attr) is originals[(target.owner, target.attr)]
    assert Environment.__init__ is env_init

    # A later untraced run reaches none of the old wrappers.
    _small_run(traced_run=False)
    assert len(rec) == recorded


def test_traced_run_reproduces_counters_and_accounts_for_wall_time():
    untraced, counters_u, _ = _small_run(traced_run=False)
    traced, counters_t, rec = _small_run(traced_run=True)
    assert counters_t == counters_u
    assert traced.migrations_completed == untraced.migrations_completed
    assert traced.duration_s == untraced.duration_s

    summary = rec.reduce()
    assert summary.calls["sim.step"] == counters_t["sim.events"]
    assert summary.calls["network.flows.solve"] == counters_t["network.flows.solves"]
    assert summary.calls["orchestrator.continuous.handle"] == sum(traced.requests.values())
    assert sum(summary.self_s_by_layer.values()) == pytest.approx(summary.wall_s, abs=1e-6)
    assert all(v >= -1e-9 for v in summary.self_s_by_layer.values())


class _Toy:
    def gen(self, log):
        got = yield "first"
        log.append(got)
        try:
            yield "second"
        except KeyError as err:
            log.append(f"caught {err.args[0]}")
        return "done"

    def fails(self):
        raise ValueError("boom")


def test_generator_wrapper_passes_values_exceptions_and_return():
    targets = [
        spans.Target(_Toy, "gen", "toy.gen", "toy", "toy"),
        spans.Target(_Toy, "fails", "toy.fails", "toy", "toy"),
    ]
    returned = []
    observers = {"toy.gen": lambda args, kwargs, result: returned.append(result)}
    log = []
    with spans.traced(targets, observers=observers) as rec:
        g = _Toy().gen(log)
        assert next(g) == "first"
        assert g.send(42) == "second"
        with pytest.raises(StopIteration) as stop:
            g.throw(KeyError("k"))
        with pytest.raises(ValueError):
            _Toy().fails()
    assert stop.value.value == "done"
    assert log == [42, "caught k"]
    assert returned == ["done"]
    summary = rec.reduce()
    assert summary.calls == {"root": 0, "toy.gen": 1, "toy.fails": 1}
    assert summary.spans["toy.gen"] == 3  # one per resumption
    assert not spans.is_wrapped(_Toy, "gen")


def test_every_declared_metric_is_computed():
    declared = metrics.load_declared(ROOT)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    untraced = rep.run_rep("control-drill", 0, traced_run=False)
    traced = rep.run_rep("control-drill", 0, traced_run=True)
    assert set(metrics.end_to_end([untraced])) == {m["name"] for m in declared["end_to_end"]}
    per_layer = metrics.per_layer(traced, [untraced])
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}
    assert metrics.span_parity(traced) == []
    assert metrics.self_time_gap(traced) < 1e-6


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-hour",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
