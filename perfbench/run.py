"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fleet-hour --seed 0 --seconds 40 --trace 0

``--workload all`` runs the three workloads in turn.

Run from the repository root.  Each repetition runs in a fresh
interpreter (``perfbench/rep.py``) with ``PYTHONHASHSEED=0`` and
``NUMPY_MADVISE_HUGEPAGE=0``; repetitions continue until ``--seconds`` of
host time are spent (at least three untraced ones).  ``--trace 0``
reports the end-to-end metrics as medians over the repetitions, host
times in reference seconds (``calibrate.py``); ``--trace 1`` first runs
one traced repetition and reports the per-layer metrics.  Every
repetition's output checks, the exact repeat of simulated results and
work counters across repetitions, and (traced) the span accounting must
hold, or the run is marked incorrect and exits 1.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402

MIN_UNTRACED_REPS = 3
#: Host-time budget of one invocation, repetitions included.
BUDGET_S = 170.0


class RepFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace: int, timeout_s: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.rep",
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        # With NumPy's transparent-huge-page advice on, peak RSS moved by
        # 7 MiB between repetitions, depending on whether the kernel had
        # huge pages to hand out.
        NUMPY_MADVISE_HUGEPAGE="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired as err:
        raise RepFailed(f"repetition exceeded {timeout_s:.0f} s") from err
    if proc.returncode != 0:
        raise RepFailed(proc.stderr[-4000:] or f"exit code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["rep_s"] = time.perf_counter() - t0
    return rep


def _repeat_problems(reps: list, traced: dict | None) -> list:
    """Simulated results and counters must repeat exactly at one seed."""
    problems = []
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=2):
        for key in ("sim", "counters"):
            if rep[key] != first[key]:
                problems.append(f"untraced repetition {i} {key} differ from repetition 1")
    if traced is not None:
        if traced["counters"] != first["counters"]:
            problems.append("traced counters differ from untraced")
        shared = {k: v for k, v in traced["sim"].items() if k in first["sim"]}
        if shared != first["sim"]:
            problems.append("traced simulated results differ from untraced")
        for name, program, spans in metrics.span_parity(traced):
            problems.append(f"{name}: program counted {program}, spans saw {spans}")
        gap = metrics.self_time_gap(traced)
        if gap > 1e-6:
            problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
    return problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args: argparse.Namespace, declared: dict) -> int:
    """One workload: repetitions, checks, report, result line."""
    start = time.perf_counter()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} | "
        f"python {platform.python_version()}, numpy {metadata.version('numpy')}, "
        f"nproc {os.cpu_count()}, PYTHONHASHSEED=0"
    )
    traced = None
    reps: list = []
    try:
        if args.trace:
            traced = _spawn(args.workload, args.seed, 1, BUDGET_S)
            host = traced["measured_setup_s"] + traced["measured_wall_s"]
            print(f"traced rep: {host:.4f} s measured host time, "
                  f"kernel speed {traced['kernel_speed']:.3f}")
        while True:
            elapsed = time.perf_counter() - start
            last = reps[-1]["rep_s"] if reps else 0.0
            if len(reps) >= MIN_UNTRACED_REPS and elapsed + last > args.seconds:
                break
            if reps and elapsed + 1.5 * last > BUDGET_S:
                break
            rep = _spawn(args.workload, args.seed, 0, BUDGET_S - elapsed)
            reps.append(rep)
            print(
                f"rep {len(reps)}: setup {rep['setup_s']:.4f} s  wall {rep['wall_s']:.4f} s  "
                f"(measured {rep['measured_setup_s']:.4f} s / {rep['measured_wall_s']:.4f} s, "
                f"kernel speed {rep['kernel_speed']:.3f} from {rep['speed_slices']} slices)  "
                f"peak rss {rep['peak_rss_mb']:.1f} MiB"
            )
    except RepFailed as err:
        print(f"perfbench: repetition failed:\n{err}", file=sys.stderr)
        return 1

    everything = reps + ([traced] if traced is not None else [])
    failed_checks = sorted(
        {name for rep in everything for name, ok in rep["checks"].items() if not ok}
    )
    problems = _repeat_problems(reps, traced)
    attempted = sum(rep["attempted"] for rep in everything)
    failed = sum(rep["failed"] for rep in everything) + len(problems)
    correct = not failed_checks and not problems

    e2e = metrics.end_to_end(reps)
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print("end-to-end: " + "  ".join(f"{k}={_fmt(v)} {e2e_units[k]}" for k, v in e2e.items()))
    sim = traced["sim"] if traced is not None else reps[0]["sim"]
    print("simulated: " + "  ".join(f"{k}={_fmt(v)}" for k, v in sim.items()))
    print("counters: " + json.dumps(reps[0]["counters"], sort_keys=True))
    print(f"checks: {len(reps[0]['checks'])} per repetition, "
          + ("all passed" if not failed_checks else "FAILED: " + ", ".join(failed_checks)))
    for problem in problems:
        print(f"FAILED: {problem}")

    if traced is not None:
        values, listed = metrics.per_layer(traced, reps), declared["per_layer"]
    else:
        values, listed = e2e, declared["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    declared = metrics.load_declared(ROOT)
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads, "all"),
        help="'all' runs every workload in turn, one result line each",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args, declared)
    status = 0
    for workload in workloads:
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        status = max(status, run_workload(one, declared))
    return status


if __name__ == "__main__":
    sys.exit(main())
