"""Run one workload once in this process and print the outcome as JSON.

``run.py`` starts one fresh interpreter per repetition with this module
(``python -m perfbench.rep --workload W --seed N --trace 0|1``) so every
repetition gets its own heap, its own peak-RSS reading and the
environment ``run.py`` pins.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from perfbench import calibrate
from perfbench.workloads import ELASTICITY, LAYERS, WORKLOADS


def run_rep(workload: str, seed: int, traced_run: bool) -> dict:
    with calibrate.sampling() as slice_times:
        out = WORKLOADS[workload](seed, traced_run)
    speed = calibrate.kernel_speed(slice_times)
    # Set-up is interpreter work in every workload and follows the
    # kernel one to one; the run follows it by the workload's elasticity.
    wall_factor = speed ** ELASTICITY[workload]
    rep = {
        # Reference seconds (see calibrate.py); the measured ones follow.
        "setup_s": out.setup_s * speed,
        "wall_s": out.wall_s * wall_factor,
        "measured_setup_s": out.setup_s,
        "measured_wall_s": out.wall_s,
        "kernel_speed": speed,
        "wall_factor": wall_factor,
        "speed_slices": len(slice_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "sim": out.sim,
        "counters": out.counters,
        "layer": out.layer,
        "spans": None,
    }
    if out.spans is not None:
        s = out.spans
        groups: dict = {}
        for name, group in s.groups.items():
            groups[group] = groups.get(group, 0.0) + s.busy_s[name]
        rep["spans"] = {
            "wall_s": s.wall_s,
            "calls": s.calls,
            "busy_s": groups,
            "self_s": {layer: s.self_s_by_layer.get(layer, 0.0) for layer in LAYERS},
        }
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rep = run_rep(args.workload, args.seed, bool(args.trace))
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
