"""Reference flow kernel: global re-solve on every event.

:class:`GlobalResolveFlowNetwork` is the pre-incremental engine that
:class:`~repro.network.flows.FlowNetwork` replaced.  Every start, cancel,
cap change or completion credits progress to *all* flows, re-solves
max-min rates over the whole active set, and schedules one wakeup at the
earliest finish (an O(F) scan).  No production path uses it.  It is kept
as the oracle the end-to-end equivalence property compares the
incremental engine against, and as the baseline arm of the 256-VM scale
benchmark; a :class:`~repro.orchestrator.continuous.ContinuousFleet`
runs on it when ``repro.orchestrator.continuous.FlowNetwork`` is patched
to this class.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, List

from repro.errors import SimulationError
from repro.network.flows import _EPS, _MIN_DT, Flow, FlowNetwork, compute_maxmin_flow_rates

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class GlobalResolveFlowNetwork(FlowNetwork):
    """:class:`FlowNetwork` with the global-resolve kernel."""

    def __init__(self, env: "Environment", name: str = "flows") -> None:
        super().__init__(env, name)
        self._last_update = env.now

    def _resolve_after_change(self, seeds: List[Flow]) -> None:
        self._reschedule()

    def _schedule_wakeup(self) -> None:
        self._reschedule()

    def _settle(self, now: float) -> None:
        """Credit every flow since the last event; complete the due ones."""
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        finished = []
        for flow in self._flows:
            flow.remaining -= flow.rate_Bps * elapsed
            flow._updated_at = now
            if flow.remaining <= _EPS * max(1.0, flow.nbytes) or (
                flow.rate_Bps > 0 and flow.remaining <= flow.rate_Bps * _MIN_DT
            ):
                flow.remaining = 0.0
                finished.append(flow)
        for flow in finished:
            self._remove(flow)
            flow.finished_at = now
            self.total_completed += 1
            flow.done.succeed(flow)

    def _reschedule(self) -> None:
        """Re-solve every active flow and wake at the earliest finish."""
        self._wakeup = None
        if not self._flows:
            return
        flows = list(self._flows)
        stats = self.solver_stats
        t0 = _time.perf_counter() if stats is not None else 0.0
        compute_maxmin_flow_rates(flows)
        if stats is not None:
            stats.calls += 1
            stats.flows_touched += len(flows)
            stats.samples_s.append(_time.perf_counter() - t0)
        self._nprogress = 0
        for flow in flows:
            flow._progressing = flow.rate_Bps > _EPS
            self._nprogress += flow._progressing
        next_dt = min(
            (f.remaining / f.rate_Bps for f in flows if f.rate_Bps > _EPS),
            default=None,
        )
        if next_dt is None:
            raise SimulationError(
                f"FlowNetwork {self.name!r}: flows present but none can progress"
            )
        wakeup = self.env.timeout(max(next_dt, _MIN_DT))
        self._wakeup = wakeup
        wakeup.callbacks.append(self._on_wakeup)
