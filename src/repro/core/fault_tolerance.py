"""Node health feed: the input side of reactive fault tolerance.

Section II-A's non-stop-maintenance use case pairs Ninja migration with
"proactive and reactive fault tolerant systems": *proactive* handling
(evacuate ahead of a predicted failure) and *reactive* handling (restore
from checkpoints after an unpredicted one).  This module supplies the
feed both react to:

* :class:`HealthMonitor` — per-node health state plus subscriber
  notification; experiments inject warnings ("ECC errors rising",
  "thermal trip predicted") and failures, and
  :class:`~repro.recovery.failure_detector.HeartbeatMonitor` drives it
  from phi-accrual suspicion.

The reactions live in the fleet layer:
:meth:`~repro.orchestrator.executor.FleetOrchestrator.watch` turns a
*warning* into an evacuation (abort → blacklist → retry on other
hosts), and the incident runbook's ``restore-from-checkpoint`` step
restores a dead host's jobs from
:class:`~repro.recovery.checkpoints.FleetCheckpointService` generations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster


class Health(enum.Enum):
    """Node health states."""

    OK = "ok"
    WARNING = "warning"   # predicted failure — evacuate proactively
    FAILED = "failed"     # hard down — reactive path only


@dataclass
class HealthEvent:
    time: float
    node: str
    state: Health
    reason: str = ""


class HealthMonitor:
    """Health state per node + subscriber notification."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.state: Dict[str, Health] = {n: Health.OK for n in cluster.nodes}
        self.events: List[HealthEvent] = []
        self._subscribers: List[Callable[[HealthEvent], None]] = []

    def subscribe(self, callback: Callable[[HealthEvent], None]) -> None:
        self._subscribers.append(callback)

    def report(self, node: str, state: Health, reason: str = "") -> HealthEvent:
        """Inject a health transition (sensor/operator input)."""
        self.cluster.node(node)  # existence check
        self.state[node] = state
        event = HealthEvent(time=self.env.now, node=node, state=state, reason=reason)
        self.events.append(event)
        self.cluster.trace("health", state.value, node=node, reason=reason)
        for callback in list(self._subscribers):
            callback(event)
        return event

    def healthy_nodes(self) -> List[str]:
        return sorted(n for n, s in self.state.items() if s is Health.OK)

    def schedule_report(self, at_time: float, node: str, state: Health, reason: str = "") -> None:
        """Deliver a health transition at a future simulated time."""

        def _fire():
            yield self.env.timeout(max(at_time - self.env.now, 0.0))
            self.report(node, state, reason)

        self.env.process(_fire(), name=f"health.{node}")
