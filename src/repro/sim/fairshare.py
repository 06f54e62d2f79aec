"""Max-min fair sharing of a single divisible capacity.

This is the work-horse behind two performance-critical models:

* the **host CPU scheduler** (:mod:`repro.hardware.cpu`): vCPU threads share
  physical cores, reproducing the CPU-overcommit contention the paper
  observes in the "2 hosts (TCP)" phase of Figure 8; and
* the **NFS server's bandwidth** (:mod:`repro.storage.nfs`): concurrent
  snapshot streams divide the server NIC.

A :class:`FairShare` service accepts *tasks*, each with a fixed amount of
work (bytes, cpu-seconds, …), a weight, and an optional per-task rate cap.
At any instant the capacity is divided max-min fairly among active tasks.

It is the one-link case of the flow engine
(:class:`~repro.network.flows.FlowNetwork`): the capacity is one private
link, and each task is a :class:`~repro.network.flows.Flow` over it, so
progress, wakeups and water-filling all live in that one kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.network.flows import Flow, FlowNetwork
from repro.network.links import DirectedLink, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class FairShare:
    """A divisible capacity shared max-min fairly among concurrent tasks.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Total service rate (units of work per second).
    name:
        Label for debugging/tracing.
    """

    def __init__(self, env: "Environment", capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity = float(capacity)
        self.name = name
        self._net = FlowNetwork(env, name=name)
        #: The one private link every task crosses (a tuple, so each
        #: flow shares it rather than copying a list).
        self._path = (DirectedLink(Link(name=name, capacity_Bps=self.capacity), 0),)

    @property
    def active_tasks(self) -> int:
        """Number of tasks currently in service."""
        return self._net.active_count

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently allocated."""
        return sum(t.rate_Bps for t in self._net.iter_active()) / self.capacity

    def submit(
        self,
        amount: float,
        weight: float = 1.0,
        cap: float = float("inf"),
        label: str = "",
    ) -> Flow:
        """Submit ``amount`` units of work; returns the task.

        ``task.done`` is an event firing when the work completes; processes
        typically ``yield task.done``.  A negative amount or a non-positive
        weight or cap raises :class:`~repro.errors.NetworkError`.
        """
        return self._net.start(self._path, amount, cap_Bps=cap, weight=weight, label=label)

    def cancel(self, task: Flow) -> None:
        """Abort a task; its ``done`` event never fires."""
        self._net.cancel(task)
