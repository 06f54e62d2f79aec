"""Exception hierarchy for the Ninja Migration reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can catch
"anything from this library" without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# --- simulation kernel -----------------------------------------------------


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (e.g. yielding a non-event)."""


class StopSimulation(Exception):
    """Internal control-flow exception used by ``Environment.run(until=...)``.

    Deliberately *not* a :class:`ReproError`: it must never be swallowed by
    user code catching library errors.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class InterruptError(ReproError):
    """Raised inside a process that has been interrupted by another process."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


# --- hardware / network ----------------------------------------------------


class HardwareError(ReproError):
    """Invalid hardware configuration or operation (e.g. no free PCI slot)."""


class NetworkError(ReproError):
    """Fabric-level failure (unreachable peer, link down, no route)."""


class LinkDownError(NetworkError):
    """A transfer was attempted over a port whose link is not ACTIVE."""


# --- VMM -------------------------------------------------------------------


class VmmError(ReproError):
    """QEMU/KVM model errors (bad state transitions, unknown devices)."""


class QmpError(VmmError):
    """A QMP command failed; mirrors QEMU's error-response path."""

    def __init__(self, cls: str, desc: str) -> None:
        super().__init__(f"{cls}: {desc}")
        self.cls = cls
        self.desc = desc


class MigrationError(VmmError):
    """Live migration failed or was attempted in an illegal state."""


class MigrationBlockedError(MigrationError):
    """Migration refused because a VMM-bypass device is still attached.

    This is the exact failure mode the paper works around: QEMU cannot
    migrate a VM that has a passthrough (VFIO) device assigned.
    """


class MigrationAbortedError(MigrationError):
    """A Ninja sequence aborted *and* its rollback could not restore a
    safe state — the only unrecoverable outcome of the transactional
    orchestrator.  Carries the phase that failed and the rollback step
    that broke.
    """

    def __init__(self, phase: str, detail: str, cause: "BaseException | None" = None) -> None:
        super().__init__(f"aborted in {phase!r}: {detail}")
        self.phase = phase
        self.detail = detail
        self.cause = cause


class HotplugError(VmmError):
    """PCI hotplug (ACPI) operation failed."""


# --- guest OS / MPI --------------------------------------------------------


class GuestError(ReproError):
    """Guest-kernel level failure (driver not bound, device missing)."""


class MpiError(ReproError):
    """MPI runtime error (aborts, unreachable peers, bad communicator)."""


class BtlUnreachableError(MpiError):
    """No BTL module can reach a peer — the job cannot communicate."""


class CheckpointError(MpiError):
    """CRCP/CRS checkpoint-restart protocol failure."""


# --- SymVirt / Ninja -------------------------------------------------------


class SymVirtError(ReproError):
    """SymVirt coordination failure (wait/signal mismatch, lost agent)."""


class StaleEpochError(SymVirtError):
    """A fenced-out controller issued a command.

    Every controller carries the fencing epoch current at its creation;
    crash recovery bumps the cluster-wide epoch before reconciling, so a
    zombie controller that wakes up after recovery started cannot
    double-drive QMP — its first command lands here instead.
    """

    def __init__(self, epoch: int, current: int, actor: str = "") -> None:
        who = f"{actor}: " if actor else ""
        super().__init__(
            f"{who}epoch {epoch} is stale (current epoch is {current}) — "
            f"a recovered controller has fenced this one out"
        )
        self.epoch = epoch
        self.current = current


class ControllerCrashError(Exception):
    """The migration controller died mid-sequence (simulated crash).

    Deliberately *not* a :class:`ReproError`: a crash is the one failure
    the transactional orchestrator must NOT handle — a dead controller
    runs no rollback, writes no journal records, and leaves the
    cluster exactly as it was at the moment of death.  Only the
    crash-recovery subsystem (:mod:`repro.recovery`) may observe it.
    """


class PhaseTimeoutError(ReproError):
    """A Ninja migration phase exceeded its per-phase timeout budget."""

    def __init__(self, phase: str, timeout_s: float) -> None:
        super().__init__(f"phase {phase!r} exceeded its {timeout_s:g} s timeout")
        self.phase = phase
        self.timeout_s = timeout_s


class FaultInjectionError(ReproError):
    """Default error raised by an armed :class:`~repro.core.faults.FaultInjector`
    site when no specific exception was configured.  Deliberately *not* one
    of the transient classes, so an injected fault aborts (and rolls back)
    instead of being absorbed by retry unless the test asks otherwise.
    """


class PlanError(ReproError):
    """A migration plan is invalid (capacity, device tags, host mapping)."""


class SchedulerError(ReproError):
    """Cloud-scheduler level failure (no feasible placement)."""


class FleetError(ReproError):
    """Fleet-orchestrator level failure (double-booked reservation,
    inconsistent request state, admission misuse)."""


class IncidentError(ReproError):
    """Incident-response failure (runbook action exhausted its retries,
    unknown incident class, malformed runbook)."""
