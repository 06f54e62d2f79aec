"""Shared resources for simulation processes.

* :class:`Container` — continuous quantity (e.g. bytes of free host RAM).
* :class:`Store` — FIFO queue of Python objects (e.g. QMP command channel,
  the MPI out-of-band channel, hypercall mailboxes).

All acquire/release operations are events; processes ``yield`` them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Container:
    """A continuous quantity with blocking ``get`` and non-blocking ``put``.

    Used for modelling pools (free memory, link credits).  ``get`` requests
    are served FIFO as soon as enough quantity is available.
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise SimulationError("init must lie within [0, capacity]")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Currently stored quantity."""
        return self._level

    def put(self, amount: float) -> None:
        """Add ``amount`` immediately (raises if it would exceed capacity)."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError("container overflow")
        self._level += amount
        self._serve()

    def get(self, amount: float) -> Event:
        """Return an event that fires once ``amount`` has been withdrawn."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        if amount > self.capacity:
            raise SimulationError("requested more than capacity — would never fire")
        event = Event(self.env)
        self._getters.append((float(amount), event))
        self._serve()
        return event

    def _serve(self) -> None:
        while self._getters and self._getters[0][0] <= self._level + 1e-12:
            amount, event = self._getters.pop(0)
            self._level -= amount
            event.succeed(amount)


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ("filter", "_store")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.env)
        self.filter = filter
        self._store = store
        store._getters.append(self)
        store._serve()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get (it will never steal an item)."""
        if not self.triggered and self in self._store._getters:
            self._store._getters.remove(self)


class Store:
    """FIFO queue of arbitrary items with blocking ``get``.

    ``get(filter=...)`` retrieves the first item matching a predicate,
    which is how tagged mailboxes (MPI message matching, QMP replies)
    are built.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Append an item (stores are unbounded by default)."""
        if len(self.items) >= self.capacity:
            raise SimulationError("store is full")
        self.items.append(item)
        self._serve()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Return an event that fires with the next (matching) item."""
        return StoreGet(self, filter)

    def _serve(self) -> None:
        # Repeatedly try to satisfy waiting getters in arrival order.
        progress = True
        while progress:
            progress = False
            for getter in list(self._getters):
                if getter.triggered:
                    self._getters.remove(getter)
                    continue
                index = self._find(getter.filter)
                if index is not None:
                    item = self.items.pop(index)
                    self._getters.remove(getter)
                    getter.succeed(item)
                    progress = True

    def _find(self, filter: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if filter is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if filter(item):
                return i
        return None
