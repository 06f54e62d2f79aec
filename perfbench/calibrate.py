"""Host-speed calibration for the host-time metrics.

The shared host this benchmark was built on runs the same repetition
anywhere from 3.6 s to 11 s, depending on what the machine's other
tenants are doing, and that load changes within seconds.  Each repetition
therefore times a fixed pure-Python kernel (heap, dict and attribute
traffic, generator resumption: the simulator's own mix) in short slices:
a few right before the workload, one every ``PERIOD_S`` of host time
while it runs (from a ``SIGALRM`` handler), and a few right after.  Host
times are read from :func:`clock`, which leaves out the slices' own time,
and reported rescaled to the reference speed::

    kernel speed      = mean(REFERENCE_SLICE_S / slice time)
    reference seconds = measured seconds * kernel speed ** elasticity

The mean of the per-slice speeds over slices spread evenly in time is
the host's average speed over the repetition.  The other tenants' load
does not slow every kind of work alike, so each workload's run has its
own ``elasticity``: the slope of log(measured seconds) on log(kernel
speed) over repetitions run at many load levels (``workloads.ELASTICITY``;
``rep.py`` applies it).  The kernel imports
nothing from the program, so no change to the program can move it.  It
runs with the cyclic collector paused, so the workload's heap does not
slow it down.  What the rescaling does and does not correct is measured
in ``README.md``.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

#: About the median slice time on the reference host (2-vCPU Xeon VM,
#: Python 3.11.7) while it ran nothing else: there, reference seconds
#: are close to measured seconds.
REFERENCE_SLICE_S = 0.0080
#: Slices timed right before the workload and again right after it.
SLICES_AROUND = 4
#: Host seconds between two slices while the workload runs.
PERIOD_S = 0.2

#: Host time spent in slices so far; :func:`clock` leaves it out.
_sliced_s = 0.0


class _Node:
    __slots__ = ("key", "hits", "tag")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0.0
        self.tag = None


def _counter(n: int):
    total = 0
    for _ in range(n):
        total += yield total
    return total


def _slice() -> float:
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    nodes = [_Node(i) for i in range(512)]
    for i in range(12000):
        heapq.heappush(heap, ((i * 7919) % 100003, i))
        key = i % 1009
        table[key] = table.get(key, 0) + 1
        node = nodes[i % 512]
        node.hits += 1.5
        node.tag = key
    while heap:
        heapq.heappop(heap)
    gen = _counter(8000)
    next(gen)
    try:
        while True:
            gen.send(1)
    except StopIteration:
        pass
    return time.perf_counter() - t0


def clock() -> float:
    """Host seconds (``perf_counter``) without the time spent in slices."""
    return time.perf_counter() - _sliced_s


def _sample(times: List[float]) -> None:
    """Time one slice with the cyclic collector paused."""
    global _sliced_s
    t0 = time.perf_counter()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times.append(_slice())
    finally:
        if was_enabled:
            gc.enable()
        _sliced_s += time.perf_counter() - t0


@contextmanager
def sampling(period_s: float = PERIOD_S) -> Iterator[List[float]]:
    """Time slices around the block and every ``period_s`` inside it.

    Yields the list the slice times are appended to.  The block must run
    in the main thread, and nothing else in the process may use
    ``SIGALRM``.
    """
    times: List[float] = []
    for _ in range(SLICES_AROUND):
        _sample(times)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: _sample(times))
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
    try:
        yield times
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(SLICES_AROUND):
        _sample(times)


def kernel_speed(times: List[float]) -> float:
    """The kernel's mean speed relative to the reference host."""
    return statistics.fmean(REFERENCE_SLICE_S / t for t in times)
