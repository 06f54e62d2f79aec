"""In-memory spans around the public entry points of each layer.

A traced run installs wrappers (class attributes and module globals),
records one span per call — name, start, end, parent, times from
``calibrate.clock`` — into flat arrays,
and removes every wrapper when the run ends.  Generator entry points (a
Ninja sequence, an MPI send, a recovery replay) are wrapped so that each
resumption is a span: the span covers the host time spent running that
generator's code, not the simulated time it waits.

``reduce`` turns the spans into per-name call counts, busy time (outermost
calls of a group only, so recursion is not counted twice) and per-layer
self time (a span's duration minus the part its child spans cover).  The
self times of all spans, root included, partition the root span, so the
per-layer self times plus the root's own ``unattributed`` time add up to
the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from perfbench.calibrate import clock

#: Name of the span that encloses the whole traced workload.
ROOT = "root"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    #: Span name, e.g. ``network.flows.start``.
    name: str
    #: Layer its self time is charged to.
    layer: str
    #: Busy-time group: nested calls within one group count once.
    group: str


class SpanRecorder:
    """Flat-array span store with a parent stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.groups: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._group_ids: List[int] = []
        self._depth: List[int] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")
        self._stack: List[int] = []
        #: Calls per name (generator entry points count creations, not
        #: resumptions — those are the spans).
        self.calls: List[int] = []

    def register(self, name: str, layer: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.groups.append(group)
            self.calls.append(0)
            gids = {g: i for i, g in enumerate(dict.fromkeys(self.groups))}
            self._group_ids = [gids[g] for g in self.groups]
            while len(self._depth) < len(gids):
                self._depth.append(0)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        gid = self._group_ids[nid]
        depth = self._depth[gid]
        self._depth[gid] = depth + 1
        self.outer.append(depth == 0)
        self.name_id.append(nid)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(clock())
        return idx

    def exit(self, idx: int, nid: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()
        self._depth[self._group_ids[nid]] -= 1

    def __len__(self) -> int:
        return len(self.start)

    # -- reduction -----------------------------------------------------------------

    def reduce(self) -> "SpanSummary":
        """Per-name counts/busy/self and per-layer self time."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        nnames = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        spans = np.bincount(nid, minlength=nnames)
        busy = np.bincount(nid[outer], weights=dur[outer], minlength=nnames)
        self_by_name = np.bincount(nid, weights=self_time, minlength=nnames)
        by_layer: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            by_layer[layer] = by_layer.get(layer, 0.0) + float(self_by_name[i])
        roots = ~has_parent
        return SpanSummary(
            spans={n: int(spans[i]) for i, n in enumerate(self.names)},
            calls={n: self.calls[i] for i, n in enumerate(self.names)},
            busy_s={n: float(busy[i]) for i, n in enumerate(self.names)},
            self_s_by_layer=by_layer,
            groups=dict(zip(self.names, self.groups)),
            wall_s=float(dur[roots].sum()),
        )


@dataclass
class SpanSummary:
    """Per-name totals of one traced run."""

    spans: Dict[str, int]
    calls: Dict[str, int]
    #: Time inside outermost calls of the name's busy group.
    busy_s: Dict[str, float]
    self_s_by_layer: Dict[str, float]
    #: Span name -> busy group.
    groups: Dict[str, str]
    #: Duration of the root span(s): the traced wall time.
    wall_s: float


def _span_generator(rec: SpanRecorder, nid: int, gen, on_return):
    """Re-yield ``gen``'s events, one span per resumption."""
    send_value: Any = None
    throw: Optional[BaseException] = None
    while True:
        idx = rec.enter(nid)
        try:
            if throw is None:
                yielded = gen.send(send_value)
            else:
                exc, throw = throw, None
                yielded = gen.throw(exc)
        except StopIteration as stop:
            rec.exit(idx, nid)
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        except BaseException:
            rec.exit(idx, nid)
            raise
        rec.exit(idx, nid)
        try:
            send_value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # noqa: BLE001 - forwarded into gen
            throw = err
            send_value = None


def _wrap(
    rec: SpanRecorder,
    target: Target,
    fn: Callable,
    observer: Optional[Callable[[tuple, dict, Any], None]],
) -> Callable:
    """``fn`` recording spans; ``observer(args, kwargs, result)`` sees
    each return."""
    nid = rec.register(target.name, target.layer, target.group)
    calls = rec.calls

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            on_return = None
            if observer is not None:
                on_return = functools.partial(observer, args, kwargs)
            return _span_generator(rec, nid, fn(*args, **kwargs), on_return)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = rec.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(idx, nid)
            if observer is not None:
                observer(args, kwargs, result)
            return result

    wrapper.perfbench_span = True
    return wrapper


def _raw(owner: Any, attr: str) -> Any:
    """The attribute as stored (staticmethod/classmethod objects intact)."""
    return vars(owner)[attr]


@contextmanager
def patched(replacements: List[tuple]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit.

    Each attribute must be defined on ``owner`` itself (a class or a
    module), so restoring it is a plain ``setattr``.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, _raw(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def traced(
    targets: List[Target],
    observers: Optional[Dict[str, Callable]] = None,
) -> Iterator[SpanRecorder]:
    """Install a span wrapper on every target; yield the recorder.

    ``observers`` maps a span name to ``observer(args, kwargs, result)``, called
    after each call returns (for a generator: when it finishes).

    The whole ``with`` body is the root span.  Every wrapper is removed
    on exit, also when the body raises.
    """
    observers = observers or {}
    rec = SpanRecorder()
    root = rec.register(ROOT, "unattributed", ROOT)
    replacements = []
    for target in targets:
        raw = _raw(target.owner, target.attr)
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapped = _wrap(rec, target, fn, observers.get(target.name))
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        replacements.append((target.owner, target.attr, wrapped))
    with patched(replacements):
        idx = rec.enter(root)
        try:
            yield rec
        finally:
            rec.exit(idx, root)


def is_wrapped(owner: Any, attr: str) -> bool:
    """True while a span wrapper sits on ``owner.attr``."""
    raw = _raw(owner, attr)
    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    return getattr(fn, "perfbench_span", False)


@contextmanager
def collecting(
    classes: List[type], on_init: Optional[Dict[type, Callable]] = None
) -> Iterator[Dict[type, list]]:
    """Collect every instance of ``classes`` constructed inside the block.

    Only constructors are hooked, so the cost is per object, not per
    call on the hot path; untraced runs use this to reach the counters
    the program keeps on its own objects.  ``on_init[cls](obj)`` runs
    right after each such constructor.
    """
    on_init = on_init or {}
    found: Dict[type, list] = {cls: [] for cls in classes}
    replacements = []
    for cls in classes:
        init = _raw(cls, "__init__")

        def make(init=init, bucket=found[cls], hook=on_init.get(cls)):
            @functools.wraps(init)
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                bucket.append(self)
                if hook is not None:
                    hook(self)

            return __init__

        replacements.append((cls, "__init__", make()))
    with patched(replacements):
        yield found
