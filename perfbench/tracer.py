"""In-memory span recorder and the wrappers that put spans on layer boundaries.

The benchmark times the program from the outside: ``layers.install`` replaces
public entry points of the ``repro`` layers (``Session`` query methods,
``center_plan``, ``compile_instance``, the kernel batch calls, the adversary
``maximise`` methods, the pool ``map``, the service store, ...) with thin
wrappers that record a span — name, start, end, parent and request id —
and bump counters taken at the same boundary.  Nothing is written while the
run is measured; :meth:`Tracer.dump` writes the spans when it ends.

Self time of a span is its duration minus the durations of its direct
children (children always nest inside their parent on one thread), so the
self times of all spans sum to the duration of the root spans, and the
traced wall time minus that sum is the explicitly reported "unattributed"
remainder.

Work done inside ``engine.pool`` worker processes is invisible from here:
``engine.pool.map`` is the boundary and its self time includes the workers'
compute.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread state ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        """Tag every span this thread opens from now on with ``request``."""
        self._local.request = request

    def current(self):
        """Name of the innermost open span of this thread, or ``None``."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    # -- spans ----------------------------------------------------------------
    def open(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append((next(self._ids), name, parent, time.perf_counter()))

    def close(self) -> None:
        span_id, name, parent, start = self._stack().pop()
        self.spans.append(
            (span_id, parent, name, start, time.perf_counter(), getattr(self._local, "request", None))
        )

    def add(self, name: str, value=1) -> None:
        self.counts[name] += value

    # -- reductions -----------------------------------------------------------
    def self_times(self, since: int = 0) -> dict:
        """Per-name self time (seconds) of the spans recorded after index ``since``."""
        spans = self.spans[since:]
        child_time: dict = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for span_id, _, name, start, end, _ in spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def totals(self, since: int = 0) -> dict:
        """Per-name inclusive time (seconds) of spans recorded after ``since``."""
        totals: dict = defaultdict(float)
        for _, _, name, start, end, _ in self.spans[since:]:
            totals[name] += end - start
        return dict(totals)

    def root_time(self, since: int = 0) -> float:
        """Summed duration of root spans (equals the sum of all self times)."""
        return sum(end - start for _, parent, _, start, end, _ in self.spans[since:] if parent is None)

    def dump(self, path) -> None:
        """Write spans and counters as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end", "request"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def wrap(tracer: Tracer, name: str, fn, after=None, skip=None, before=None):
    """``fn`` with a span named ``name`` around every call while recording.

    ``after(tracer, args, kwargs, result, nested, token)`` takes counts at
    the same boundary; ``nested`` says the call sits inside another span of
    the same name (so batch rows are not counted twice) and ``token`` is what
    ``before(args, kwargs)`` returned just before the call (counter
    snapshots).  ``skip(args, kwargs)`` returning true runs the call
    untraced (cheap cache hits).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording or (skip is not None and skip(args, kwargs)):
            return fn(*args, **kwargs)
        nested = tracer.current() == name
        token = before(args, kwargs) if before is not None else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, args, kwargs, result, nested, token)
        return result

    return wrapper


def patch_function(tracer: Tracer, module, attr: str, name: str, **hooks) -> None:
    """Wrap ``module.attr`` and every ``repro`` module alias bound to it."""
    original = getattr(module, attr)
    wrapped = wrap(tracer, name, original, **hooks)
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def patch_method(tracer: Tracer, cls, attr: str, name: str, **hooks) -> None:
    """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
    setattr(cls, attr, wrap(tracer, name, cls.__dict__[attr], **hooks))
