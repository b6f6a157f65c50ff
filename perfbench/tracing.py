"""In-memory spans recorded around calls into each layer's public functions.

Only the traced run (``--trace 1``) installs these wrappers; the
end-to-end numbers are always measured without them.  A span is
``(span_id, parent_id, trace_id, name, start, end)``; the current span
travels in a :mod:`contextvars` variable, so it follows asyncio tasks
and the serve layer's worker hop (``WorkerPool.submit`` copies the
submitter's context).  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_current: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """Span store plus the monkeypatches that feed it."""

    def __init__(self, limit: int = 400_000) -> None:
        self.spans: List[Span] = []
        self.limit = limit
        self.dropped = 0
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Free-form counters the wrappers bump (bytes, records...).
        self.counts: Dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, parent: Optional[Tuple[int, int]], start: float, end: float) -> None:
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        sid = next(self._ids)
        trace = parent[0] if parent else sid
        self.spans.append((sid, parent[1] if parent else 0, trace, name, start, end))

    def add_root(self, name: str, trace_id: int, start: float, end: float) -> None:
        """A root span whose id was minted earlier (so children could
        name it as parent before it ended)."""
        self.spans.append((trace_id, 0, trace_id, name, start, end))

    def root(self, name: str) -> "_RootScope":
        return _RootScope(self, name)

    def sync(self, name: str, fn: Callable) -> Callable:
        spans, ids, tracer = self.spans, self._ids, self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _current.get()
            sid = next(ids)
            trace = parent[0] if parent else sid
            token = _current.set((trace, sid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                if len(spans) < tracer.limit:
                    spans.append((sid, parent[1] if parent else 0, trace, name, start, end))
                else:
                    tracer.dropped += 1

        return wrapper

    def coro(self, name: str, fn: Callable, link: Optional[Callable] = None) -> Callable:
        """Wrap an async function.  ``link(args)`` may name the parent
        ``(trace, span)`` of a span that starts a server-side request."""
        spans, ids, tracer = self.spans, self._ids, self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _current.get()
            if parent is None and link is not None:
                parent = link(args)
            sid = next(ids)
            trace = parent[0] if parent else sid
            token = _current.set((trace, sid))
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                if len(spans) < tracer.limit:
                    spans.append((sid, parent[1] if parent else 0, trace, name, start, end))
                else:
                    tracer.dropped += 1

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (function, classmethod or coroutine
        function) with a span-recording wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self.patch(owner, attr, classmethod(self.sync(name, raw.__func__)))
        elif inspect.iscoroutinefunction(raw):
            self.patch(owner, attr, self.coro(name, raw))
        else:
            self.patch(owner, attr, self.sync(name, raw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def analyse(self) -> "SpanSummary":
        return SpanSummary(self.spans)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, parent, trace, name, start, end in self.spans:
                fh.write(
                    f'{{"id":{sid},"parent":{parent},"trace":{trace},'
                    f'"name":"{name}","start":{start:.9f},"end":{end:.9f}}}\n'
                )


class _RootScope:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> int:
        self._id = self._tracer.new_id()
        self._token = _current.set((self._id, self._id))
        self._start = time.perf_counter()
        return self._id

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        _current.reset(self._token)
        self._tracer.add_root(self._name, self._id, self._start, end)


def current() -> Optional[Tuple[int, int]]:
    return _current.get()


class SpanSummary:
    """Per-name call counts, total and self time (seconds), and the
    self-time bookkeeping of every trace rooted at a ``bench.*`` span."""

    def __init__(self, spans: List[Span]) -> None:
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            if span[1]:
                children[span[1]].append(span)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self_by_trace: Dict[int, float] = defaultdict(float)
        for sid, _parent, trace, name, start, end in spans:
            covered = _covered(start, end, children.get(sid, ()))
            own = (end - start) - covered
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += own
            self_by_trace[trace] += own
        self.root_time = 0.0
        self.root_self = 0.0
        self.traced_self_sum = 0.0
        for sid, parent, trace, name, start, end in spans:
            if parent == 0 and name.startswith("bench."):
                self.root_time += end - start
                self.root_self += self.self_time_of(sid, start, end, children)
                self.traced_self_sum += self_by_trace[trace]

    @staticmethod
    def self_time_of(sid: int, start: float, end: float, children: Dict[int, List[Span]]) -> float:
        return (end - start) - _covered(start, end, children.get(sid, ()))

    def mean_ms(self, name: str, *, own: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        table = self.self_time if own else self.total
        return table[name] / calls * 1000.0


def _covered(start: float, end: float, kids: Any) -> float:
    """Length of [start, end] covered by the union of the kids' spans."""
    intervals = sorted((max(k[4], start), min(k[5], end)) for k in kids)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
