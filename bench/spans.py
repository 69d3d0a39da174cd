"""In-memory span recorder for the benchmark's traced run.

The tracer wraps callables of the ``contention`` package at the names their
callers look up (module attributes and class attributes), records one span
per call, and puts every original object back when the run ends.  Spans
stay in memory; self times and per-layer metrics are computed from them
afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# (module, attribute path, span name, kind).  Kinds:
#   call    - one span per call
#   ingest  - also records process CPU time and the returned StreamStats
#   path    - also records the first argument (the file read)
#   samples - also records the ``samples`` argument
#   pull    - a generator: one span per stream, busy = time inside next()
TARGETS = (
    ("contention.cli", "main", "cli.main", "call"),
    ("contention.ingest", "ingest_tweets", "ingest.ingest_tweets", "ingest"),
    ("contention.ingest", "iter_tweet_stream", "ingest.stream_pull", "pull"),
    ("contention.ingest", "load_poll_topline", "ingest.csv_load", "path"),
    ("contention.ingest", "load_vote_records", "ingest.csv_load", "path"),
    ("contention.ingest", "load_quadrant_topics", "ingest.csv_load", "path"),
    ("contention.ingest", "load_daily_totals", "ingest.csv_load", "path"),
    ("contention.ingest", "StanceLexicon.from_json", "ingest.lexicon_load", "call"),
    ("contention.analytics", "timeseries", "analytics.timeseries", "call"),
    ("contention.analytics", "region_contention", "analytics.region_contention", "call"),
    ("contention.analytics", "quadrant_points", "analytics.quadrant_points", "call"),
    ("contention.cli", "contention_exclusive", "model.exclusive", "call"),
    ("contention.analytics", "contention_exclusive", "model.exclusive", "call"),
    ("contention.model", "contention_exclusive", "model.exclusive", "call"),
    ("contention.model", "StanceSpace.exclusive", "model.space_build", "call"),
    ("contention.model", "StanceCounts.from_mapping", "model.counts_build", "call"),
    ("contention.model", "AssignmentSet.from_stance_ids", "model.assignment_build", "call"),
    ("contention.model", "contention_general", "model.general", "call"),
    ("contention.model", "contention_sampled", "model.sampled", "samples"),
    ("contention.model", "sampled_from_counts", "model.sampled_counts", "samples"),
    ("contention.cli", "sampled_from_counts", "model.sampled_counts", "samples"),
)


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object that holds a target attribute, and the attribute's name."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "busy", "cpu", "info")

    def __init__(self, span_id: int, name: str, parent: Span | None, run_id: str) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.start = time.perf_counter()
        self.end = self.start
        self.busy = 0.0
        self.cpu = 0.0
        self.info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one run.  A span opened on a worker thread with no
    open span of its own is parented to the innermost open span of the main
    thread, which is the call that started the workers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str, *, push: bool = True) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), name, parent, self.run_id)
        self.spans.append(span)
        if push:
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _call(self, name: str, fn: Callable, kind: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            cpu0 = time.process_time() if kind == "ingest" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if kind == "ingest":
                span.cpu = time.process_time() - cpu0
                span.info = result[1]
            elif kind == "path":
                span.info = args[0] if args else None
            elif kind == "samples":
                span.info = kwargs.get("samples", args[1] if len(args) > 1 else 0)
            return result

        return wrapper

    def _pull(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, push=False)
            inner = fn(*args, **kwargs)
            clock = time.perf_counter
            busy = 0.0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    yield item
            finally:
                inner.close()
                span.busy = busy
                span.end = clock()

        return wrapper

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator[None]:
        """Wrap every target that exists (their names go to ``wrapped``) and
        restore the original objects on exit."""
        try:
            for module_name, path, name, kind in targets:
                owner, attr = resolve(module_name, path)
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self._pull(name, fn) if kind == "pull" else self._call(name, fn, kind)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
                self.wrapped.append(f"{module_name}.{path}")
            yield
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children if c.end > span.start
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent.id, []).append(span)
    return out
