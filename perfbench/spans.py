"""In-memory span recorder and the trace arithmetic the benchmark reports.

A span is one timed call into a layer: ``(id, parent, name, start, end,
pid, attrs)``.  Spans are appended to a list in memory while a run
executes and are written out only when the run ends.  Nesting comes from
a per-thread stack of open spans, so calls made on the serving executor
thread form their own trees; spans recorded in forked worker processes
are shipped back and re-parented under the span that waited for them
(:meth:`SpanRecorder.adopt`).  All times come from
:func:`time.perf_counter`, which on Linux is the system-wide monotonic
clock, so parent- and worker-side spans share one time axis.

The arithmetic lives here too:

* :func:`self_times` — a span's duration minus the part of its interval
  its children cover (children that overlap each other, such as
  parallel shards, are counted once);
* :func:`structure` — the multiset of root-to-span name paths, which
  must be identical across repeated runs of one workload;
* :func:`blocking_path` — the chain of spans a result waited for: at a
  span whose children ran in several processes at once, only the
  busiest process blocks.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "blocking_path",
    "children_index",
    "covered_length",
    "self_times",
    "structure",
]

Span = Tuple[int, Optional[int], str, float, float, int, Optional[Dict[str, Any]]]
"""``(id, parent, name, start, end, pid, attrs)``; times in seconds."""

ID, PARENT, NAME, START, END, PID, ATTRS = range(7)


class SpanRecorder:
    """Collects spans in memory; cheap enough to wrap per-tile calls.

    :meth:`begin` / :meth:`end` bracket a call on the current thread's
    stack.  Appends to a list are atomic in CPython, so the event-loop
    thread and the serving executor thread can record concurrently.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack: Optional[List[int]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def begin(self) -> Tuple[int, Optional[int], float]:
        """Open a span on this thread: ``(id, parent, start)``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(
        self,
        token: Tuple[int, Optional[int], float],
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Close the span opened by *token* and keep it."""
        finish = time.perf_counter()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # an inner span escaped by exception
            del stack[stack.index(span_id):]
        span: Span = (span_id, parent, name, start, finish, os.getpid(), attrs)
        self.spans.append(span)
        return span

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """``with recorder.span("layer.name"):`` around a block."""
        return _SpanContext(self, name, attrs or None)

    def detach(self) -> Tuple[List[Span], Any]:
        """Swap in an empty span list and stack; returns what to restore.

        A forked worker inherits the parent's recorder, open stack and
        all; it detaches before recording its shard so it ships only its
        own spans, as roots.
        """
        saved = (self.spans, getattr(self._local, "stack", None))
        self.spans = []
        self._local.stack = []
        return saved

    def restore(self, saved: Tuple[List[Span], Any]) -> List[Span]:
        """Undo :meth:`detach`; returns the spans recorded meanwhile."""
        recorded = self.spans
        self.spans, self._local.stack = saved
        return recorded

    def adopt(self, spans: Sequence[Span], parent: Optional[int]) -> None:
        """Merge spans from another process under *parent*, with fresh ids."""
        mapping: Dict[int, int] = {}
        for span in spans:
            mapping[span[ID]] = next(self._ids)
        for span in spans:
            old_parent = span[PARENT]
            new_parent = mapping[old_parent] if old_parent in mapping else parent
            self.spans.append(
                (mapping[span[ID]], new_parent) + tuple(span[NAME:])  # type: ignore[arg-type]
            )


class _SpanContext:
    __slots__ = ("_recorder", "_name", "attrs", "_token", "span")

    def __init__(
        self, recorder: SpanRecorder, name: str, attrs: Optional[Dict[str, Any]]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self.attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> "_SpanContext":
        self._token = self._recorder.begin()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.span = self._recorder.end(self._token, self._name, self.attrs)


# -- trace arithmetic ------------------------------------------------------------


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = lo
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def children_index(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """``parent id -> child spans`` (roots under ``None``), in start order."""
    index: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        index[span[PARENT]].append(span)
    for children in index.values():
        children.sort(key=lambda s: s[START])
    return index


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span id -> duration minus the time its children cover``."""
    index = children_index(spans)
    out: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        children = index.get(span[ID], ())
        covered = covered_length(((c[START], c[END]) for c in children), start, end)
        out[span[ID]] = (end - start) - covered
    return out


def structure(spans: Sequence[Span], root: Optional[int] = None) -> Counter:
    """Multiset of name paths below *root* (all roots when ``None``).

    Timing-free: two runs of one workload with the same shape must give
    equal counters, whatever the machine's speed.
    """
    index = children_index(spans)
    paths: Counter = Counter()
    stack: List[Tuple[Optional[int], str]] = [(root, "")]
    while stack:
        node, prefix = stack.pop()
        for child in index.get(node, ()):
            path = f"{prefix}/{child[NAME]}" if prefix else child[NAME]
            paths[path] += 1
            stack.append((child[ID], path))
    return paths


def blocking_path(spans: Sequence[Span], root: Span) -> List[Span]:
    """The spans a result waited for, from *root* down.

    Every descendant on one process blocks its parent in turn; where a
    span's children ran in other processes at once (row shards), only
    the busiest of those processes is followed.  Summing the self times
    along the returned spans accounts for the root's wall time up to the
    shards' start-time skew.
    """
    index = children_index(spans)
    path: List[Span] = []
    frontier = [root]
    while frontier:
        span = frontier.pop()
        path.append(span)
        children = index.get(span[ID], [])
        by_process: Dict[int, List[Span]] = defaultdict(list)
        for child in children:
            by_process[child[PID]].append(child)
        frontier.extend(by_process.pop(span[PID], []))
        if by_process:
            frontier.extend(
                max(
                    by_process.values(),
                    key=lambda group: sum(c[END] - c[START] for c in group),
                )
            )
    return path
