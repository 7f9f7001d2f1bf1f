"""In-memory span tracer and wall-time attribution for the traced runs.

A span is (id, name, thread, start_ns, end_ns, parent_id). Each thread keeps
its own stack of open spans, so spans from pool workers nest under the span
open in that worker. Work submitted to a pool adopts the submitting thread's
innermost open span as the parent of the worker's outermost spans.

Attribution splits every instant of the traced wall equally among the open
spans that have no open child at that instant (the leaves). With one thread
this is the usual self time: a span's duration minus what its children
cover. With several threads, concurrent leaves share the instant, so the
self times of all spans plus the untraced remainder always add up to the
traced wall.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

now_ns = time.monotonic_ns   # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Collects spans and counters; nothing is written until dump time."""

    def __init__(self):
        self.spans = []                 # (id, name, thread, start, end, parent)
        self.counts = defaultdict(float)
        self.peaks = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span id on this thread, else the adopted parent."""
        stack = self._stack()
        if stack:
            return stack[-1][0]
        return getattr(self._local, "adopted", None)

    def open_names(self):
        return [name for _, name in self._stack()]

    def begin(self, name: str):
        span_id = next(self._ids)
        parent = self.current()
        self._stack().append((span_id, name))
        return span_id, name, parent, now_ns()

    def end(self, token):
        end = now_ns()
        span_id, name, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, threading.get_ident(), start, end,
                           parent))

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    def count(self, key: str, value: float = 1.0):
        with self._count_lock:
            self.counts[key] += value

    def peak(self, key: str, value: float):
        with self._count_lock:
            self.peaks[key] = max(value, self.peaks.get(key, value))

    def adopting(self, fn):
        """Wrap fn so that, run on another thread, it nests under the span
        open here at wrap time."""
        parent = self.current()

        def run(*args, **kwargs):
            saved = getattr(self._local, "adopted", None)
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.adopted = saved
        return run


def attribute(spans, t0: int, t1: int):
    """Wall-time attribution over [t0, t1] in ns.

    Returns (self_ns by span id, untraced_ns): at each instant the open
    leaves share it equally; instants with no open span are untraced.
    """
    events = []
    for span_id, _, _, start, end, parent in spans:
        events.append((max(start, t0), 1, span_id, parent))
        events.append((min(end, t1), 0, span_id, parent))
    # at equal times ends come before begins, so touching spans never
    # overlap; parents (smaller ids) begin first and end last
    events.sort(key=lambda e: (e[0], e[1], e[2] if e[1] else -e[2]))
    open_children = defaultdict(int)
    leaves = set()
    is_open = set()
    nested = set()
    self_ns = defaultdict(float)
    untraced = 0.0
    prev = t0
    for t, kind, span_id, parent in events:
        if t > prev:
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_ns[leaf] += share
            else:
                untraced += t - prev
            prev = t
        if kind == 1:
            is_open.add(span_id)
            if open_children[span_id] == 0:
                leaves.add(span_id)
            if parent in is_open:
                nested.add(span_id)
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(span_id)
            leaves.discard(span_id)
            if span_id in nested and parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    if t1 > prev:
        untraced += t1 - prev
    return dict(self_ns), untraced


def selftest() -> list[str]:
    """Check attribution on synthetic span trees; returns failure messages."""
    failures = []

    def expect(label, spans, t0, t1, want_self, want_untraced):
        got, untraced = attribute(spans, t0, t1)
        for span_id, want in want_self.items():
            if abs(got.get(span_id, 0.0) - want) > 1e-9:
                failures.append(f"{label}: span {span_id} self "
                                f"{got.get(span_id, 0.0)} != {want}")
        if abs(untraced - want_untraced) > 1e-9:
            failures.append(f"{label}: untraced {untraced} != {want_untraced}")
        if abs(sum(got.values()) + untraced - (t1 - t0)) > 1e-9:
            failures.append(f"{label}: self times plus untraced != wall")

    # one thread: root [10, 100] with children [20, 50] (grandchild [30, 40])
    # and [60, 70]; wall [0, 110]
    nested = [(3, "b", 1, 30, 40, 2), (2, "a", 1, 20, 50, 1),
              (4, "c", 1, 60, 70, 1), (1, "root", 1, 10, 100, None)]
    expect("nested", nested, 0, 110, {1: 90 - 40, 2: 20, 3: 10, 4: 10}, 20)
    # two workers under one waiting parent [0, 100]: [10, 60] and [40, 90]
    # overlap on [40, 60], which they share; the parent keeps [0,10]+[90,100]
    pool = [(1, "p", 1, 0, 100, None), (2, "w", 2, 10, 60, 1),
            (3, "w", 3, 40, 90, 1)]
    expect("pool", pool, 0, 100, {1: 20, 2: 30 + 10, 3: 10 + 30}, 0)
    # unrelated roots on two threads overlapping on [5, 10]
    roots = [(1, "x", 1, 0, 10, None), (2, "y", 2, 5, 20, None)]
    expect("roots", roots, 0, 30, {1: 5 + 2.5, 2: 2.5 + 10}, 10)
    # a child with its parent's exact bounds takes all of the parent's time
    same = [(2, "c", 1, 0, 10, 1), (1, "p", 1, 0, 10, None)]
    expect("same", same, 0, 10, {1: 0, 2: 10}, 0)
    return failures
