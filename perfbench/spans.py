"""Outside-in tracing: spans recorded around the program's public layer
functions, from the benchmark's own code, with no change to the program.

Each function is wrapped at the name its caller looks up. `pipeline`
binds `evaluate_cv`, `normalize_variable`, `judge_diagnoses` and
`canonicalize_record` into its own namespace, so those are patched there;
functions a module calls through its own globals, such as
`predict.train_classifier`, are patched in their home module; methods are
patched on their class.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records spans in memory; callers write them out when the run ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = {}  # thread id -> stack of open spans
        self._root_thread = threading.get_ident()
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0

    def begin(self, name):
        stack = self._open.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1].id
        else:
            # A worker thread (gateway.chat_many) starts with no open span: its
            # caller is the innermost open span of the thread that traces, which
            # is blocked waiting for the workers.
            root = self._open.get(self._root_thread)
            parent = root[-1].id if root else None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._open[threading.get_ident()].pop()

    def wrap(self, owner, attr, name, on_call=None, on_error=None):
        """Replace owner.attr by a wrapper that records one span per call.

        `name` is a span name, or a function of the call's arguments that
        returns one. `on_call(result, args, kwargs)` sees every result and
        `on_error(exc)` every exception, which is then re-raised.
        """
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name_of(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self.end(span)
            if on_call:
                on_call(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def wrap_endpoint(self, backend):
        """Wrap a backend instance's chat and embed, counting overlapping calls."""
        for attr in ("chat", "embed"):
            original = getattr(backend, attr)

            @functools.wraps(original)
            def traced(*args, _original=original, **kwargs):
                with self._lock:
                    self.inflight += 1
                    self.max_inflight = max(self.max_inflight, self.inflight)
                span = self.begin("gateway.backend")
                try:
                    return _original(*args, **kwargs)
                finally:
                    self.end(span)
                    with self._lock:
                        self.inflight -= 1

            setattr(backend, attr, traced)


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def nearest_ancestor(spans, names):
    """span id -> id of its nearest ancestor whose name is in `names`, or None."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        out[s.id] = p
    return out
