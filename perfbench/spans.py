"""Span tracer that wraps trigzero's public functions from outside the package.

``Tracer`` rebinds module attributes (for example
``trigzero.experiments.scan_count_batch``) to timing wrappers for the length
of a ``with`` block and restores every original on exit.  Spans live in
memory until ``dump`` writes them out once.

A wrapper is installed on the module whose globals the caller resolves the
name in: ``trigzero.cli`` imported ``run_campaign`` by name, so the campaign
span wraps ``trigzero.cli.run_campaign``, not ``trigzero.experiments``'s.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function.

    A call's parent is the innermost open span on its own thread.  A thread
    with no open span (a campaign pool worker) takes the innermost open span
    of the thread that created the tracer, which is the thread that fanned
    the work out.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._saved: list[tuple] = []

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        try:
            return home[-1] if home else None
        except IndexError:  # the home thread closed its span meanwhile
            return None

    def span(self, name, fn, *args, attrs=None, **kwargs):
        """Call ``fn`` inside a span; ``attrs(args, kwargs, result)`` adds counts.

        A call that raises still leaves its span, without counts.
        """
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        done = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if done and attrs is not None else {}
            self.spans.append(Span(sid, name, start, end, parent, tid, extra))

    def wrap(self, module, attr, name, attrs=None):
        """Rebind ``module.attr`` to a spanning wrapper until ``restore``."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, attrs=attrs, **kwargs)

        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def write_spans(path, tracers):
    """Write the spans of labelled tracers as JSON lines, in one write.

    ``tracers`` is a list of (label, Tracer) pairs; span ids restart with
    each tracer, so the label tells the runs apart.
    """
    lines = [
        json.dumps(
            {
                "run": label,
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
                "attrs": s.attrs,
            },
            sort_keys=True,
        )
        for label, tracer in tracers
        for s in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def self_times(spans) -> dict:
    """Self time per span id: duration minus the time its children cover.

    A child on any thread covers the part of its interval that lies inside
    the parent.  Children on different threads that run at the same time,
    such as two campaign pool workers, cover that interval once: the parent
    was waiting for both, not working.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.sid: s.duration
        - covered(
            (max(k.start, s.start), min(k.end, s.end)) for k in children.get(s.sid, ())
        )
        for s in spans
    }
