"""Spans around the program's public functions, recorded from outside it.

The benchmark owns all tracing: :class:`Tracer` replaces a public
function (or method) by a timing wrapper wherever a ``repro`` module has
bound it, and puts the original back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` knows it is being traced.

Each span has a name, a start, an end, its parent span (the innermost
traced call it ran inside, per thread) and the request id the thread was
serving.  Spans stay in memory; :meth:`Tracer.write_chrome` writes them
as Chrome trace events, which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` open.  A span's *self* time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Events kept for the trace file; aggregates cover every span.
MAX_EVENTS = 200_000


class _Frame:
    __slots__ = ("span", "child_ns")

    def __init__(self, span: int) -> None:
        self.span = span
        self.child_ns = 0


class Tracer:
    """Records spans and per-name aggregates; patches and unpatches."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []
        #: (span, name, start_ns, dur_ns, thread, parent span, request id)
        self.events: List[tuple] = []
        #: Per name: every call's duration and self time, in ns.
        self.dur_ns: Dict[str, List[int]] = defaultdict(list)
        self.self_ns: Dict[str, List[int]] = defaultdict(list)
        #: Per (request-id prefix, name): every call's (duration, self
        #: time) in ns - the prefix before the first "-" names the kind
        #: of traffic ("A-17" is a reference-window read).  A tagged
        #: span counts under its name and its tagged name, as above.
        self.by_group: Dict[Tuple[str, str], List[Tuple[int, int]]] = \
            defaultdict(list)
        self.origin_ns = time.perf_counter_ns()

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag the spans this thread records next with ``request_id``."""
        self._local.request = request_id

    def wrap(self, fn: Callable, name: str, tag: Optional[Callable] = None):
        """``fn`` timed as span ``name``.

        ``tag(args, kwargs, result)``, when given, returns a suffix: the
        span is then also aggregated under ``name + "." + suffix`` (a
        query's method, a measure, whether a cut was found).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1].span if stack else -1
            frame = _Frame(next(tracer._ids))
            stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1].child_ns += dur
                full = name
                if tag is not None:
                    suffix = tag(args, kwargs, result)
                    if suffix is not None:
                        full = f"{name}.{suffix}"
                tracer._record(
                    name, full, frame.span, start, dur, dur - frame.child_ns,
                    parent, getattr(local, "request", None),
                )

        return traced

    def _record(self, name, full, span, start, dur, self_dur, parent,
                request) -> None:
        with self._lock:
            self.dur_ns[name].append(dur)
            self.self_ns[name].append(self_dur)
            if full != name:
                self.dur_ns[full].append(dur)
                self.self_ns[full].append(self_dur)
            if request is not None:
                group = request.split("-", 1)[0]
                self.by_group[(group, name)].append((dur, self_dur))
                if full != name:
                    self.by_group[(group, full)].append((dur, self_dur))
            if len(self.events) < MAX_EVENTS:
                self.events.append((span, full, start, dur,
                                    threading.get_ident(), parent, request))

    # -- patching ---------------------------------------------------------
    def patch_function(self, fn: Callable, name: str, tag=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        traced = self.wrap(fn, name, tag)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, cls: type, attr: str, name: str, tag=None) -> None:
        """Replace a method or class method defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, tag))
        else:
            replacement = self.wrap(raw, name, tag)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, int, int]]:
        """Per name: (calls, summed duration ns, summed self ns) so far.

        The difference of two snapshots scopes the aggregates to the
        work done in between.
        """
        with self._lock:
            return {
                name: (len(durs), sum(durs), sum(self.self_ns[name]))
                for name, durs in self.dur_ns.items()
            }

    def write_chrome(self, path, process_name: str) -> int:
        """Write the kept spans as Chrome trace events; returns the count."""
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process_name}}]
        for span, name, start, dur, tid, parent, request in self.events:
            args = {"span": span, "parent": parent}
            if request is not None:
                args["request_id"] = request
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin_ns) / 1e3,
                "dur": dur / 1e3,
                "pid": 1,
                "tid": tid % 1_000_000,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events) - 1


def delta(before: Dict[str, Tuple[int, int, int]],
          after: Dict[str, Tuple[int, int, int]]) -> Dict[str, Tuple]:
    """``after - before`` of two :meth:`Tracer.totals` snapshots."""
    zero = (0, 0, 0)
    return {
        name: tuple(a - b for a, b in zip(value, before.get(name, zero)))
        for name, value in after.items()
    }

