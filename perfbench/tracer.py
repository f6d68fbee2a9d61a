"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around calls into each
layer's public functions: :func:`wrap` swaps a module or class attribute
for a timing wrapper, and :class:`HookSpans` subscribes to
:class:`repro.sph.hooks.ProfilingHooks`.  Nothing under ``src/`` changes.

Each span carries a name, start, end, parent and thread.  Every thread
keeps its own stack, so the telemetry service's event-loop thread, the
publisher and the query thread nest independently.  A span's self time
is its duration minus the durations of its direct children.  Spans stay
in compact arrays until :meth:`Tracer.write` saves them at exit.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Thread-aware span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: dict[str, int] = {}
        self._name_list: list[str] = []
        self._thread_ids: dict[int, int] = {}
        self._next_id = 0
        # One row per finished span (parallel compact arrays); rows are
        # written when a span closes, so children precede their parents.
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_thread = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        #: Per-name totals: [calls, total seconds, self seconds].
        self.totals: dict[str, list[float]] = {}
        #: Per-name item counts reported by ``wrap(..., count=)``.
        self.counts: dict[str, int] = {}

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        """Open a span on the calling thread."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        # [name, start, child seconds, span id]
        self._stack().append([name, time.perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        """Close the calling thread's innermost span."""
        end = time.perf_counter()
        stack = self._stack()
        name, start, child, span_id = stack.pop()
        duration = end - start
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        thread = threading.get_ident()
        with self._lock:
            name_id = self._names.get(name)
            if name_id is None:
                name_id = self._names[name] = len(self._name_list)
                self._name_list.append(name)
            thread_id = self._thread_ids.setdefault(thread, len(self._thread_ids))
            self._span_id.append(span_id)
            self._span_parent.append(parent)
            self._span_name.append(name_id)
            self._span_thread.append(thread_id)
            self._span_start.append(start)
            self._span_end.append(end)
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - child

    def add(self, name: str, n: int) -> None:
        """Add ``n`` items to the count of ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """Copy of the per-name ``(calls, total s, self s)`` totals."""
        with self._lock:
            return {k: (int(v[0]), v[1], v[2]) for k, v in self.totals.items()}

    @property
    def num_spans(self) -> int:
        return len(self._span_start)

    def write(self, path: Path) -> None:
        """Save every finished span as compressed arrays (``.npz``)."""
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(
                path,
                names=np.array(self._name_list),
                id=np.frombuffer(self._span_id, dtype=np.int64),
                name=np.frombuffer(self._span_name, dtype=np.int32),
                thread=np.frombuffer(self._span_thread, dtype=np.int32),
                parent=np.frombuffer(self._span_parent, dtype=np.int64),
                start=np.frombuffer(self._span_start, dtype=np.float64),
                end=np.frombuffer(self._span_end, dtype=np.float64),
            )


def diff(
    after: dict[str, tuple[int, float, float]],
    before: dict[str, tuple[int, float, float]],
) -> dict[str, tuple[int, float, float]]:
    """Per-name totals accumulated between two snapshots."""
    out = {}
    for name, (calls, total, self_s) in after.items():
        c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
        out[name] = (calls - c0, total - t0, self_s - s0)
    return out


def accumulate(into: dict, delta: dict) -> None:
    """Add the per-name totals of ``delta`` into ``into``."""
    for name, (calls, total, self_s) in delta.items():
        c0, t0, s0 = into.get(name, (0, 0.0, 0.0))
        into[name] = (c0 + calls, t0 + total, s0 + self_s)


def wrap(
    tracer: Tracer, owner, attr: str, name: str, owners=(), count=None
) -> None:
    """Replace ``owner.attr`` with a wrapper that records span ``name``.

    ``owners`` lists further modules that imported the same function by
    name, so their references are swapped too.  ``count(result)``, when
    given, adds the items each call returned to ``tracer.counts[name]``.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            tracer.add(name, count(result))
        return result

    for target in (owner, *owners):
        setattr(target, attr, traced)


class HookSpans:
    """``ProfilingHooks`` subscriber turning SPH regions into spans."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def on_enter(self, name: str) -> None:
        self._tracer.enter("sph." + name)

    def on_exit(self, name: str) -> None:
        self._tracer.exit()
