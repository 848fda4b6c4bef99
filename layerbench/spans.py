"""Span recording for the benchmark's traced runs.

Spans are recorded from outside the program: :meth:`Tracer.wrap`
replaces a function or method attribute with a wrapper that times each
call and remembers which wrapped call (on the same thread) was running
when it started — its parent.  Spans stay in memory and are written
out once, when the traced process ends.

:func:`ledger` folds a span list into per-name totals, with each span's
self time (its duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects ``(id, name, start, end, parent, items)`` spans."""

    def __init__(self):
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "items": 0,
        }
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> int:
        """Record a top-level span measured by the caller; returns its id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append({
                "id": span_id, "name": name, "parent": None,
                "start": start, "end": end, "items": 0,
            })
        return span_id

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        items: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``items(args, kwargs, result)`` counts the work one call did;
        ``on_result(result)`` sees each return value (for telemetry the
        program hands back).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if items is not None:
                span["items"] = int(items(args, kwargs, result))
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def ledger(spans: List[dict]) -> Dict[str, dict]:
    """Per-name ``calls``, ``total_s``, ``self_s`` and ``items``."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    out: Dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = out.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        )
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span["id"], 0.0)
        row["items"] += span["items"]
    return out


def direct_children_s(spans: List[dict], parent: int) -> float:
    """Total duration of the spans whose parent is ``parent``."""
    return sum(
        span["end"] - span["start"] for span in spans if span["parent"] == parent
    )
