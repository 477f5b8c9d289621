"""In-memory spans around the benchmark's calls into each kgsquare layer.

A span records its name, start, end, the span that caused it (its parent)
and the operation it belongs to. Spans stay in memory until the run ends;
self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from kgsquare import DomainError, NumericalError

# Span store capacity; a traced loop stops issuing operations once it is full
# so that tracing microsecond operations cannot exhaust memory.
CAPACITY = 1 << 18


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = -1

    @property
    def full(self) -> bool:
        return len(self.start) >= CAPACITY

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> int:
        """Close span idx and return its duration in ns."""
        t = time.perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name; kgsquare's own
        errors are counted against the span's layer and re-raised."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        except (DomainError, NumericalError):
            layer = name.split(".", 1)[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1
            raise
        finally:
            self.finish(idx)

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        return self_times(
            [self.names[n] for n in self.name], list(self.start), list(self.end), list(self.parent)
        )

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz file (span names in
        ``names``; per span its name index, start and end in ns, parent
        index or -1, and operation id)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(names: list[str], start: list[int], end: list[int], parent: list[int]) -> dict[str, int]:
    """Per span name, the sum over its spans of duration minus the time
    covered by the span's direct children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out: dict[str, int] = {}
    for i, name in enumerate(names):
        own = end[i] - start[i] - covered(children.get(i, []), start[i], end[i])
        out[name] = out.get(name, 0) + own
    return out
