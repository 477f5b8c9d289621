"""Order statistics for the benchmark: exact latency percentiles from a
nanosecond histogram, per-input medians over repeated cycles, the
tail-percentile rule, and run summaries."""

from __future__ import annotations

import math
import statistics

import numpy as np

# Candidate tail percentiles, highest first. The tail is the highest of these
# that still leaves at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class Latencies:
    """Exact latency record kept as a histogram of nanosecond durations.

    Memory grows with the number of distinct durations, not with the number
    of operations, so microsecond operations can run for a whole measurement
    window without the record itself inflating the process's memory.
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        self.counts[ns] = self.counts.get(ns, 0) + 1
        self.n += 1
        self.total_ns += ns

    def value_at_rank(self, rank: int) -> int:
        """The rank-th smallest duration, 1-based."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        seen = 0
        for ns in sorted(self.counts):
            seen += self.counts[ns]
            if seen >= rank:
                return ns
        raise AssertionError("unreachable")

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile: the smallest duration with at least
        p percent of the samples at or below it."""
        return self.value_at_rank(nearest_rank(p, self.n))


class RepeatMedians:
    """Median latency of each input over the cycles of a run, in fixed memory.

    Every cycle times each input once. Cycles are kept at a stride that
    doubles whenever the buffer is full, so the kept cycles stay spread
    evenly over the whole run: once the buffer has filled, each input has
    between rows/2 and rows samples. A median over them drops the short
    stretches in which a shared core runs slower for every input alike.
    """

    def __init__(self, inputs: int, rows: int = 32) -> None:
        if rows < 2 or rows % 2:
            raise ValueError("rows must be even and at least 2")
        self.buf = np.empty((rows, inputs), dtype=np.int64)
        self.kept = 0
        self.stride = 1
        self.cycles = 0

    def add(self, row) -> None:
        """Record one whole cycle: row[i] is the latency of input i in ns."""
        if self.cycles % self.stride == 0:
            if self.kept == len(self.buf):
                half = self.buf[::2].copy()
                self.buf[: len(half)] = half
                self.kept = len(half)
                self.stride *= 2
            self.buf[self.kept] = row
            self.kept += 1
        self.cycles += 1

    def medians(self) -> list[float]:
        """Per-input median latency in ns, in input order."""
        return np.median(self.buf[: self.kept], axis=0).tolist()

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over every operation of the run, each
        operation taking its input's median latency. Every input ran once
        per cycle, so each median stands for `cycles` operations."""
        ranked = sorted(self.medians())
        return ranked[(nearest_rank(p, self.cycles * len(ranked)) - 1) // self.cycles]


def nearest_rank(p: float, n: int) -> int:
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it): the highest ladder percentile that
    leaves at least MIN_BEYOND of n samples above its rank. Below the ladder
    it is the exact percentile of rank n - MIN_BEYOND, and with no more than
    MIN_BEYOND samples the maximum (percentile 100, none beyond)."""
    for p in TAIL_LADDER:
        beyond = n - nearest_rank(p, n)
        if beyond >= MIN_BEYOND:
            return p, beyond
    if n > MIN_BEYOND:
        return 100.0 * (n - MIN_BEYOND) / n, MIN_BEYOND
    return 100.0, 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
