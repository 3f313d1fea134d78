"""Bounded (slotted) telemetry containers for million-sample runs.

The discrete-event engine used to be safe to introspect only because runs
were small: any map keyed by work-item sequence or configuration grows with
the number of *samples*, and at the ROADMAP's target scale (10k workers,
1M samples) an unbounded dict of per-event records is the difference
between a run that completes and one that pages itself to death.

This module supplies the two slotting primitives the event loop uses to
keep memory independent of run length:

* :class:`RingBuffer` — a fixed-capacity numpy-backed ring of float values.
  Appends are O(1); once full, the oldest value is *spilled* (evicted) and
  only its aggregate survives.  The buffer always holds the most recent
  ``capacity`` values in chronological order.
* :class:`SpillSummary` — running aggregates (count / sum / min / max) of
  everything ever observed, O(1) memory.  Paired with a ring buffer it
  answers "what happened overall" after the raw events are gone.
* :class:`LoopTelemetry` — the event loop's own instrument panel: per-kind
  event counters (O(1)) plus a ring of recent completion instants, so a
  million-event run retains full aggregate statistics and a bounded recent
  window instead of a per-event log.

Determinism: nothing here draws entropy or reads wall-clock; contents are a
pure function of the observed sequence.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class SpillSummary:
    """Running aggregates over an unbounded stream, O(1) memory."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def merge(self, other: "SpillSummary") -> None:
        """Fold another summary into this one (per-group → rollup).

        Equivalent to having observed both streams: counts and totals add,
        extrema combine.  Merging an empty summary is a no-op, so rollups
        can fold groups unconditionally.
        """
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class RingBuffer:
    """Fixed-capacity ring of floats; evicted values feed a spill summary.

    The ring holds the most recent ``capacity`` appended values.  Older
    values are gone from the buffer but remain visible through
    :attr:`spilled` (a :class:`SpillSummary` of evictions only) and through
    the all-time counters, so bounded memory never silently truncates the
    run's aggregate story.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values = np.empty(capacity, dtype=np.float64)
        self._next = 0  # write cursor
        self._size = 0
        self.n_appended = 0
        self.spilled = SpillSummary()

    def __len__(self) -> int:
        return self._size

    @property
    def n_spilled(self) -> int:
        return self.spilled.count

    def append(self, value: float) -> Optional[float]:
        """Append one value; returns the value it evicted, if the ring was full."""
        value = float(value)
        evicted: Optional[float] = None
        if self._size == self.capacity:
            evicted = float(self._values[self._next])
            self.spilled.observe(evicted)
        else:
            self._size += 1
        self._values[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self.n_appended += 1
        return evicted

    def as_array(self) -> np.ndarray:
        """Buffered values, oldest first (a copy; safe to mutate)."""
        if self._size < self.capacity:
            return self._values[: self._size].copy()
        return np.concatenate(
            (self._values[self._next :], self._values[: self._next])
        )

    def snapshot(self) -> Dict[str, object]:
        """All-time aggregates plus the buffered window, one dict.

        Combines the spill summary (evictions) with the still-buffered
        values, so ``count``/``total``/extrema describe *everything* ever
        appended — the bounded window never silently truncates the story.
        """
        window = self.as_array()
        combined = SpillSummary()
        combined.merge(self.spilled)
        for value in window:
            combined.observe(float(value))
        out = combined.as_dict()
        out["n_appended"] = self.n_appended
        out["n_spilled"] = self.n_spilled
        out["window"] = window.tolist()
        return out

    def quantile(self, q: float) -> float:
        """Quantile over the *buffered* (most recent) window."""
        if self._size == 0:
            raise ValueError("quantile of an empty ring buffer")
        if self._size < self.capacity:
            window = self._values[: self._size]
        else:
            window = self._values
        return float(np.quantile(window, q))


class LoopTelemetry:
    """Bounded instrument panel of a :class:`ClusterEventLoop`.

    Per-kind event counters are O(1); the completion-instant ring keeps the
    most recent window for post-hoc inspection (and lets the scale
    benchmark *assert* that memory stayed bounded at a million samples).
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.n_submitted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_cancelled = 0
        self.recent_completions = RingBuffer(capacity)
        self.durations = SpillSummary()

    def record_submit(self) -> None:
        self.n_submitted += 1

    def record_complete(self, finish_hours: float, duration_hours: float) -> None:
        self.n_completed += 1
        self.recent_completions.append(finish_hours)
        self.durations.observe(duration_hours)

    def record_fail(self) -> None:
        self.n_failed += 1

    def record_cancel(self) -> None:
        self.n_cancelled += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_failed": self.n_failed,
            "n_cancelled": self.n_cancelled,
            "recent_window": len(self.recent_completions),
            "window_capacity": self.capacity,
            "durations": self.durations.as_dict(),
        }
