"""Straggler detection and speculative re-execution policy (LATE-style).

A *straggler* is a run whose elapsed time already exceeds what the completed
population suggests it should have needed.  Detection is quantile-based over
**speed-normalised** durations (observed wall-clock times the worker's SKU
factor), so a slow SKU's legitimately longer runs never read as stragglers
in a heterogeneous fleet — the same Gavel-style normalisation the placement
ranking uses.

The policy is deliberately conservative, mirroring classic speculative
execution (Zaharia et al., OSDI'08): wait for a minimum history, flag an
in-flight run once its normalised elapsed time passes
``quantile(history) * slack``, and launch at most ``max_clones_per_item``
duplicate on an idle worker.  The execution engine owns the mechanics
(first-finish-wins, cancellation, worker release); this module owns the
*decision*.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class SpeculationPolicy:
    """Tunables of the speculative re-execution decision."""

    #: Quantile of completed normalised durations that anchors the threshold.
    quantile: float = 0.9
    #: Multiplier on the quantile: how far past "normal" a run must be.
    #: Chasing mild (<1.5x) slowdowns wastes duplicate capacity for little
    #: makespan gain, so the default only fires well past the populace.
    slack: float = 1.5
    #: Completed runs required before any detection fires (cold-start guard).
    min_history: int = 5
    #: Duplicates allowed per work item (first-finish-wins per pair).
    max_clones_per_item: int = 1
    #: Completed durations retained for the quantile (ring-buffered): the
    #: threshold tracks the most recent window instead of the whole run, so
    #: detector memory is bounded on million-sample runs and the threshold
    #: adapts to workload drift.  Runs shorter than the window are
    #: bit-for-bit the unwindowed behaviour.
    history_window: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        if self.min_history < 1:
            raise ValueError("min_history must be >= 1")
        if self.max_clones_per_item < 1:
            raise ValueError("max_clones_per_item must be >= 1")
        if self.history_window < self.min_history:
            raise ValueError("history_window must be >= min_history")


def sorted_quantile(values: Sequence[float], q: float) -> float:
    """``np.quantile(values, q)`` of an ascending sequence, in O(1).

    Bit for bit numpy's default ``"linear"`` method: the same virtual index
    ``(n - 1) * q``, the same neighbours (the last value when the index
    reaches the end) and the same two-sided interpolation formula, so a
    caller that keeps its window sorted can drop the per-query partition.
    ``values`` must be free of NaN.
    """
    n = len(values)
    if n == 0:
        raise ValueError("quantile of an empty sequence")
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = values[-1]
        gamma = virtual + 1.0  # numpy measures it from index -1
    else:
        index = math.floor(virtual)
        below, above = values[index], values[index + 1]
        gamma = virtual - index
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1.0 - gamma)
    return below + diff * gamma


class StragglerDetector:
    """Quantile detector over completed-sample duration statistics.

    The history is a bounded ring (``policy.history_window`` most recent
    normalised durations); evicted values survive only as aggregates.  This
    keeps detector memory independent of run length and makes the threshold
    a moving-window statistic — identical to the unwindowed detector for
    any run shorter than the window.  A sorted copy of the window is kept
    alongside (bisect insert, bisect evict), so a new threshold is one
    O(1) :func:`sorted_quantile` lookup — bit for bit ``np.quantile`` of
    the window — instead of a partition per completion.
    """

    def __init__(self, policy: Optional[SpeculationPolicy] = None) -> None:
        # Imported here, not at module top: repro.core.async_engine imports
        # this package, so a top-level import of repro.core from here would
        # be a circular package initialisation.
        from repro.core.telemetry_slots import RingBuffer

        self.policy = policy if policy is not None else SpeculationPolicy()
        self._durations = RingBuffer(self.policy.history_window)
        self._sorted: List[float] = []  # the ring's values, ascending
        self._threshold: Optional[float] = None  # cache, invalidated by observe

    # Checkpoints pickle the ring only; the sorted copy is rebuilt on load.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_sorted"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._sorted = sorted(self._durations.as_array().tolist())

    @property
    def n_observed(self) -> int:
        """All-time observation count (window evictions included)."""
        return self._durations.n_appended

    @property
    def n_windowed(self) -> int:
        """Observations currently inside the quantile window."""
        return len(self._durations)

    def observe(self, normalized_duration: float) -> None:
        """Record one completed run's speed-normalised duration."""
        if not normalized_duration >= 0:
            raise ValueError("durations cannot be negative or NaN")
        value = float(normalized_duration) + 0.0  # folds -0.0 into 0.0
        evicted = self._durations.append(value)
        if evicted is not None:
            del self._sorted[bisect_left(self._sorted, evicted)]
        insort(self._sorted, value)
        self._threshold = None

    def threshold(self) -> Optional[float]:
        """Normalised elapsed time beyond which a run counts as straggling.

        ``None`` while the history is shorter than the policy's
        ``min_history`` — no detection fires during cold start.
        """
        if self._durations.n_appended < self.policy.min_history:
            return None
        if self._threshold is None:
            anchor = sorted_quantile(self._sorted, self.policy.quantile)
            self._threshold = anchor * self.policy.slack
        return self._threshold

    def is_straggler(self, normalized_elapsed: float) -> bool:
        threshold = self.threshold()
        return threshold is not None and normalized_elapsed > threshold


@dataclass
class SpeculationStats:
    """What the speculative re-execution machinery did during a run."""

    n_stragglers_detected: int = 0
    n_duplicates_submitted: int = 0
    n_duplicate_wins: int = 0
    n_duplicate_losses: int = 0
    n_items_cancelled: int = 0
    detection_threshold_hours: Optional[float] = None
    extra: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "n_stragglers_detected": self.n_stragglers_detected,
            "n_duplicates_submitted": self.n_duplicates_submitted,
            "n_duplicate_wins": self.n_duplicate_wins,
            "n_duplicate_losses": self.n_duplicate_losses,
            "n_items_cancelled": self.n_items_cancelled,
            "detection_threshold_hours": self.detection_threshold_hours,
            **self.extra,
        }
