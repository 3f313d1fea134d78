"""Result quarantine: the gate between the engine and the optimizer.

A gray-failing worker does not only stall — it can return *garbage*: NaN
from a wedged benchmark harness, infinities from a division by a zeroed
counter, wildly out-of-domain readings from a half-configured SuT.  Told to
the optimizer, a single such value poisons the surrogate (NaN propagates
through every fit) or pins the incumbent to a physically impossible
optimum.  The :class:`ResultValidator` sits between
:class:`~repro.core.async_engine.AsyncExecutionEngine` and the sampler: a
completed sample whose objective value fails validation is *quarantined* —
logged, tallied, and re-measured under the slot's retry budget; a slot that
exhausts its budget surfaces as the paper's crash-penalty sample, exactly
like the fail-stop path, so the optimizer always receives exactly one
finite, in-domain result per slot.

:class:`~repro.faults.corruption.CorruptResultModel` is the matching fault
injector.  The validator itself consumes no RNG and, on finite in-domain
values, changes nothing: enabling validation on a clean run is bit-for-bit
inert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ResultValidator:
    """Objective-domain gate: rejects NaN/Inf and out-of-domain values.

    ``lower``/``upper`` optionally bound the physically plausible objective
    domain (throughput cannot be negative, latency cannot exceed the
    timeout...); without bounds only non-finite values are rejected.
    :meth:`check` returns ``None`` for an acceptable value or a short
    reason string — pure arithmetic, no RNG, no state.
    """

    lower: Optional[float] = None
    upper: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ValueError("lower bound must not exceed upper bound")

    def check(self, value: float) -> Optional[str]:
        """``None`` when the value may reach the optimizer, else the reason."""
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        if self.lower is not None and value < self.lower:
            return "below-domain"
        if self.upper is not None and value > self.upper:
            return "above-domain"
        return None


def build_validator(
    spec: "ResultValidator | bool | None",
) -> Optional[ResultValidator]:
    """Normalise the ``validation=`` argument: ``True`` means defaults."""
    if spec is True:
        return ResultValidator()
    if spec is False or spec is None:
        return None
    return spec
