"""Result corruption models: measurements that come back as garbage.

A gray-failing worker does not only stall — it can return NaN from a wedged
benchmark harness, infinities from a division by a zeroed counter, or
wildly out-of-domain readings from a half-configured SuT.  A
:class:`CorruptionModel` is consulted by
:class:`~repro.core.async_engine.AsyncExecutionEngine` after a run has been
measured (so the measurement RNG stays aligned with clean runs) and decides
whether the *reported* value is replaced.  It exercises the quarantine gate
of :class:`~repro.core.validation.ResultValidator` end to end.

Streams follow the shared :class:`~repro.faults.injector.Injector`
contract under domain tag 19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.faults.injector import InjectionContext, Injector, register


@dataclass(frozen=True)
class CorruptionDecision:
    """What a corruption model decided for one measured value.

    ``kind`` is one of ``"nan"``, ``"inf"``, ``"wild"``; :meth:`apply`
    turns the true measurement into the corrupted reading.
    """

    corrupted: bool
    kind: str = ""

    #: Multiplier for ``"wild"`` corruption: far outside any plausible
    #: objective domain, but still finite (only a bounded validator can
    #: catch it — NaN/Inf are caught unconditionally).
    WILD_FACTOR = 1e9

    def apply(self, value: float) -> float:
        if not self.corrupted:
            return value
        if self.kind == "nan":
            return float("nan")
        if self.kind == "inf":
            return float("inf") if value >= 0 else float("-inf")
        return value * self.WILD_FACTOR


#: The shared "measurement is sound" decision (no per-call allocation).
SOUND = CorruptionDecision(corrupted=False)


class CorruptionModel(Injector[CorruptionDecision]):
    """Domain base: decides whether (and how) a measured value is corrupted.

    Several models combine to the first corruption in member order.
    """

    domain = "corruption"
    tag = (19,)

    def combine(self, decisions: Sequence[CorruptionDecision]) -> CorruptionDecision:
        return next((d for d in decisions if d.corrupted), SOUND)


class NoCorruptionModel(CorruptionModel):
    """The ``"none"`` model: every measurement is sound, no RNG consumed."""

    name = "none"
    null = True

    def decide(self, context: InjectionContext) -> CorruptionDecision:
        return SOUND


class CorruptResultModel(CorruptionModel):
    """Seeded garbage injection: NaN, infinities, wild readings.

    With probability ``rate`` a measured value is replaced: a third of the
    hits each become NaN, signed infinity, or a wild (finite but absurd)
    reading.  Two draws per decision, unconditionally, so the stream
    position never depends on earlier outcomes.
    """

    name = "corrupt_result"
    aliases = ("corrupt",)

    def __init__(self, seed: Optional[int] = None, rate: float = 0.05) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = float(rate)

    def decide(self, context: InjectionContext) -> CorruptionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        mode = float(rng.random())
        if not hit:
            return SOUND
        if mode < 1.0 / 3.0:
            kind = "nan"
        elif mode < 2.0 / 3.0:
            kind = "inf"
        else:
            kind = "wild"
        return CorruptionDecision(corrupted=True, kind=kind)


register(NoCorruptionModel, CorruptResultModel)
