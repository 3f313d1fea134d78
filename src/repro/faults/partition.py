"""Gray-failure partition models: workers that go silent instead of dying.

The crash models of :mod:`repro.faults.crash` kill runs; the models here
*delay their reports*.  A :class:`PartitionModel` is consulted by
:class:`~repro.core.async_engine.ClusterEventLoop` at submission time and
returns a :class:`PartitionDecision` for the item's scheduled window (after
any duration stretch and crash rescheduling): either the report arrives on
time, or the worker goes silent at some instant inside the window and its
terminal report — completion *or* failure — only reaches the orchestrator
``delay_hours`` late.  The orchestrator's view of the worker is pessimistic:
it holds the worker's queue until the delayed report (work is not routed to
a node that cannot be heard from), and during ``[silent_at, finish]`` no
heartbeats arrive, which is what the lease monitor in
:mod:`repro.core.liveness` acts on.  Whether a delayed item becomes a
*zombie* — given up on, re-submitted under a new lease epoch, its eventual
report fenced — is decided by the lease timeout, not by the model: silence
longer than the lease means suspicion, anything shorter is just a late
result.

Three hazard shapes:

* :class:`StallModel` — the run itself pauses mid-flight (GC storm, I/O
  hang) and resumes: moderate delays, silence starting at a uniform point
  of the run.
* :class:`PartitionOutageModel` — the network partitions: the worker keeps
  computing and finishes locally, but nothing is heard until the partition
  heals.  Heavy-tailed delays; the healed report carries a completed
  result, the classic zombie.
* :class:`FlakyReconnectModel` — short reconnect blips at report time:
  small repeated delays that jitter observation order without (normally)
  tripping any lease.

Streams follow the shared :class:`~repro.faults.injector.Injector`
contract under domain tag 17, with a fixed number of draws per decision
regardless of the branch taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.faults.injector import InjectionContext, Injector, register


@dataclass(frozen=True)
class PartitionDecision:
    """What a partition model decided for one submission.

    ``delay_hours`` is how long after the run's local finish (or failure)
    the terminal report reaches the orchestrator; ``silent_fraction`` is
    where inside the scheduled window the last heartbeat was heard (1.0:
    the worker was responsive right up to its local finish and only the
    report is late).  The event loop turns these into the item's
    ``silent_at`` / delayed ``finish_hours``.
    """

    delayed: bool
    delay_hours: float = 0.0
    silent_fraction: float = 1.0
    kind: str = ""


#: The shared "heard from on time" decision (no per-call allocation).
RESPONSIVE = PartitionDecision(delayed=False)


class PartitionModel(Injector[PartitionDecision]):
    """Domain base: decides whether (and how) a run's report is delayed.

    ``context.duration_hours`` is the item's *final* scheduled duration —
    after any stretch, and up to the failure instant for an item a crash
    model already killed — so silence onsets land inside the window the
    event loop simulates.  Several hazards combine to the longest delay:
    overlapping outages do not add, the worker is simply unreachable until
    the last one heals (ties break on member order).
    """

    domain = "partition"
    tag = (17,)

    def combine(self, decisions: Sequence[PartitionDecision]) -> PartitionDecision:
        delayed = [d for d in decisions if d.delayed]
        if not delayed:
            return RESPONSIVE
        return max(delayed, key=lambda d: d.delay_hours)


class NoPartitionModel(PartitionModel):
    """The ``"none"`` model: every report arrives on time, no RNG consumed.

    The gray-failure subsystem's signature guarantee rests on this model:
    injecting it must reproduce existing trajectories bit-for-bit under the
    same seeds, which is trivially auditable because it touches nothing.
    """

    name = "none"
    null = True

    def decide(self, context: InjectionContext) -> PartitionDecision:
        return RESPONSIVE


class StallModel(PartitionModel):
    """Mid-run stalls: the run pauses for a window, then resumes.

    With probability ``rate`` a submission stalls for an exponentially
    distributed window of mean ``mean_stall_hours``, starting at a uniform
    instant of the run; the run completes (and reports) that much later,
    and the worker is silent from the stall's onset until the report.
    Three draws per decision, unconditionally, so the stream position never
    depends on earlier outcomes.
    """

    name = "stall"

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.05,
        mean_stall_hours: float = 0.25,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if mean_stall_hours <= 0:
            raise ValueError("mean_stall_hours must be positive")
        self.rate = float(rate)
        self.mean_stall_hours = float(mean_stall_hours)

    def decide(self, context: InjectionContext) -> PartitionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        delay = float(rng.exponential(self.mean_stall_hours))
        fraction = float(rng.random())
        if not hit:
            return RESPONSIVE
        return PartitionDecision(
            delayed=True,
            delay_hours=delay,
            silent_fraction=fraction,
            kind="stall",
        )


class PartitionOutageModel(PartitionModel):
    """Network partitions: the worker finishes, the report arrives late.

    With probability ``rate`` the link to the worker drops at a uniform
    instant of the run and stays down for an exponentially distributed
    outage of mean ``mean_outage_hours`` *past the local finish* — long
    enough, typically, to outlive a lease and turn the healed report into
    a fenced zombie.  Three draws per decision, unconditionally.
    """

    name = "partition"
    aliases = ("outage",)

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.03,
        mean_outage_hours: float = 1.0,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if mean_outage_hours <= 0:
            raise ValueError("mean_outage_hours must be positive")
        self.rate = float(rate)
        self.mean_outage_hours = float(mean_outage_hours)

    def decide(self, context: InjectionContext) -> PartitionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        delay = float(rng.exponential(self.mean_outage_hours))
        fraction = float(rng.random())
        if not hit:
            return RESPONSIVE
        return PartitionDecision(
            delayed=True,
            delay_hours=delay,
            silent_fraction=fraction,
            kind="partition",
        )


class FlakyReconnectModel(PartitionModel):
    """Reconnect blips at report time: short, occasionally repeated delays.

    With probability ``rate`` the report needs between 1 and ``max_blips``
    delivery attempts, each costing an exponentially distributed blip of
    mean ``blip_hours``; the worker was responsive through the whole run
    (``silent_fraction=1.0``), so unless blips stack past the lease
    timeout the only effect is jittered observation order.  Three draws
    per decision, unconditionally.
    """

    name = "flaky"
    aliases = ("reconnect",)

    def __init__(
        self,
        seed: Optional[int] = None,
        rate: float = 0.1,
        blip_hours: float = 0.02,
        max_blips: int = 3,
    ) -> None:
        super().__init__(seed=seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if blip_hours <= 0:
            raise ValueError("blip_hours must be positive")
        if max_blips < 1:
            raise ValueError("max_blips must be >= 1")
        self.rate = float(rate)
        self.blip_hours = float(blip_hours)
        self.max_blips = int(max_blips)

    def decide(self, context: InjectionContext) -> PartitionDecision:
        rng = self._stream(context)
        hit = rng.random() < self.rate
        n_blips = int(rng.integers(1, self.max_blips + 1))
        magnitude = float(rng.exponential(1.0))
        if not hit:
            return RESPONSIVE
        return PartitionDecision(
            delayed=True,
            delay_hours=n_blips * self.blip_hours * magnitude,
            silent_fraction=1.0,
            kind="flaky",
        )


@dataclass
class PartitionStats:
    """What the partition machinery injected during a run (loop-side)."""

    n_delayed: int = 0
    n_stalls: int = 0
    n_outages: int = 0
    n_flaky: int = 0
    total_delay_hours: float = 0.0

    def record(self, decision: PartitionDecision) -> None:
        self.n_delayed += 1
        self.total_delay_hours += decision.delay_hours
        if decision.kind == "stall":
            self.n_stalls += 1
        elif decision.kind == "partition":
            self.n_outages += 1
        elif decision.kind == "flaky":
            self.n_flaky += 1

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_delayed": self.n_delayed,
            "n_stalls": self.n_stalls,
            "n_outages": self.n_outages,
            "n_flaky": self.n_flaky,
            "total_delay_hours": self.total_delay_hours,
        }


register(NoPartitionModel, StallModel, PartitionOutageModel, FlakyReconnectModel)
