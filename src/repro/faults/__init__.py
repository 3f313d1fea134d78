"""Seeded fault injection & straggler mitigation.

The event loop of :mod:`repro.core.async_engine` is deterministic by design:
every sample's duration comes straight from its worker's SKU
``perf_factor``.  Real clouds are not like that — the whole premise of the
source paper is that tuning must survive performance *noise* and unstable
nodes — so this subsystem injects four *domains* of seeded faults through
one contract, :class:`~repro.faults.injector.Injector`:

* **fault** (:mod:`repro.faults.models`) — duration stretches: heavy tails,
  load-coupled interference bursts, brownouts;
* **crash** (:mod:`repro.faults.crash`) — fail-stop failures: transient
  mid-run errors, permanent node death;
* **partition** (:mod:`repro.faults.partition`) — gray-failure silence:
  stalls, partitions, flaky reconnects delay reports instead of killing
  runs;
* **corruption** (:mod:`repro.faults.corruption`) — garbage measurements:
  NaN, infinities, wild readings.

Every domain builds models the same way, ``CrashModel.build("transient",
seed=7, rate=0.08)``; instances and ``None`` pass through, unknown names
raise ``KeyError``.  :class:`CompositeInjector` stacks models of one domain,
and :mod:`repro.faults.straggler` supplies the detection/speculation policy
the execution engine uses to mitigate stragglers.

Guarantees, in every domain:

* **Equivalence** — the ``"none"`` model (or no model at all) is
  bit-for-bit identical to an uninjected run: no RNG is consumed, no
  arithmetic changes.
* **Reproducibility** — every model draws from seeded *per-worker* streams
  derived from ``[seed, crc32(worker), *domain tag, channel]``, so a fixed
  seed and submission sequence yield identical decisions regardless of how
  many workers exist or in which order they are queried.
"""

from repro.faults.corruption import (
    CorruptionDecision,
    CorruptionModel,
    CorruptResultModel,
    NoCorruptionModel,
)
from repro.faults.crash import (
    CrashDecision,
    CrashModel,
    CrashStats,
    NoCrashModel,
    NodeDeathModel,
    TransientCrashModel,
)
from repro.faults.injector import CompositeInjector, InjectionContext, Injector, active
from repro.faults.models import (
    BrownoutModel,
    FaultModel,
    InterferenceBurstModel,
    LognormalTailModel,
    NoFaultModel,
)
from repro.faults.partition import (
    FlakyReconnectModel,
    NoPartitionModel,
    PartitionDecision,
    PartitionModel,
    PartitionOutageModel,
    PartitionStats,
    StallModel,
)
from repro.faults.straggler import (
    SpeculationPolicy,
    SpeculationStats,
    StragglerDetector,
)

__all__ = [
    "BrownoutModel",
    "CompositeInjector",
    "CorruptResultModel",
    "CorruptionDecision",
    "CorruptionModel",
    "CrashDecision",
    "CrashModel",
    "CrashStats",
    "FaultModel",
    "FlakyReconnectModel",
    "InjectionContext",
    "Injector",
    "InterferenceBurstModel",
    "LognormalTailModel",
    "NoCorruptionModel",
    "NoCrashModel",
    "NodeDeathModel",
    "NoFaultModel",
    "NoPartitionModel",
    "PartitionDecision",
    "PartitionModel",
    "PartitionOutageModel",
    "PartitionStats",
    "SpeculationPolicy",
    "SpeculationStats",
    "StallModel",
    "StragglerDetector",
    "TransientCrashModel",
    "active",
]
