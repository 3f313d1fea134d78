"""TUNA core: the paper's primary contribution.

TUNA changes *how configurations are sampled*, not the optimizer or the
system under test (Fig. 7).  The pieces map one-to-one onto the paper's
design section:

* :mod:`repro.core.multi_fidelity` — Successive-Halving budget schedule where
  budget = number of distinct worker nodes (§4.1).
* :mod:`repro.core.outlier` — relative-range unstable-configuration detector
  with the 30 % threshold and performance-halving penalty (§4.2).
* :mod:`repro.core.noise_adjuster` — random-forest noise model over guest
  telemetry + one-hot worker id (§4.3, Algorithms 1-2).
* :mod:`repro.core.aggregation` — ``min`` aggregation policy (§4.4).
* :mod:`repro.core.scheduler` — node placement that never re-runs a config on
  a node it already used (§5.1).
* :mod:`repro.core.async_engine` — discrete-event cluster simulation for
  asynchronous batched execution: per-worker timelines, makespan accounting,
  fault-model duration stretch and speculative re-execution of stragglers
  (the models and policies live in :mod:`repro.faults`).  Scales to
  10k-worker fleets via :mod:`repro.core.worker_index` (indexed idle/claim
  structures) and :mod:`repro.core.telemetry_slots` (bounded telemetry);
  :mod:`repro.core.loop_reference` retains the linear-scan loop the indexed
  one is equivalence-tested and benchmarked against.
* :mod:`repro.core.liveness` / :mod:`repro.core.validation` — gray-failure
  tolerance: simulated-time liveness leases with epoch fencing (silent
  workers are *suspected*, their stale reports rejected as zombies) and the
  result-quarantine gate that keeps NaN/Inf/out-of-domain measurements away
  from the optimizer (the silence and corruption models live in
  :mod:`repro.faults`).
* :mod:`repro.core.samplers` — the full TUNA pipeline plus the baselines it
  is compared against (traditional single-node sampling and naive
  distributed sampling, §6).
* :mod:`repro.core.tuner` — the offline tuning loop and deployment
  evaluation harness.
"""

from repro.core.aggregation import AggregationPolicy, aggregate
from repro.core.async_engine import (
    AsyncExecutionEngine,
    ClusterEventLoop,
    RetryPolicy,
    WorkItem,
    WorkRequest,
)
from repro.core.datastore import Datastore, Sample
from repro.core.eventlog import EventLog, EventLogError
from repro.core.execution import ExecutionEngine
from repro.core.liveness import GrayStats, LivenessMonitor
from repro.core.loop_reference import ScanEventLoop
from repro.core.multi_fidelity import SuccessiveHalvingSchedule
from repro.core.noise_adjuster import NoiseAdjuster
from repro.core.outlier import OutlierDetector
from repro.core.samplers import (
    IterationReport,
    NaiveDistributedSampler,
    Sampler,
    TraditionalSampler,
    TunaSampler,
    build_sampler,
)
from repro.core.scheduler import MultiFidelityTaskScheduler
from repro.core.telemetry_slots import LoopTelemetry, RingBuffer, SpillSummary
from repro.core.tuner import (
    DeploymentResult,
    StudyInterrupted,
    TuningLoop,
    TuningResult,
    deploy_configuration,
)
from repro.core.validation import ResultValidator, build_validator
from repro.core.worker_index import WorkerIndex

__all__ = [
    "AggregationPolicy",
    "AsyncExecutionEngine",
    "ClusterEventLoop",
    "Datastore",
    "EventLog",
    "EventLogError",
    "GrayStats",
    "IterationReport",
    "build_sampler",
    "build_validator",
    "DeploymentResult",
    "ExecutionEngine",
    "LivenessMonitor",
    "LoopTelemetry",
    "RetryPolicy",
    "RingBuffer",
    "ScanEventLoop",
    "SpillSummary",
    "StudyInterrupted",
    "MultiFidelityTaskScheduler",
    "NaiveDistributedSampler",
    "NoiseAdjuster",
    "OutlierDetector",
    "ResultValidator",
    "Sample",
    "Sampler",
    "SuccessiveHalvingSchedule",
    "TraditionalSampler",
    "TunaSampler",
    "TuningLoop",
    "TuningResult",
    "WorkItem",
    "WorkRequest",
    "WorkerIndex",
    "aggregate",
    "deploy_configuration",
]
