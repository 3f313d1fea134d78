"""Reproduction of "TUNA: Tuning Unstable and Noisy Cloud Applications" (EuroSys 2025).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.core` — the TUNA sampling pipeline and baselines.
* :mod:`repro.optimizers` — SMAC-style, GP and random-search optimizers.
* :mod:`repro.configspace` — typed knob spaces.
* :mod:`repro.systems` — PostgreSQL / Redis / NGINX simulators.
* :mod:`repro.workloads` — TPC-C, epinions, TPC-H, mssales, YCSB, Wikipedia.
* :mod:`repro.cloud` — the simulated cloud (VMs, noise, telemetry, studies).
* :mod:`repro.faults` — seeded fault injection and straggler mitigation.
* :mod:`repro.ml` — from-scratch random forest / GP / preprocessing.
* :mod:`repro.experiments` — per-figure reproduction harnesses.
"""

from repro.core import (
    ExecutionEngine,
    NaiveDistributedSampler,
    TraditionalSampler,
    TunaSampler,
    TuningLoop,
    build_sampler,
    deploy_configuration,
)
from repro.cloud import Cluster, FleetSpec
from repro.faults import FaultModel, SpeculationPolicy
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ExecutionEngine",
    "FaultModel",
    "FleetSpec",
    "NaiveDistributedSampler",
    "SpeculationPolicy",
    "TraditionalSampler",
    "TunaSampler",
    "TuningLoop",
    "__version__",
    "build_optimizer",
    "build_sampler",
    "deploy_configuration",
    "get_system",
    "get_workload",
]
