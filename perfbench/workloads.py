"""The benchmark's three tuning workloads, built through the public API.

Each workload is a whole tuning study: ``build(seed, ...)`` returns a
:class:`Study` whose ``loop.run()`` is the timed region, and
:func:`deploy` is the paper's §6 deployment step on fresh nodes.  Every
random stream of a study is derived from the one ``seed``, so the same seed
gives the same study, sample for sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import (
    Cluster,
    ExecutionEngine,
    FleetSpec,
    TraditionalSampler,
    TunaSampler,
    TuningLoop,
    build_optimizer,
    deploy_configuration,
    get_system,
    get_workload,
)
from repro.core import EventLog, RetryPolicy

#: Fresh nodes per side of the §6 deployment comparison (the paper uses 10).
DEPLOY_NODES = 10

#: 48 workers over three regions and three SKUs (16 of each group).
CHAOS_FLEET = (
    ("westus2", "Standard_D16s_v5", 16),
    ("eastus", "Standard_D8s_v5", 16),
    ("centralus", "Standard_D8s_v4", 16),
)


@dataclass
class Study:
    """One constructed study: the loop to time plus what checks need."""

    loop: TuningLoop
    system: object
    workload: object
    cluster: Cluster
    max_samples: int
    event_log_path: Optional[str] = None


def _tuna_mssales(seed: int, max_samples: int, workdir: str) -> Study:
    system = get_system("postgres")
    workload = get_workload("mssales")
    cluster = Cluster(n_workers=10, region="westus2", sku="Standard_D8s_v5", seed=seed)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    loop = TuningLoop(sampler, max_samples=max_samples, batch_size=10)
    return Study(loop, system, workload, cluster, max_samples)


def _traditional_redis(seed: int, max_samples: int, workdir: str) -> Study:
    system = get_system("redis")
    workload = get_workload("ycsb-c")
    cluster = Cluster(n_workers=1, region="westus2", sku="Standard_D8s_v5", seed=seed)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("smac", system.knob_space, seed=seed)
    sampler = TraditionalSampler(optimizer, execution, cluster, seed=seed)
    loop = TuningLoop(sampler, max_samples=max_samples)
    return Study(loop, system, workload, cluster, max_samples)


def _chaos_fleet(seed: int, max_samples: int, workdir: str) -> Study:
    system = get_system("postgres")
    workload = get_workload("tpcc")
    cluster = Cluster(seed=seed, fleet=FleetSpec.of(CHAOS_FLEET))
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer("random", system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    log_path = os.path.join(workdir, "events.jsonl")
    loop = TuningLoop(
        sampler,
        max_samples=max_samples,
        batch_size=48,
        fault_model="lognormal",
        fault_seed=seed + 1,
        speculation=True,
        crash_model="transient",
        crash_seed=seed + 2,
        retry_policy=RetryPolicy(max_retries=6),
        partition_model="partition",
        partition_seed=seed + 3,
        lease_timeout=0.1,
        corruption_model="corrupt_result",
        corruption_seed=seed + 4,
        validation=True,
        event_log=EventLog(log_path),
        checkpoint_path=os.path.join(workdir, "study.ckpt"),
        checkpoint_every=10,
    )
    return Study(loop, system, workload, cluster, max_samples, event_log_path=log_path)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    build: Callable[[int, int, str], Study]
    #: Sample budget of one study (``TuningLoop(max_samples=...)``).
    max_samples: int
    #: Distinct studies (sub-seeds) one benchmark seed stands for.
    studies: int


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("tuna-mssales", _tuna_mssales, 150, 9),
        WorkloadSpec("traditional-redis", _traditional_redis, 100, 6),
        WorkloadSpec("chaos-fleet", _chaos_fleet, 3000, 2),
    )
}


def build(name: str, seed: int, workdir: str, max_samples: Optional[int] = None) -> Study:
    """Construct workload ``name`` at ``seed`` (``workdir`` holds its files)."""
    spec = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    return spec.build(seed, max_samples or spec.max_samples, workdir)


def deploy(study: Study, best_config, seed: int):
    """§6: the best config and the default, each on fresh nodes.

    Returns ``(tuned, default)`` :class:`~repro.core.tuner.DeploymentResult`.
    """
    tuned = deploy_configuration(
        study.system,
        study.workload,
        best_config,
        study.cluster.provision_fresh_nodes(DEPLOY_NODES),
        seed=seed + 101,
    )
    default = deploy_configuration(
        study.system,
        study.workload,
        study.system.default_configuration(),
        study.cluster.provision_fresh_nodes(DEPLOY_NODES),
        seed=seed + 102,
    )
    return tuned, default
