"""Gray-degradation study: leases, fencing and quarantine under gray faults.

The resilience study (PR 5) injected *loss* — fail-stop crashes that
announce themselves.  This study injects the faults that do not: workers
that stall, network partitions that swallow a report for hours and then
deliver it from a worker everyone gave up on, and corrupted measurements
that come back as NaN/Inf garbage.  The same tuning workload is run twice
on the same seeds, fleet, optimizer and **accepted**-sample budget:

* a **fault-free** arm (no gray models): the reference makespan;
* a **gray-recovered** arm (composite stall + partition + corruption,
  liveness leases armed, result validation on, retries budgeted): silent
  workers are suspected when their lease expires, their slots fenced and
  re-submitted elsewhere, stale zombie reports deterministically rejected,
  and garbage values quarantined and re-measured.

Both arms stop at the same accepted-sample count, so the makespan gap is
the *price of the gray faults themselves*.  Unprotected, a single silent
worker serializes the study behind an hours-long silence; the lease/fence/
quarantine machinery bounds every such episode at one lease timeout plus
one re-measurement, which is what the benchmark gates (>= 70 % retention
under a deliberately heavy composite regime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cloud.cluster import Cluster
from repro.core.async_engine import RetryPolicy
from repro.core.execution import ExecutionEngine
from repro.core.samplers import TunaSampler
from repro.core.tuner import TuningLoop, TuningResult
from repro.core.validation import ResultValidator
from repro.faults import (
    CompositeInjector,
    CorruptResultModel,
    PartitionDecision,
    PartitionOutageModel,
    StallModel,
)
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload


@dataclass
class GrayArm:
    """One arm of the study: a tuning run under a fixed gray regime."""

    label: str
    result: TuningResult
    makespan_hours: float
    n_samples: int
    stats: Dict = field(default_factory=dict)


@dataclass
class GrayComparison:
    """Gray-recovered vs fault-free on the same seeds and budget."""

    regime: Dict
    fault_free: GrayArm
    recovered: GrayArm

    @property
    def makespan_retention(self) -> float:
        """Fault-free makespan over recovered makespan (1.0 = the gray
        faults cost nothing; the benchmark gates this at >= 0.7)."""
        return self.fault_free.makespan_hours / self.recovered.makespan_hours


#: Default composite regime: enough gray trouble that an unprotected study
#: would stall behind silent workers and re-run garbage measurements, while
#: the lease/fence/quarantine machinery caps each episode.  Stalls are
#: frequent-but-short, outages rare-but-long (the case leases exist for),
#: and one in twenty measurements comes back as garbage.
DEFAULT_GRAY_REGIME: Dict = {
    "stall_rate": 0.05,
    "mean_stall_hours": 0.1,
    "outage_rate": 0.03,
    "mean_outage_hours": 2.0,
    "corruption_rate": 0.05,
}


def _build_partition_model(seed: int, regime: Dict) -> CompositeInjector[PartitionDecision]:
    return CompositeInjector(
        [
            StallModel(
                seed=seed,
                rate=regime["stall_rate"],
                mean_stall_hours=regime["mean_stall_hours"],
            ),
            PartitionOutageModel(
                seed=seed + 1,
                rate=regime["outage_rate"],
                mean_outage_hours=regime["mean_outage_hours"],
            ),
        ]
    )


def _run_arm(
    label: str,
    gray: bool,
    regime: Dict,
    lease_timeout: float,
    retry_policy: Optional[RetryPolicy],
    n_workers: int,
    batch_size: int,
    max_samples: int,
    seed: int,
    system_name: str,
    workload_name: str,
    optimizer_name: str,
    budgets: Tuple[int, ...],
) -> GrayArm:
    system = get_system(system_name)
    workload = get_workload(workload_name)
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer(optimizer_name, system.knob_space, seed=seed)
    sampler = TunaSampler(
        optimizer, execution, cluster, seed=seed, budgets=budgets
    )
    # Fresh models per arm with the same master seed: both arms face the
    # same gray-fault *process*; trajectories diverge only once a silence
    # or a quarantine changes the submission sequence.
    result = TuningLoop(
        sampler,
        max_samples=max_samples,
        batch_size=batch_size,
        partition_model=_build_partition_model(seed, regime) if gray else None,
        lease_timeout=lease_timeout if gray else None,
        validation=ResultValidator() if gray else None,
        corruption_model=(
            CorruptResultModel(seed=seed + 2, rate=regime["corruption_rate"])
            if gray
            else None
        ),
        retry_policy=retry_policy if gray else None,
    ).run()
    return GrayArm(
        label=label,
        result=result,
        makespan_hours=result.wall_clock_hours,
        n_samples=result.n_samples,
        stats=dict(result.engine_stats or {}),
    )


def run_graydeg_study(
    regime: Optional[Dict] = None,
    lease_timeout: float = 0.15,
    retry_policy: Optional[RetryPolicy] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
) -> GrayComparison:
    """Run the fault-free vs gray-recovered comparison.

    The default ``lease_timeout`` (0.15 h) is deliberately longer than the
    mean stall (0.1 h) and far shorter than the mean outage (2 h): ordinary
    stalls mostly ride out their lease, real partitions get fenced early
    enough that each episode costs one lease plus one re-measurement
    instead of the whole silence.
    """
    regime = dict(DEFAULT_GRAY_REGIME if regime is None else regime)
    kwargs = dict(
        regime=regime,
        lease_timeout=lease_timeout,
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )
    fault_free = _run_arm("fault-free", False, retry_policy=None, **kwargs)
    recovered = _run_arm(
        "gray+recovery",
        True,
        retry_policy=retry_policy if retry_policy is not None else RetryPolicy(),
        **kwargs,
    )
    return GrayComparison(
        regime=regime, fault_free=fault_free, recovered=recovered
    )


def format_graydeg_report(comparison: GrayComparison) -> str:
    """Text report for the gray-degradation comparison."""
    lines = [
        "Gray-failure tolerance under the composite stall+partition+"
        "corruption regime",
        "",
        f"{'arm':>14} {'samples':>8} {'makespan (h)':>13}  gray activity",
    ]
    for arm in (comparison.fault_free, comparison.recovered):
        stats = arm.stats
        activity = (
            "-"
            if not stats
            else (
                f"{stats.get('n_delayed', 0)} delayed, "
                f"{stats.get('n_suspected', 0)} suspected, "
                f"{stats.get('n_zombies_rejected', 0)} zombies rejected, "
                f"{stats.get('n_quarantined', 0)} quarantined"
            )
        )
        lines.append(
            f"{arm.label:>14} {arm.n_samples:>8} {arm.makespan_hours:>13.3f}  {activity}"
        )
    lines.append("")
    lines.append(
        f"makespan retained under gray faults: "
        f"{comparison.makespan_retention:.1%} of fault-free"
    )
    return "\n".join(lines)
