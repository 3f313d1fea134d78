"""Crash-resilience study: retry/backoff recovery under fail-stop faults.

The straggler study (PR 4) injected *slowness*; this study injects *loss*.
Workers suffer seeded fail-stop crashes — transient mid-run errors and
permanent node deaths — through the :mod:`repro.faults` crash models, and
the same tuning workload is run twice on the same seeds, fleet, optimizer
and **accepted**-sample budget:

* a **fault-free** arm (no crash model): the reference makespan;
* a **crash-with-recovery** arm (active crash model + retry policy): failed
  runs are resubmitted to a different worker with capped exponential
  backoff, dead workers are drained from the fleet, and exhausted retry
  budgets surface as crash-penalty samples.

Because both arms stop at the same accepted-sample count, the makespan gap
is the *price of the crashes themselves* — the recovery machinery's job is
to keep that price small (the benchmark gates it at <= 20 %) rather than
letting a handful of lost runs serialize the whole study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cloud.cluster import Cluster
from repro.core.async_engine import RetryPolicy
from repro.core.execution import ExecutionEngine
from repro.core.samplers import TunaSampler
from repro.core.tuner import TuningLoop, TuningResult
from repro.faults import CrashModel
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload


@dataclass
class ResilienceArm:
    """One arm of the study: a tuning run under a fixed crash setting."""

    label: str
    crash: str
    result: TuningResult
    makespan_hours: float
    n_samples: int
    stats: Dict = field(default_factory=dict)


@dataclass
class ResilienceComparison:
    """Crash-with-recovery vs fault-free on the same seeds and budget."""

    crash: str
    crash_kwargs: Dict
    fault_free: ResilienceArm
    recovered: ResilienceArm

    @property
    def makespan_retention(self) -> float:
        """Fault-free makespan over recovered makespan (1.0 = crashes cost
        nothing; the benchmark gates this at >= 0.8, i.e. <= 20 % loss)."""
        return self.fault_free.makespan_hours / self.recovered.makespan_hours


def _run_arm(
    label: str,
    crash: Optional[str],
    crash_kwargs: Dict,
    retry_policy: Optional[RetryPolicy],
    n_workers: int,
    batch_size: int,
    max_samples: int,
    seed: int,
    system_name: str,
    workload_name: str,
    optimizer_name: str,
    budgets: Tuple[int, ...],
) -> ResilienceArm:
    system = get_system(system_name)
    workload = get_workload(workload_name)
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer(optimizer_name, system.knob_space, seed=seed)
    sampler = TunaSampler(
        optimizer, execution, cluster, seed=seed, budgets=budgets
    )
    # A freshly built model per arm with the same master seed: both arms
    # face the same crash *process*; trajectories diverge only once a
    # failure changes the submission sequence.
    crash_model = (
        CrashModel.build(crash, seed=seed, **crash_kwargs) if crash else None
    )
    result = TuningLoop(
        sampler,
        max_samples=max_samples,
        batch_size=batch_size,
        crash_model=crash_model,
        retry_policy=retry_policy,
    ).run()
    return ResilienceArm(
        label=label,
        crash=crash or "none",
        result=result,
        makespan_hours=result.wall_clock_hours,
        n_samples=result.n_samples,
        stats=dict(result.engine_stats or {}),
    )


#: Default crash regime for the study: a noticeable transient error rate
#: (8 % of submissions fail mid-run) — enough that an unprotected study
#: would lose a meaningful fraction of its measurements, while a working
#: retry policy absorbs nearly all of it, since a retried run costs one
#: extra evaluation on an otherwise-idle worker rather than a serialized
#: re-pass at the end.
DEFAULT_CRASH_REGIME: Dict = {"rate": 0.08}


def run_resilience_study(
    crash: str = "transient",
    crash_kwargs: Optional[Dict] = None,
    retry_policy: Optional[RetryPolicy] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
) -> ResilienceComparison:
    """Run the fault-free vs crash-with-recovery comparison.

    ``batch_size < n_workers`` on purpose: the in-flight watermark leaves a
    couple of workers idle on average, which is the capacity retried runs
    land on — the same headroom the speculation machinery races on.
    """
    if crash_kwargs is None and crash == "transient":
        crash_kwargs = DEFAULT_CRASH_REGIME
    kwargs = dict(
        crash_kwargs=dict(crash_kwargs or {}),
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )
    fault_free = _run_arm("fault-free", None, retry_policy=None, **kwargs)
    recovered = _run_arm(
        "crash+recovery",
        crash,
        retry_policy=retry_policy if retry_policy is not None else RetryPolicy(),
        **kwargs,
    )
    return ResilienceComparison(
        crash=crash,
        crash_kwargs=dict(crash_kwargs or {}),
        fault_free=fault_free,
        recovered=recovered,
    )


def format_resilience_report(comparison: ResilienceComparison) -> str:
    """Text report for the crash-resilience comparison."""
    lines = [
        f"Crash resilience under the {comparison.crash!r} crash model",
        "",
        f"{'arm':>16} {'samples':>8} {'makespan (h)':>13}  recovery activity",
    ]
    for arm in (comparison.fault_free, comparison.recovered):
        stats = arm.stats
        activity = (
            "-"
            if arm.crash == "none"
            else (
                f"{stats.get('n_failures', 0)} failures, "
                f"{stats.get('n_retries', 0)} retries, "
                f"{stats.get('n_exhausted', 0)} exhausted, "
                f"{stats.get('n_workers_dead', 0)} workers dead"
            )
        )
        lines.append(
            f"{arm.label:>16} {arm.n_samples:>8} {arm.makespan_hours:>13.3f}  {activity}"
        )
    lines.append("")
    lines.append(
        f"makespan retained under crashes: "
        f"{comparison.makespan_retention:.1%} of fault-free"
    )
    return "\n".join(lines)
