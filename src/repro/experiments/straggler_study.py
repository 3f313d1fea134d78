"""Straggler mitigation study: speculative re-execution under injected noise.

The ROADMAP's open question: the heterogeneity-aware scheduler (PR 3) was
built on a *deterministic* duration model, so it had never been tested
against genuine stragglers.  This study injects runtime variability through
the :mod:`repro.faults` subsystem and runs the same tuning workload twice —
with and without speculative re-execution — on the same seeds, fleet,
optimizer and **accepted**-sample budget.  The makespan gap is then
attributable to the mitigation alone: duplicates race straggling runs on
idle workers, first-finish-wins, so heavy-tail slowdowns stop dominating
the busiest worker's timeline.

A third arm (``"none"`` fault model) is used by the benchmark to re-assert
the equivalence guarantee: injecting the null model must reproduce the
uninjected trajectory bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.cloud.cluster import Cluster
from repro.core.execution import ExecutionEngine
from repro.core.samplers import TunaSampler
from repro.core.tuner import TuningLoop, TuningResult
from repro.faults import FaultModel, SpeculationPolicy
from repro.optimizers import build_optimizer
from repro.systems import get_system
from repro.workloads import get_workload


@dataclass
class StragglerArm:
    """One arm of the study: a tuning run under a fixed mitigation setting."""

    label: str
    speculation: bool
    result: TuningResult
    makespan_hours: float
    n_samples: int
    stats: Dict = field(default_factory=dict)


@dataclass
class StragglerComparison:
    """Speculation on vs off under the same fault model and seeds."""

    fault: str
    fault_kwargs: Dict
    baseline: StragglerArm  # no speculation
    speculative: StragglerArm

    @property
    def makespan_speedup(self) -> float:
        """Baseline makespan over speculative makespan (>1 = mitigation wins)."""
        return self.baseline.makespan_hours / self.speculative.makespan_hours


def _run_arm(
    label: str,
    speculation: "SpeculationPolicy | bool | None",
    fault: str,
    fault_kwargs: Dict,
    n_workers: int,
    batch_size: int,
    max_samples: int,
    seed: int,
    system_name: str,
    workload_name: str,
    optimizer_name: str,
    budgets: Tuple[int, ...],
) -> StragglerArm:
    system = get_system(system_name)
    workload = get_workload(workload_name)
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, workload, seed=seed)
    optimizer = build_optimizer(optimizer_name, system.knob_space, seed=seed)
    sampler = TunaSampler(
        optimizer, execution, cluster, seed=seed, budgets=budgets
    )
    # Each arm gets a freshly built model with the same master seed, so both
    # arms face the same fault *process*; trajectories diverge only once the
    # mitigation changes the submission sequence.
    fault_model = FaultModel.build(fault, seed=seed, **fault_kwargs)
    result = TuningLoop(
        sampler,
        max_samples=max_samples,
        batch_size=batch_size,
        fault_model=fault_model,
        speculation=speculation,
    ).run()
    return StragglerArm(
        label=label,
        speculation=bool(speculation),
        result=result,
        makespan_hours=result.wall_clock_hours,
        n_samples=result.n_samples,
        stats=dict(result.engine_stats or {}),
    )


#: Default heavy-tail parameters for the study: stragglers are *rare* (6 %)
#: but *severe* (median tail stretch 7x, capped at 40x) — the regime where
#: a handful of events dominates the baseline makespan and speculation has
#: the most to recover, matching the long-tail shape of interference-prone
#: clusters.  Episodes are pinned to (worker, ~one-run time windows), so
#: both arms of the comparison face the same fault field and the makespan
#: gap isolates the mitigation.
DEFAULT_HEAVY_TAIL: Dict = {
    "rate": 0.06,
    "scale": 6.0,
    "sigma": 0.6,
    "window_hours": 0.1,
}


def run_straggler_study(
    fault: str = "lognormal",
    fault_kwargs: Optional[Dict] = None,
    n_workers: int = 10,
    batch_size: int = 8,
    max_samples: int = 60,
    seed: int = 37,
    system_name: str = "postgres",
    workload_name: str = "tpcc",
    optimizer_name: str = "random",
    budgets: Tuple[int, ...] = (1, 3, 6),
    speculation: Optional[SpeculationPolicy] = None,
) -> StragglerComparison:
    """Run the speculation on/off comparison under an injected fault model.

    ``batch_size < n_workers`` on purpose: the in-flight watermark leaves a
    couple of workers idle on average, which is the capacity speculative
    duplicates race on — exactly how a real cluster would reserve headroom
    for mitigation.
    """
    if fault_kwargs is None and fault == "lognormal":
        fault_kwargs = DEFAULT_HEAVY_TAIL
    kwargs = dict(
        fault=fault,
        fault_kwargs=dict(fault_kwargs or {}),
        n_workers=n_workers,
        batch_size=batch_size,
        max_samples=max_samples,
        seed=seed,
        system_name=system_name,
        workload_name=workload_name,
        optimizer_name=optimizer_name,
        budgets=budgets,
    )
    baseline = _run_arm("no-speculation", None, **kwargs)
    speculative = _run_arm(
        "speculation", speculation if speculation is not None else True, **kwargs
    )
    return StragglerComparison(
        fault=fault,
        fault_kwargs=dict(fault_kwargs or {}),
        baseline=baseline,
        speculative=speculative,
    )


def format_straggler_report(comparison: StragglerComparison) -> str:
    """Text report for the straggler mitigation comparison."""
    lines = [
        f"Straggler mitigation under the {comparison.fault!r} fault model",
        "",
        f"{'arm':>16} {'samples':>8} {'makespan (h)':>13}  mitigation activity",
    ]
    for arm in (comparison.baseline, comparison.speculative):
        stats = arm.stats
        activity = (
            "-"
            if not arm.speculation
            else (
                f"{stats.get('n_stragglers_detected', 0)} stragglers, "
                f"{stats.get('n_duplicates_submitted', 0)} duplicates, "
                f"{stats.get('n_duplicate_wins', 0)} wins"
            )
        )
        lines.append(
            f"{arm.label:>16} {arm.n_samples:>8} {arm.makespan_hours:>13.3f}  {activity}"
        )
    lines.append("")
    lines.append(
        f"makespan speedup from speculative re-execution: "
        f"{comparison.makespan_speedup:.2f}x"
    )
    return "\n".join(lines)
