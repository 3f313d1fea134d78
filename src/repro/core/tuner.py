"""Offline tuning loop and deployment evaluation.

The paper's evaluation protocol (§6) is: run a sampling methodology offline
for a fixed wall-clock budget, pick the best configuration from its catalog,
then *deploy* that configuration on a set of brand-new nodes and report the
mean and standard deviation of its performance there.  :class:`TuningLoop`
implements the first half and :func:`deploy_configuration` the second.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.cloud.vm import VirtualMachine
from repro.configspace import Configuration
from repro.core.async_engine import AsyncExecutionEngine, RetryPolicy
from repro.core.eventlog import EventLog
from repro.core.execution import ExecutionEngine
from repro.core.samplers import IterationReport, Sampler
from repro.core.validation import ResultValidator, build_validator
from repro.faults import (
    CorruptionDecision,
    CorruptionModel,
    CrashDecision,
    CrashModel,
    FaultModel,
    Injector,
    PartitionDecision,
    PartitionModel,
    SpeculationPolicy,
    active,
)
from repro.ml.metrics import coefficient_of_variation, relative_range
from repro.systems.base import SystemUnderTest
from repro.workloads.base import Workload

if TYPE_CHECKING:  # annotation only; obs is an optional attachment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import TraceRecorder


@dataclass
class TuningResult:
    """Everything a tuning run produced.

    ``engine_stats`` carries the speculative re-execution counters
    (stragglers detected, duplicates submitted/won/lost) when straggler
    mitigation was armed; ``None`` otherwise.
    """

    sampler_name: str
    workload_name: str
    best_config: Configuration
    best_catalog_value: float
    higher_is_better: bool = True
    history: List[IterationReport] = field(default_factory=list)
    n_iterations: int = 0
    n_samples: int = 0
    wall_clock_hours: float = 0.0
    engine_stats: Optional[dict] = None

    def best_so_far_trace(self) -> List[float]:
        """Best *reported* value after each iteration (convergence curve)."""
        trace: List[float] = []
        best: Optional[float] = None
        for report in self.history:
            value = report.reported_value
            if best is None:
                best = value
            elif self.higher_is_better:
                best = max(best, value)
            else:
                best = min(best, value)
            trace.append(best)
        return trace

    def samples_per_iteration(self) -> List[int]:
        return [report.n_new_samples for report in self.history]


@dataclass
class DeploymentResult:
    """Performance of one configuration deployed on fresh nodes (§6)."""

    config: Configuration
    values: List[float]
    crashes: int
    objective_unit: str
    higher_is_better: bool

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def cov(self) -> float:
        return coefficient_of_variation(self.values)

    @property
    def worst(self) -> float:
        return float(np.min(self.values)) if self.higher_is_better else float(np.max(self.values))

    @property
    def relative_range(self) -> float:
        """Relative range, by the same definition the outlier detector uses.

        A single deployment value carries no spread information, so — like
        :meth:`repro.core.outlier.OutlierDetector.is_unstable_values` — it
        reports zero rather than dividing a degenerate range by the mean
        (and a zero mean raises, exactly as in
        :func:`repro.ml.metrics.relative_range`).
        """
        if len(self.values) < 2:
            return 0.0
        return relative_range(self.values)


class StudyInterrupted(RuntimeError):
    """The ``stop_after_waves`` kill switch fired mid-study.

    Simulates a fail-stop of the tuning *process* itself (as opposed to a
    worker): the study stops dead at a wave boundary, exactly like a killed
    run, and can be resurrected with :meth:`TuningLoop.resume` from its
    last checkpoint.
    """

    def __init__(self, wave: int, checkpoint_path: Optional[str] = None) -> None:
        self.wave = wave
        self.checkpoint_path = checkpoint_path
        message = f"study interrupted after wave {wave}"
        if checkpoint_path:
            message += f"; resume from {checkpoint_path}"
        super().__init__(message)


@dataclass
class _AsyncRunState:
    """Everything the asynchronous driver accumulates between waves.

    This is the unit of checkpointing: pickling it (together with the
    owning :class:`TuningLoop`) captures the engine — and through it the
    event-loop clocks, fault/crash RNG streams, in-flight item set and
    scheduler reservations — plus the driver's own counters, so a resumed
    run continues from the exact wave boundary the checkpoint was taken at.
    """

    engine: AsyncExecutionEngine
    batch_size: int
    lockstep: bool
    history: List[IterationReport] = field(default_factory=list)
    hours: float = 0.0
    samples: int = 0
    submitted: int = 0
    submitted_samples: int = 0
    completed: int = 0
    zero_streak: int = 0
    wave_index: int = 0


class TuningLoop:
    """Runs a sampler for a fixed number of iterations or wall-clock budget.

    Parameters
    ----------
    batch_size:
        In-flight sample watermark.  ``None`` (default) runs the legacy
        sequential loop: one request per iteration, the whole cluster
        advanced uniformly between iterations.  Any integer ``>= 1`` drives
        the asynchronous engine instead; ``batch_size=1`` is the synchronous
        degenerate mode and reproduces the sequential trajectory bit-for-bit
        under the same seeds, while larger batches keep every worker busy on
        its own timeline, so the run's wall-clock is the makespan of the
        busiest worker rather than ``n_iterations x eval_cost``.  The
        watermark gates *submission*, not admission: a request is submitted
        whole, so a multi-node request entering below the watermark may
        momentarily push the in-flight count above it (a hard cap would
        deadlock any request wider than the remaining window).
    fault_model:
        Optional runtime-variability injection for the asynchronous engine:
        a :class:`~repro.faults.FaultModel` instance or a registry name
        (``"none"``, ``"lognormal"``, ``"interference"``, ``"brownout"``).
        The ``"none"`` model (and ``None``) reproduce existing trajectories
        bit-for-bit; any *active* model requires ``batch_size >= 2``
        (lockstep mode is the equivalence gate and stays uninjected).
    fault_seed:
        Master seed for a fault model built from a name (ignored when an
        instance is passed).
    speculation:
        Straggler mitigation: ``True`` for the default
        :class:`~repro.faults.SpeculationPolicy`, or a policy instance.
        Requires ``batch_size >= 2`` (duplicates need idle workers).
    crash_model:
        Optional fail-stop crash injection: a
        :class:`~repro.faults.CrashModel` instance or a registry name
        (``"none"``, ``"transient"``, ``"node-death"``).  Same contract as
        ``fault_model``: ``"none"`` (and ``None``) reproduce existing
        trajectories bit-for-bit, any *active* model requires
        ``batch_size >= 2``.
    crash_seed:
        Master seed for a crash model built from a name (ignored when an
        instance is passed).
    retry_policy:
        :class:`~repro.core.async_engine.RetryPolicy` governing recovery of
        failed work items (capped exponential backoff, per-slot retry
        budget).  ``None`` means no retries: every failure immediately
        surfaces as a crash-penalty sample.  Inert without an active crash
        model.
    event_log:
        Durable append-only JSONL write-ahead log for the study: a file
        path or an :class:`~repro.core.eventlog.EventLog` instance.  Every
        submission/completion/failure/retry/speculation/sample event and
        every checkpoint is recorded, so the study is auditable and
        resumable.
    checkpoint_path:
        Where :meth:`checkpoint` serializes the study (atomic
        write-then-rename).  When set, a checkpoint is taken automatically
        every ``checkpoint_every`` waves; requires the asynchronous driver
        (``batch_size`` set).
    checkpoint_every:
        Wave interval between automatic checkpoints (default 1: every wave
        boundary).
    checkpoint_keep:
        When set, every checkpoint is additionally hard-linked to a
        per-wave snapshot (``<checkpoint_path>.w<wave>``) and the snapshot
        set is pruned to the most recent ``checkpoint_keep`` files — a
        bounded rolling history.  ``None`` (default) keeps only the single
        stable checkpoint file.
    stop_after_waves:
        Testing/demo kill switch: raise :class:`StudyInterrupted` once this
        many waves have been processed (after the wave's checkpoint, when
        checkpointing is armed), simulating a killed tuning process.
    metrics:
        Observability: a :class:`~repro.obs.metrics.MetricsRegistry` (or
        ``True`` for a default one) receiving lifecycle counters, gauges
        and latency histograms from the event loop, engine, scheduler and
        optimizer.  Off by default; when attached it is write-only and
        trajectory-inert — the study's samples, placements and clocks are
        bit-for-bit identical with or without it.
    tracer:
        Observability: a :class:`~repro.obs.tracing.TraceRecorder` (or
        ``True`` for a default one) recording a span per work-item
        lifecycle over simulated time, exportable as Chrome trace-event
        JSON.  Same trajectory-inertness contract as ``metrics``.
    partition_model:
        Optional gray-failure silence injection: a
        :class:`~repro.faults.PartitionModel` instance or a registry name
        (``"none"``, ``"stall"``, ``"partition"``, ``"flaky"``).  Delays a
        work item's *terminal report* instead of killing its run — the
        worker keeps computing but goes silent, so only a liveness lease
        (``lease_timeout``) can tell it apart from a dead one.  Same
        contract as the fault/crash models: ``"none"`` (and ``None``)
        reproduce existing trajectories bit-for-bit, any *active* model
        requires ``batch_size >= 2``.
    partition_seed:
        Master seed for a partition model built from a name (ignored when
        an instance is passed).
    lease_timeout:
        Liveness-lease timeout in simulated hours.  When set, every work
        item carries a monotone lease epoch; a worker silent for longer
        than the timeout is *suspected*, its slot re-submitted under a new
        epoch through the retry path, and the stale report — the zombie —
        deterministically rejected when it eventually arrives.  ``None``
        (default) disables the monitor; with no active partition model an
        armed monitor never fires and is trajectory-inert.
    validation:
        Result quarantine: a
        :class:`~repro.core.validation.ResultValidator` instance, or
        ``True`` for the default (reject NaN/Inf only).  A completed
        sample failing validation never reaches the optimizer: it is
        quarantined and re-measured under the slot's retry budget, then
        surfaced as a crash-penalty sample once the budget is exhausted.
        On finite in-domain values the gate is bit-for-bit inert.
    corruption_model:
        Optional garbage injection exercising the quarantine gate: a
        :class:`~repro.faults.CorruptionModel` instance or a
        registry name (``"none"``, ``"corrupt_result"``).  Corrupts a
        seeded fraction of measured values into NaN/Inf/wild readings
        *after* measurement, so the measurement RNG stays aligned with
        clean runs.  ``"none"`` (and ``None``) are bit-for-bit inert; any
        *active* model requires ``batch_size >= 2``.
    corruption_seed:
        Master seed for a corruption model built from a name (ignored when
        an instance is passed).
    """

    #: Abort after this many *consecutive* iterations that schedule no new
    #: samples.  Such iterations cost no wall-clock and collect no samples,
    #: so they advance no stopping criterion; a sampler stuck re-proposing
    #: fully-covered configurations would otherwise spin forever.  Genuine
    #: zero-sample events (promotions covered by reused samples, the odd
    #: duplicate suggestion) never cluster anywhere near this bound.
    MAX_ZERO_PROGRESS_ITERATIONS = 32

    def __init__(
        self,
        sampler: Sampler,
        n_iterations: Optional[int] = None,
        wall_clock_hours: Optional[float] = None,
        max_samples: Optional[int] = None,
        batch_size: Optional[int] = None,
        fault_model: Injector[float] | str | None = None,
        fault_seed: Optional[int] = None,
        speculation: SpeculationPolicy | bool | None = None,
        crash_model: Injector[CrashDecision] | str | None = None,
        crash_seed: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        event_log: EventLog | str | os.PathLike | None = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        checkpoint_keep: Optional[int] = None,
        stop_after_waves: Optional[int] = None,
        metrics: "MetricsRegistry | bool | None" = None,
        tracer: "TraceRecorder | bool | None" = None,
        partition_model: Injector[PartitionDecision] | str | None = None,
        partition_seed: Optional[int] = None,
        lease_timeout: Optional[float] = None,
        validation: "ResultValidator | bool | None" = None,
        corruption_model: Injector[CorruptionDecision] | str | None = None,
        corruption_seed: Optional[int] = None,
    ) -> None:
        if n_iterations is None and wall_clock_hours is None and max_samples is None:
            raise ValueError(
                "specify at least one stopping criterion "
                "(n_iterations, wall_clock_hours or max_samples)"
            )
        if n_iterations is not None and n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.sampler = sampler
        self.n_iterations = n_iterations
        self.wall_clock_hours = wall_clock_hours
        self.max_samples = max_samples
        self.batch_size = batch_size
        # Null injectors are dropped to ``None`` here, once.
        self.fault_model = active(FaultModel.build(fault_model, seed=fault_seed))
        self.speculation = speculation if speculation not in (False,) else None
        self.crash_model = active(CrashModel.build(crash_model, seed=crash_seed))
        self.retry_policy = retry_policy
        self.partition_model = active(
            PartitionModel.build(partition_model, seed=partition_seed)
        )
        self.lease_timeout = lease_timeout
        self.validation = build_validator(validation)
        self.corruption_model = active(
            CorruptionModel.build(corruption_model, seed=corruption_seed)
        )
        if isinstance(event_log, (str, os.PathLike)):
            event_log = EventLog(event_log)
        self.event_log = event_log
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.stop_after_waves = stop_after_waves
        # Observability attachments.  ``True`` means "build me a default";
        # note an *empty* registry is falsy, so the normalisation compares
        # against the booleans explicitly instead of truth-testing.
        if metrics is True:
            from repro.obs.metrics import MetricsRegistry as _Registry

            self.metrics: Optional["MetricsRegistry"] = _Registry()
        elif metrics is False:
            self.metrics = None
        else:
            self.metrics = metrics
        if tracer is True:
            from repro.obs.tracing import TraceRecorder as _Recorder

            self.tracer: Optional["TraceRecorder"] = _Recorder()
        elif tracer is False:
            self.tracer = None
        else:
            self.tracer = tracer
        #: Run state captured by :meth:`checkpoint` / restored by
        #: :meth:`resume`; only non-None while a run/resume is in progress.
        self._active_state: Optional[_AsyncRunState] = None
        self._resume_state: Optional[_AsyncRunState] = None
        self._probe_armed = False
        if batch_size is None or batch_size < 2:
            for injector in (
                self.fault_model,
                self.crash_model,
                self.partition_model,
                self.corruption_model,
            ):
                if injector is not None:
                    raise ValueError(
                        f"an active {injector.domain} model requires batch_size >= 2: "
                        "the sequential and lockstep paths are the bit-for-bit "
                        "equivalence gates and stay uninjected"
                    )
            if self.speculation is not None:
                raise ValueError(
                    "speculative re-execution requires batch_size >= 2 "
                    "(duplicates race on otherwise-idle workers)"
                )
        if lease_timeout is not None and batch_size is None:
            raise ValueError(
                "liveness leases live on the asynchronous engine; set batch_size"
            )
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint_keep is not None and checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if stop_after_waves is not None and stop_after_waves < 1:
            raise ValueError("stop_after_waves must be >= 1")
        if (checkpoint_path is not None or stop_after_waves is not None) and (
            batch_size is None
        ):
            raise ValueError(
                "checkpointing and the wave kill switch live at the "
                "asynchronous driver's wave boundaries; set batch_size"
            )

    def _should_stop(self, iteration: int, hours: float, samples: int) -> bool:
        if self.n_iterations is not None and iteration >= self.n_iterations:
            return True
        if self.wall_clock_hours is not None and hours >= self.wall_clock_hours:
            return True
        if self.max_samples is not None and samples >= self.max_samples:
            return True
        return False

    def _track_progress(self, report: IterationReport, streak: int) -> int:
        """Update (and bound) the consecutive zero-progress iteration count."""
        if report.n_new_samples > 0:
            return 0
        streak += 1
        if streak > self.MAX_ZERO_PROGRESS_ITERATIONS:
            raise RuntimeError(
                f"{streak} consecutive iterations scheduled no new samples; "
                "the sampler keeps re-proposing fully-covered configurations "
                "and the run would never reach its stopping criterion"
            )
        return streak

    def run(self) -> TuningResult:
        if self.event_log is not None:
            # Write-ahead logging: the datastore mirrors every landed sample
            # into the log before recording it in memory.
            self.sampler.datastore.event_log = self.event_log
        if self.batch_size is not None:
            try:
                return self._run_async(self.batch_size)
            finally:
                # The speculation/recovery probe binds the sampler to this
                # run's engine; never leave it dangling (even on abort).
                if self._probe_armed:
                    self.sampler.speculation_probe = None
        return self._run_sequential()

    def _run_sequential(self) -> TuningResult:
        history: List[IterationReport] = []
        hours = 0.0
        samples = 0
        iteration = 0
        zero_streak = 0
        workload = self.sampler.execution.workload
        while not self._should_stop(iteration, hours, samples):
            report = self.sampler.run_iteration(iteration)
            report.details.setdefault("objective_unit", workload.objective.unit)
            report.details.setdefault("higher_is_better", workload.higher_is_better)
            history.append(report)
            hours += report.wall_clock_hours
            samples += report.n_new_samples
            iteration += 1
            zero_streak = self._track_progress(report, zero_streak)
            # A request that scheduled no new samples consumed no time, so
            # the per-worker clocks must not move (re-advancing them would
            # shift every later measurement's drift and credit state).
            if report.wall_clock_hours > 0:
                self.sampler.cluster.advance(report.wall_clock_hours)

        best_config, best_value = self.sampler.best_configuration()
        return TuningResult(
            sampler_name=self.sampler.name,
            workload_name=workload.name,
            best_config=best_config,
            best_catalog_value=best_value,
            higher_is_better=workload.higher_is_better,
            history=history,
            n_iterations=iteration,
            n_samples=samples,
            wall_clock_hours=hours,
        )

    def _run_async(self, batch_size: int) -> TuningResult:
        """Drive the sampler through the asynchronous execution engine.

        Proposals are submitted while in-flight capacity remains and no
        stopping criterion has tripped; completions are fed back to the
        sampler as they land (in completion order, which for batches > 1
        interleaves requests).  Once a criterion trips, in-flight work is
        drained — matching a real cluster, where started benchmarks finish.
        ``batch_size=1`` runs the engine in lockstep mode: one request in
        flight and uniform cluster advancement, reproducing the sequential
        loop exactly.
        """
        if self._resume_state is not None:
            state = self._resume_state
            self._resume_state = None
        else:
            state = self._start_async_state(batch_size)
        return self._drive_async(state)

    def _start_async_state(self, batch_size: int) -> _AsyncRunState:
        """Build the engine and a fresh driver state for an async run."""
        lockstep = batch_size == 1
        engine = AsyncExecutionEngine(
            self.sampler.execution,
            self.sampler.cluster,
            lockstep=lockstep,
            fault_model=self.fault_model,
            speculation=self.speculation,
            crash_model=self.crash_model,
            retry_policy=self.retry_policy,
            partition_model=self.partition_model,
            lease_timeout_hours=self.lease_timeout,
            validation=self.validation,
            corruption_model=self.corruption_model,
            event_log=self.event_log,
            scheduler=getattr(self.sampler, "scheduler", None),
            used_workers_fn=self.sampler.datastore.workers_used,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if self.metrics is not None:
            # One registry observes the whole stack: placement decisions and
            # surrogate refits land next to the engine's lifecycle counters.
            scheduler = getattr(self.sampler, "scheduler", None)
            if scheduler is not None:
                scheduler.metrics = self.metrics
            optimizer = getattr(self.sampler, "optimizer", None)
            if optimizer is not None:
                optimizer.metrics = self.metrics
        return _AsyncRunState(engine=engine, batch_size=batch_size, lockstep=lockstep)

    def _handle_report(self, state: _AsyncRunState, report: IterationReport) -> None:
        workload = self.sampler.execution.workload
        report.details.setdefault("objective_unit", workload.objective.unit)
        report.details.setdefault("higher_is_better", workload.higher_is_better)
        state.history.append(report)
        state.samples += report.n_new_samples
        state.completed += 1
        state.zero_streak = self._track_progress(report, state.zero_streak)

    def _drive_async(self, state: _AsyncRunState) -> TuningResult:
        engine = state.engine
        crash_active = self.crash_model is not None
        if engine.speculation is not None or (
            crash_active and engine.retry_policy is not None
        ):
            # Let placement exclude workers running speculative duplicates
            # or crash retries (their eventual result occupies an existing
            # budget slot rather than a fresh one).
            self.sampler.speculation_probe = engine.auxiliary_workers_for
            self._probe_armed = True
        workload = self.sampler.execution.workload
        self._active_state = state
        try:
            while True:
                # Fill the in-flight window.  Submission is gated on
                # *submitted* work (samples already in flight count towards
                # the budget), so a large batch does not overshoot
                # ``max_samples`` while the final samples are still running.
                while state.engine.n_in_flight_items < state.batch_size and not (
                    self._should_stop(
                        state.submitted, state.hours, state.submitted_samples
                    )
                ):
                    try:
                        request = self.sampler.propose_work(state.submitted)
                    except RuntimeError:
                        if engine.n_in_flight_items > 0:
                            # Scheduling failed (the sampler already rolled
                            # back any promotion reservation); draining
                            # in-flight work frees workers, so retry after
                            # the next completion.
                            break
                        raise
                    state.submitted += 1
                    if not request.vms:
                        # Nothing to run (budget covered by reused samples):
                        # complete inline at zero wall-clock cost.
                        self._handle_report(
                            state, self.sampler.complete_work(request, [])
                        )
                        continue
                    state.submitted_samples += len(request.vms)
                    engine.submit(request)
                if engine.n_in_flight_items == 0:
                    break
                # Drain one wave: every request finishing at the same
                # simulated instant lands together and is fed back as a
                # single batched tell, so the surrogate refits once per wave
                # (a single completion — always the case in lockstep mode —
                # takes the plain single-tell path).
                wave = engine.next_completed_requests()
                if not wave:
                    # Only stale (fenced) zombie reports were left in flight;
                    # they drained without landing anything — not a wave.
                    continue
                if len(wave) == 1:
                    reports = [self.sampler.complete_work(*wave[0])]
                else:
                    reports = self.sampler.complete_work_batch(wave)
                for report in reports:
                    self._handle_report(state, report)
                    if state.lockstep:
                        state.hours += report.wall_clock_hours
                        if report.wall_clock_hours > 0:
                            self.sampler.cluster.advance(report.wall_clock_hours)
                if not state.lockstep:
                    state.hours = engine.makespan_hours
                state.wave_index += 1
                if (
                    self.checkpoint_path is not None
                    and state.wave_index % self.checkpoint_every == 0
                ):
                    self.checkpoint()
                if (
                    self.stop_after_waves is not None
                    and state.wave_index >= self.stop_after_waves
                ):
                    raise StudyInterrupted(state.wave_index, self.checkpoint_path)
        finally:
            self._active_state = None

        if state.lockstep:
            wall_clock = state.hours
        else:
            wall_clock = engine.finalize()

        engine_stats = {}
        if engine.speculation is not None:
            engine_stats.update(engine.stats.as_dict())
        if crash_active:
            engine_stats.update(engine.crash_stats.as_dict())
        if engine.gray_enabled:
            engine_stats.update(engine.gray_stats.as_dict())
            engine_stats.update(engine.loop.partition_stats.as_dict())
        if self.event_log is not None:
            self.event_log.append(
                "finish",
                n_samples=state.samples,
                wall_clock_hours=wall_clock,
            )

        best_config, best_value = self.sampler.best_configuration()
        return TuningResult(
            sampler_name=self.sampler.name,
            workload_name=workload.name,
            best_config=best_config,
            best_catalog_value=best_value,
            higher_is_better=workload.higher_is_better,
            history=state.history,
            n_iterations=state.completed,
            n_samples=state.samples,
            wall_clock_hours=wall_clock,
            engine_stats=engine_stats or None,
        )

    # ----------------------------------------------------------- durability
    def checkpoint(self) -> str:
        """Serialize the whole study to ``checkpoint_path`` (atomically).

        The checkpoint is a single pickle of the loop *and* its live driver
        state: one object graph, so every shared reference (engine ↔ sampler
        ↔ cluster ↔ event log ↔ RNG streams) survives round-tripping intact.
        Written via a temp file + :func:`os.replace`, so a kill mid-write
        leaves the previous checkpoint untouched; the sha256 digest recorded
        in the event log lets :meth:`resume` detect truncation/corruption.

        With ``checkpoint_keep=k`` each checkpoint is additionally
        hard-linked to a per-wave snapshot (``<path>.w<wave>``) and the
        snapshot set pruned to the most recent ``k`` — a rolling history
        that lets operators rewind past the latest wave boundary without
        unbounded disk growth.  The stable ``<path>`` name always points at
        the newest checkpoint, so :meth:`resume` is unaffected.
        """
        if self.checkpoint_path is None:
            raise RuntimeError("no checkpoint_path configured")
        if self._active_state is None:
            raise RuntimeError(
                "checkpoint() is only valid while an asynchronous run is "
                "active (it is called automatically at wave boundaries)"
            )
        payload = pickle.dumps(
            {"loop": self, "state": self._active_state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(payload).hexdigest()
        path = os.path.abspath(self.checkpoint_path)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        if self.checkpoint_keep is not None:
            snapshot = f"{path}.w{self._active_state.wave_index:08d}"
            if os.path.exists(snapshot):
                os.remove(snapshot)
            os.link(path, snapshot)
            for stale in self._snapshots(path)[: -self.checkpoint_keep]:
                os.remove(stale)
        if self.event_log is not None:
            self.event_log.append(
                "checkpoint",
                path=path,
                sha256=digest,
                wave=self._active_state.wave_index,
                n_samples=self._active_state.samples,
            )
        return path

    @staticmethod
    def _snapshots(path: str) -> List[str]:
        """Per-wave snapshot files next to ``path``, oldest first.

        Wave numbers are zero-padded to fixed width, so the lexicographic
        sort is also the numeric (and therefore chronological) order.
        """
        directory = os.path.dirname(path) or "."
        prefix = os.path.basename(path) + ".w"
        names = [
            name
            for name in os.listdir(directory)
            if name.startswith(prefix) and name[len(prefix) :].isdigit()
        ]
        return [os.path.join(directory, name) for name in sorted(names)]

    @classmethod
    def resume(cls, path: str | os.PathLike) -> "TuningLoop":
        """Resurrect a killed study from a checkpoint (or its event log).

        ``path`` may point either directly at a checkpoint file or at an
        event log, in which case the log's last ``"checkpoint"`` event is
        located, its recorded sha256 digest verified against the file on
        disk, and that checkpoint loaded.  The returned loop continues from
        the exact wave boundary the checkpoint captured: calling
        :meth:`run` on it reproduces the uninterrupted run's remaining
        trajectory bit-for-bit.  The ``stop_after_waves`` kill switch is
        cleared on the resumed loop (the simulated kill already happened).
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            first = fh.read(1)
        if first != b"\x80":
            # Not a pickle: treat as an event log and chase its last
            # checkpoint record (digest-verified inside last_checkpoint).
            event = EventLog.last_checkpoint(path)
            path = event["path"]
        with open(path, "rb") as fh:
            data = pickle.load(fh)
        loop: "TuningLoop" = data["loop"]
        loop._resume_state = data["state"]
        loop._active_state = None
        loop._probe_armed = False
        # The simulated process kill already happened; a resumed study runs
        # to its real stopping criterion.
        loop.stop_after_waves = None
        if loop.event_log is not None:
            loop.event_log.append(
                "resume",
                checkpoint=path,
                wave=loop._resume_state.wave_index,
            )
        return loop


def deploy_configuration(
    system: SystemUnderTest,
    workload: Workload,
    config: Configuration,
    nodes: List[VirtualMachine],
    seed: Optional[int] = None,
) -> DeploymentResult:
    """Evaluate a tuned configuration on freshly provisioned nodes.

    Crashed runs are replaced by the execution engine's crash penalty, exactly
    as during tuning, so a crashing configuration shows up as both slow and
    highly variable — which is how Fig. 14 presents it.
    """
    if not nodes:
        raise ValueError("need at least one deployment node")
    engine = ExecutionEngine(system, workload, seed=seed)
    values: List[float] = []
    crashes = 0
    for vm in nodes:
        sample = engine.evaluate_on(config, vm)
        if sample.crashed:
            crashes += 1
        values.append(sample.value)
    return DeploymentResult(
        config=config,
        values=values,
        crashes=crashes,
        objective_unit=workload.objective.unit,
        higher_is_better=workload.higher_is_better,
    )
