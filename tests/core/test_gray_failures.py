"""Tests for gray-failure tolerance: leases, zombie fencing, quarantine.

The subsystem's headline invariant — under any interleaving of partitions,
lease expiries, retries, speculation and corruption, the optimizer receives
*exactly one* accepted result per sample slot, and no fenced (zombie) or
non-finite value ever reaches it — is asserted here at the engine level,
with the metrics registry and the event log agreeing on every tally.  The
signature guarantee (``"none"`` models, an armed-but-idle lease monitor and
the validator are bit-for-bit inert) rides the same checks as the fault and
crash subsystems.
"""

import math

import numpy as np
import pytest

from repro.cloud import Cluster
from repro.core import (
    AsyncExecutionEngine,
    EventLog,
    ExecutionEngine,
    LivenessMonitor,
    ResultValidator,
    RetryPolicy,
    TunaSampler,
    TuningLoop,
    WorkRequest,
    build_validator,
)
from repro.faults import (
    CorruptionDecision,
    CorruptionModel,
    CorruptResultModel,
    InjectionContext,
    PartitionDecision,
    PartitionModel,
)
from repro.obs import MetricsRegistry
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC


def make_setup(seed, n_workers=10):
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=n_workers, seed=seed)
    execution = ExecutionEngine(system, TPCC, seed=seed)
    opt = RandomSearchOptimizer(system.knob_space, seed=seed)
    return system, cluster, execution, opt


def sample_trajectory(sampler):
    return [
        (s.worker_id, s.value, s.iteration, s.budget, s.crashed)
        for s in sampler.datastore.all_samples()
    ]


def run_tuna(seed=5, batch_size=5, max_samples=40, n_workers=10, **loop_kwargs):
    _, cluster, execution, opt = make_setup(seed, n_workers=n_workers)
    sampler = TunaSampler(opt, execution, cluster, seed=seed)
    result = TuningLoop(
        sampler, max_samples=max_samples, batch_size=batch_size, **loop_kwargs
    ).run()
    return sampler, result, cluster


class ScriptedPartition(PartitionModel):
    """Delays the n-th submission(s) by a fixed amount."""

    name = "scripted"

    def __init__(self, delay_at=(), delay_hours=5.0, silent_fraction=0.5):
        super().__init__(seed=0)
        self.delay_calls = set(delay_at)
        self.delay_hours = delay_hours
        self.silent_fraction = silent_fraction
        self.calls = 0

    def decide(self, context):
        call = self.calls
        self.calls += 1
        if call not in self.delay_calls:
            return PartitionDecision(delayed=False)
        return PartitionDecision(
            delayed=True,
            delay_hours=self.delay_hours,
            silent_fraction=self.silent_fraction,
            kind="partition",
        )


class ScriptedCorruption(CorruptionModel):
    """Corrupts the n-th measured value(s) into a chosen garbage kind."""

    name = "scripted"

    def __init__(self, corrupt_at=(), kind="nan"):
        super().__init__(seed=0)
        self.corrupt_calls = set(corrupt_at)
        self.kind = kind
        self.calls = 0

    def decide(self, context):
        call = self.calls
        self.calls += 1
        if call not in self.corrupt_calls:
            return CorruptionDecision(corrupted=False)
        return CorruptionDecision(corrupted=True, kind=self.kind)


def make_engine(n_workers=4, seed=1, **kwargs):
    _, cluster, execution, _ = make_setup(seed, n_workers=n_workers)
    engine = AsyncExecutionEngine(execution, cluster, **kwargs)
    return engine, cluster


def submit_singles(engine, cluster, workers):
    space = PostgreSQLSystem().knob_space
    requests = []
    for i, worker_index in enumerate(workers):
        config = space.sample(np.random.default_rng(i))
        request = WorkRequest(config, 1, [cluster.workers[worker_index]], i)
        engine.submit(request)
        requests.append(request)
    return requests


def drain_items(engine):
    """Drain everything in flight (zombie reports included)."""
    completed = {}
    while engine.n_in_flight_items:
        for request, samples in engine.next_completed_requests():
            completed[request.iteration] = samples
    return completed


# -- liveness monitor ---------------------------------------------------------


class _FakeItem:
    def __init__(self, sequence, silent_at, finish_hours):
        self.sequence = sequence
        self.silent_at = silent_at
        self.finish_hours = finish_hours
        self.epoch = 0
        self.cancelled = False
        self.done = False


class TestLivenessMonitor:
    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            LivenessMonitor(0.0)
        with pytest.raises(ValueError):
            LivenessMonitor(-1.0)

    def test_epochs_are_monotone_starting_at_one(self):
        monitor = LivenessMonitor(0.5)
        items = [_FakeItem(i, silent_at=1.0, finish_hours=1.1) for i in range(3)]
        for item in items:
            monitor.grant(item)
        assert [item.epoch for item in items] == [1, 2, 3]

    def test_arms_only_when_suspicion_is_inevitable(self):
        monitor = LivenessMonitor(0.5)
        # Report at silent_at + 0.1 < deadline: the lease can never expire.
        responsive = _FakeItem(0, silent_at=1.0, finish_hours=1.1)
        monitor.grant(responsive)
        assert monitor.n_leased == 0
        # Report at silent_at + 2.0 > deadline: suspicion will fire.
        silent = _FakeItem(1, silent_at=1.0, finish_hours=3.0)
        monitor.grant(silent)
        assert monitor.n_leased == 1

    def test_report_exactly_at_the_deadline_wins(self):
        """Strictly-before rule: an on-deadline report is not a suspicion."""
        monitor = LivenessMonitor(0.5)
        item = _FakeItem(0, silent_at=1.0, finish_hours=1.5)
        monitor.grant(item)
        assert monitor.n_leased == 0

    def test_suspicions_fire_in_deadline_order_and_respect_the_horizon(self):
        monitor = LivenessMonitor(0.5)
        late = _FakeItem(0, silent_at=2.0, finish_hours=10.0)  # deadline 2.5
        early = _FakeItem(1, silent_at=1.0, finish_hours=10.0)  # deadline 1.5
        monitor.grant(late)
        monitor.grant(early)
        # A completion at 1.2 precedes both deadlines: nothing fires.
        assert monitor.next_suspicion_before(1.2) is None
        deadline, item = monitor.next_suspicion_before(2.0)
        assert (deadline, item) == (1.5, early)
        # The later lease is still armed and fires with no horizon.
        deadline, item = monitor.next_suspicion_before(None)
        assert (deadline, item) == (2.5, late)
        assert monitor.next_suspicion_before(None) is None

    def test_settled_leases_never_fire(self):
        monitor = LivenessMonitor(0.5)
        item = _FakeItem(0, silent_at=1.0, finish_hours=10.0)
        monitor.grant(item)
        monitor.settle(item.sequence)
        assert monitor.next_suspicion_before(None) is None
        assert monitor.n_leased == 0

    def test_cancelled_and_done_items_are_skipped_lazily(self):
        monitor = LivenessMonitor(0.5)
        cancelled = _FakeItem(0, silent_at=1.0, finish_hours=10.0)
        live = _FakeItem(1, silent_at=2.0, finish_hours=10.0)
        monitor.grant(cancelled)
        monitor.grant(live)
        cancelled.cancelled = True
        deadline, item = monitor.next_suspicion_before(None)
        assert item is live and deadline == 2.5


# -- result validator ---------------------------------------------------------


class TestResultValidator:
    def test_check_classifies_values(self):
        validator = ResultValidator(lower=0.0, upper=100.0)
        assert validator.check(50.0) is None
        assert validator.check(float("nan")) == "nan"
        assert validator.check(float("inf")) == "inf"
        assert validator.check(float("-inf")) == "inf"
        assert validator.check(-1.0) == "below-domain"
        assert validator.check(101.0) == "above-domain"

    def test_unbounded_validator_only_rejects_non_finite(self):
        validator = ResultValidator()
        assert validator.check(-1e30) is None
        assert validator.check(float("nan")) == "nan"

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ResultValidator(lower=1.0, upper=0.0)

    def test_build_validator_normalisation(self):
        assert build_validator(True) == ResultValidator()
        assert build_validator(False) is None
        assert build_validator(None) is None
        custom = ResultValidator(lower=0.0)
        assert build_validator(custom) is custom


class TestCorruptionModels:
    def test_apply_produces_the_advertised_garbage(self):
        assert math.isnan(CorruptionDecision(True, "nan").apply(5.0))
        assert CorruptionDecision(True, "inf").apply(5.0) == float("inf")
        assert CorruptionDecision(True, "inf").apply(-5.0) == float("-inf")
        wild = CorruptionDecision(True, "wild").apply(5.0)
        assert math.isfinite(wild) and wild == 5.0 * 1e9
        assert CorruptionDecision(False).apply(5.0) == 5.0

    def test_all_kinds_and_fixed_draws(self):
        a = CorruptResultModel(seed=3, rate=0.5)
        ctxs = [InjectionContext("worker-0", float(i), 1.0) for i in range(100)]
        decisions_a = [a.decide(c) for c in ctxs]
        kinds = {d.kind for d in decisions_a if d.corrupted}
        assert kinds == {"nan", "inf", "wild"}
        # Fixed draw count: advance a fresh stream by hand and compare.
        reference = CorruptResultModel(seed=3, rate=0.5)
        rng = reference.stream_for("worker-0")
        for _ in range(100):
            rng.random()
            rng.random()
        assert a.decide(ctxs[0]) == reference.decide(ctxs[0])


# -- fencing: suspicion, re-submission, zombie rejection ----------------------


class TestLeaseFencing:
    def test_suspected_slot_is_recovered_and_its_zombie_rejected(self, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0]),
            lease_timeout_hours=0.1,
            retry_policy=RetryPolicy(),
            event_log=EventLog(log_path),
        )
        requests = submit_singles(engine, cluster, [0, 1])
        completed = drain_items(engine)
        assert engine.gray_stats.n_suspected == 1
        assert engine.gray_stats.n_zombies_rejected == 1
        assert engine.crash_stats.n_retries == 1
        # Exactly one accepted result per slot, none from the fenced epoch.
        assert sorted(completed) == [0, 1]
        recovered = completed[0][0]
        assert not recovered.crashed
        assert recovered.worker_id != "worker-0"
        # The event log tells the same story, in order.
        kinds = [e["kind"] for e in EventLog.replay(log_path)]
        for kind in ("suspect", "lease_fence", "retry", "zombie_rejected"):
            assert kind in kinds
        assert kinds.index("suspect") < kinds.index("retry")
        assert kinds.index("retry") < kinds.index("zombie_rejected")

    def test_fenced_report_does_not_define_the_makespan(self):
        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0], delay_hours=50.0),
            lease_timeout_hours=0.1,
            retry_policy=RetryPolicy(),
        )
        submit_singles(engine, cluster, [0, 1])
        drain_items(engine)
        # The zombie report at ~50h advanced ``now`` but not the makespan.
        assert engine.loop.now > 50.0
        assert engine.makespan_hours < 10.0

    def test_delay_shorter_than_the_lease_is_just_a_late_result(self):
        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0], delay_hours=0.05),
            lease_timeout_hours=10.0,
            retry_policy=RetryPolicy(),
        )
        requests = submit_singles(engine, cluster, [0, 1])
        completed = drain_items(engine)
        assert engine.gray_stats.n_suspected == 0
        assert engine.gray_stats.n_zombies_rejected == 0
        assert engine.crash_stats.n_retries == 0
        # The late result itself was accepted, on the original worker.
        assert completed[0][0].worker_id == "worker-0"

    def test_partition_without_a_lease_is_only_a_delay(self):
        """No monitor armed: the silent worker is simply waited out."""
        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0], delay_hours=5.0),
        )
        submit_singles(engine, cluster, [0, 1])
        completed = drain_items(engine)
        assert engine.gray_stats.n_suspected == 0
        assert completed[0][0].worker_id == "worker-0"
        # The accepted late report does define the makespan here.
        assert engine.makespan_hours > 5.0

    def test_suspicion_without_retry_budget_surfaces_the_penalty(self):
        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0]),
            lease_timeout_hours=0.1,
            retry_policy=None,
        )
        requests = submit_singles(engine, cluster, [0])
        completed = drain_items(engine)
        assert engine.gray_stats.n_suspected == 1
        assert engine.crash_stats.n_exhausted == 1
        sample = completed[0][0]
        assert sample.crashed
        assert sample.value == engine.execution.crash_penalty()
        # The zombie still drained and was rejected.
        assert engine.gray_stats.n_zombies_rejected == 1

    def test_zombie_failure_report_is_rejected_too(self):
        """A fenced item that *fails* inside its window pops as a zombie,
        not as a second recovery for the already re-submitted slot."""
        from repro.faults import CrashDecision, CrashModel

        class LateCrash(CrashModel):
            name = "late-crash"

            def __init__(self):
                super().__init__(seed=0)
                self.calls = 0

            def decide(self, context):
                call = self.calls
                self.calls += 1
                if call != 0:
                    return CrashDecision(failed=False)
                return CrashDecision(
                    failed=True,
                    fail_at_hours=context.start_hours
                    + 0.9 * context.duration_hours,
                    kind="transient",
                )

        engine, cluster = make_engine(
            partition_model=ScriptedPartition(delay_at=[0], delay_hours=5.0),
            crash_model=LateCrash(),
            lease_timeout_hours=0.01,
            retry_policy=RetryPolicy(),
        )
        submit_singles(engine, cluster, [0, 1])
        completed = drain_items(engine)
        assert engine.gray_stats.n_suspected == 1
        assert engine.gray_stats.n_zombies_rejected == 1
        # The stale failure was NOT double-counted as a crash recovery:
        # exactly one retry (from the suspicion), one accepted result.
        assert engine.crash_stats.n_retries == 1
        assert len(completed[0]) == 1

    def test_engine_validates_the_lease_timeout(self):
        with pytest.raises(ValueError, match="lease_timeout_hours"):
            make_engine(lease_timeout_hours=0.0)

    def test_lockstep_rejects_active_partition_and_corruption(self):
        _, cluster, execution, _ = make_setup(0)
        with pytest.raises(ValueError, match="lockstep"):
            AsyncExecutionEngine(
                execution,
                cluster,
                lockstep=True,
                partition_model=ScriptedPartition(delay_at=[0]),
            )
        with pytest.raises(ValueError, match="lockstep"):
            AsyncExecutionEngine(
                execution,
                cluster,
                lockstep=True,
                corruption_model=ScriptedCorruption(corrupt_at=[0]),
            )


# -- quarantine ---------------------------------------------------------------


class TestQuarantine:
    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_garbage_is_quarantined_and_remeasured(self, kind, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        engine, cluster = make_engine(
            corruption_model=ScriptedCorruption(corrupt_at=[0], kind=kind),
            validation=True,
            retry_policy=RetryPolicy(),
            event_log=EventLog(log_path),
        )
        requests = submit_singles(engine, cluster, [0, 1])
        completed = drain_items(engine)
        assert engine.gray_stats.n_quarantined == 1
        assert engine.gray_stats.n_quarantine_retries == 1
        assert engine.gray_stats.n_quarantine_penalized == 0
        sample = completed[0][0]
        assert math.isfinite(sample.value) and not sample.crashed
        events = EventLog.replay(log_path)
        quarantines = [e for e in events if e["kind"] == "quarantined"]
        assert len(quarantines) == 1
        assert quarantines[0]["reason"] == kind

    def test_quarantine_without_budget_surfaces_the_penalty(self):
        engine, cluster = make_engine(
            corruption_model=ScriptedCorruption(corrupt_at=[0]),
            validation=True,
            retry_policy=None,
        )
        requests = submit_singles(engine, cluster, [0])
        completed = drain_items(engine)
        assert engine.gray_stats.n_quarantined == 1
        assert engine.gray_stats.n_quarantine_penalized == 1
        sample = completed[0][0]
        assert sample.crashed
        assert sample.value == engine.execution.crash_penalty()

    def test_wild_values_need_a_bounded_validator(self):
        # Unbounded validator: the wild (finite) reading slips through.
        engine, cluster = make_engine(
            corruption_model=ScriptedCorruption(corrupt_at=[0], kind="wild"),
            validation=True,
        )
        requests = submit_singles(engine, cluster, [0])
        completed = drain_items(engine)
        assert engine.gray_stats.n_quarantined == 0
        wild = completed[0][0]
        assert wild.details.get("corrupt_result") == "wild"
        assert wild.value == pytest.approx(wild.details["true_value"] * 1e9)
        # Bounded validator: the same reading is out-of-domain garbage.
        engine, cluster = make_engine(
            corruption_model=ScriptedCorruption(corrupt_at=[0], kind="wild"),
            validation=ResultValidator(lower=0.0, upper=1e6),
            retry_policy=RetryPolicy(),
        )
        submit_singles(engine, cluster, [0])
        completed = drain_items(engine)
        assert engine.gray_stats.n_quarantined == 1
        assert math.isfinite(completed[0][0].value)
        assert completed[0][0].value <= 1e6

    def test_corruption_preserves_the_measurement_rng(self):
        """Corruption is applied after measurement, so the clean samples of
        an injected run match the uninjected run's values exactly."""

        def run(**kwargs):
            engine, cluster = make_engine(**kwargs)
            submit_singles(engine, cluster, [0, 1, 2])
            return drain_items(engine)

        clean = run()
        injected = run(
            corruption_model=ScriptedCorruption(corrupt_at=[1], kind="nan")
        )
        for i in (0, 2):
            assert injected[i][0].value == clean[i][0].value
        assert math.isnan(injected[1][0].value)
        assert injected[1][0].details["true_value"] == clean[1][0].value


# -- the signature guarantee --------------------------------------------------


class TestNoneModelEquivalence:
    GRAY_NULL_KWARGS = dict(
        partition_model="none",
        lease_timeout=0.5,
        validation=True,
        corruption_model="none",
        retry_policy=RetryPolicy(),
    )

    def test_plain_trajectories_identical(self):
        plain_sampler, plain_result, plain_cluster = run_tuna()
        null_sampler, null_result, null_cluster = run_tuna(**self.GRAY_NULL_KWARGS)
        assert sample_trajectory(plain_sampler) == sample_trajectory(null_sampler)
        assert plain_result.wall_clock_hours == null_result.wall_clock_hours
        assert plain_result.best_config == null_result.best_config
        for vm_a, vm_b in zip(plain_cluster.workers, null_cluster.workers):
            assert vm_a.clock_hours == vm_b.clock_hours

    def test_inert_on_top_of_faults_speculation_and_crashes(self):
        kwargs = dict(
            fault_model="lognormal",
            fault_seed=7,
            speculation=True,
            crash_model="transient",
            crash_seed=13,
        )
        base_sampler, base_result, _ = run_tuna(**kwargs)
        null_sampler, null_result, _ = run_tuna(**kwargs, **self.GRAY_NULL_KWARGS)
        assert sample_trajectory(base_sampler) == sample_trajectory(null_sampler)
        assert base_result.wall_clock_hours == null_result.wall_clock_hours

    def test_inert_run_reports_all_zero_gray_stats(self):
        _, result, _ = run_tuna(**self.GRAY_NULL_KWARGS)
        for key in (
            "n_suspected",
            "n_zombies_rejected",
            "n_quarantined",
            "n_delayed",
        ):
            assert result.engine_stats[key] == 0

    def test_engine_stats_absent_without_gray_features(self):
        _, result, _ = run_tuna()
        assert result.engine_stats is None

    def test_metrics_registry_untouched_by_inert_gray_features(self):
        plain = MetricsRegistry()
        _, _, _ = run_tuna(metrics=plain)
        gray = MetricsRegistry()
        _, _, _ = run_tuna(metrics=gray, **self.GRAY_NULL_KWARGS)
        assert gray.as_dict() == plain.as_dict()


class TestLoopValidation:
    def test_active_partition_model_requires_async_batches(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(
                sampler, max_samples=5, partition_model="stall", partition_seed=0
            )
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(
                sampler,
                max_samples=5,
                batch_size=1,
                partition_model="stall",
                partition_seed=0,
            )

    def test_active_corruption_model_requires_async_batches(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(
                sampler,
                max_samples=5,
                corruption_model="corrupt_result",
                corruption_seed=0,
            )

    def test_lease_timeout_requires_the_async_driver(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            TuningLoop(sampler, max_samples=5, lease_timeout=0.5)

    def test_checkpoint_keep_validation(self):
        _, cluster, execution, opt = make_setup(0)
        sampler = TunaSampler(opt, execution, cluster, seed=0)
        with pytest.raises(ValueError, match="checkpoint_keep"):
            TuningLoop(
                sampler,
                max_samples=5,
                batch_size=2,
                checkpoint_path="x.ckpt",
                checkpoint_keep=0,
            )


class TestSchedulerSuspension:
    def _scheduler(self, n_workers=3):
        _, cluster, execution, opt = make_setup(0, n_workers=n_workers)
        sampler = TunaSampler(opt, execution, cluster, seed=0, budgets=(1, 2))
        return sampler.scheduler

    def test_suspended_worker_leaves_and_rejoins_placement(self):
        scheduler = self._scheduler()
        config = PostgreSQLSystem().knob_space.default_configuration()
        scheduler.suspend("worker-1")
        scheduler.suspend("worker-1")  # idempotent
        assert scheduler.is_suspended("worker-1")
        assert all(
            vm.vm_id != "worker-1"
            for vm in scheduler.eligible_workers(config, [])
        )
        # Suspension is reversible — unlike mark_dead.
        scheduler.restore("worker-1")
        assert not scheduler.is_suspended("worker-1")
        assert any(
            vm.vm_id == "worker-1"
            for vm in scheduler.eligible_workers(config, [])
        )
        assert scheduler.n_alive == 3

    def test_suspend_validates_the_worker(self):
        scheduler = self._scheduler()
        with pytest.raises(KeyError):
            scheduler.suspend("worker-99")
        scheduler.restore("worker-99")  # restore is a no-op for unknowns

    def test_suspicion_suspends_and_the_zombie_restores(self):
        """End to end through the loop: while a worker is silent it receives
        no fresh placements; once its zombie drains it rejoins the pool."""
        sampler, result, cluster = run_tuna(
            seed=5,
            batch_size=5,
            max_samples=40,
            partition_model="partition",
            partition_seed=21,
            lease_timeout=0.05,
            retry_policy=RetryPolicy(),
        )
        stats = result.engine_stats
        assert stats["n_suspected"] > 0
        # Every suspicion was paired with a drained zombie by study end, so
        # no worker is left suspended.
        assert stats["n_suspected"] == stats["n_zombies_rejected"]
        assert not any(
            sampler.scheduler.is_suspended(vm.vm_id) for vm in cluster.workers
        )


# -- exactly-one-accepted-result property -------------------------------------


#: (partition rate, lease timeout, corruption rate, crash, speculation) grid
#: the invariant must hold under.  Rates are extreme on purpose.
GRAY_GRID = [
    (0.3, 0.05, 0.0, None, None),
    (0.5, 0.02, 0.0, None, True),
    (0.0, None, 0.4, None, None),
    (0.4, 0.05, 0.3, "transient", None),
    (0.6, 0.01, 0.5, "transient", True),
]


class TestExactlyOneResultPerSlot:
    @pytest.mark.parametrize(
        "partition_rate,lease,corruption_rate,crash,speculation", GRAY_GRID
    )
    @pytest.mark.parametrize("seed", [3, 17])
    def test_engine_delivers_one_sample_per_slot(
        self, partition_rate, lease, corruption_rate, crash, speculation, seed
    ):
        from repro.faults import PartitionOutageModel

        n_slots = 24
        kwargs = dict(retry_policy=RetryPolicy())
        if partition_rate:
            kwargs["partition_model"] = PartitionOutageModel(
                seed=seed, rate=partition_rate, mean_outage_hours=2.0
            )
        if lease is not None:
            kwargs["lease_timeout_hours"] = lease
        if corruption_rate:
            kwargs["corruption_model"] = CorruptResultModel(
                seed=seed, rate=corruption_rate
            )
            kwargs["validation"] = True
        if crash is not None:
            kwargs["crash_model"] = crash
        if speculation:
            kwargs["speculation"] = True
            kwargs["fault_model"] = "lognormal"
        engine, cluster = make_engine(n_workers=8, seed=seed, **kwargs)
        space = PostgreSQLSystem().knob_space
        rng = np.random.default_rng(seed)
        for i in range(n_slots):
            config = space.sample(rng)
            worker = cluster.workers[i % len(cluster.workers)]
            engine.submit(WorkRequest(config, 1, [worker], i))
        completed = drain_items(engine)
        # Exactly one accepted sample per slot, every one finite when the
        # validator is armed, and the tallies are internally consistent.
        assert sorted(completed) == list(range(n_slots))
        for samples in completed.values():
            assert len(samples) == 1
        if corruption_rate:
            assert all(
                math.isfinite(samples[0].value) for samples in completed.values()
            )
        assert engine.gray_stats.n_suspected >= engine.gray_stats.n_zombies_rejected
        assert engine.loop.n_in_flight == 0
        engine.finalize()

    def test_registry_and_event_log_agree_on_gray_tallies(self, tmp_path):
        from repro.faults import PartitionOutageModel

        log_path = str(tmp_path / "events.jsonl")
        metrics = MetricsRegistry()
        engine, cluster = make_engine(
            n_workers=8,
            seed=11,
            partition_model=PartitionOutageModel(
                seed=11, rate=0.5, mean_outage_hours=2.0
            ),
            lease_timeout_hours=0.02,
            corruption_model=CorruptResultModel(seed=11, rate=0.3),
            validation=True,
            retry_policy=RetryPolicy(),
            event_log=EventLog(log_path),
            metrics=metrics,
        )
        space = PostgreSQLSystem().knob_space
        rng = np.random.default_rng(11)
        for i in range(24):
            config = space.sample(rng)
            engine.submit(
                WorkRequest(config, 1, [cluster.workers[i % 8]], i)
            )
        drain_items(engine)
        stats = engine.gray_stats
        assert stats.n_suspected > 0
        assert stats.n_quarantined > 0
        events = EventLog.replay(log_path)
        by_kind = {}
        for event in events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        assert by_kind.get("suspect", 0) == stats.n_suspected
        assert by_kind.get("lease_fence", 0) == stats.n_suspected
        assert by_kind.get("zombie_rejected", 0) == stats.n_zombies_rejected
        assert by_kind.get("quarantined", 0) == stats.n_quarantined
        counters = metrics.as_dict()["counters"]

        def counter_value(name):
            return sum(
                value
                for key, value in counters.items()
                if key == name or key.startswith(name + "{")
            )

        assert counter_value("engine.items.suspected") == stats.n_suspected
        assert counter_value("engine.leases.fenced") == stats.n_suspected
        assert (
            counter_value("engine.items.zombie_rejected")
            == stats.n_zombies_rejected
        )
        assert counter_value("engine.samples.quarantined") == stats.n_quarantined
        # No fenced result was evaluated: zombies never consumed measurement
        # RNG, so accepted + quarantined == engine evaluations.
        assert counter_value("loop.items.zombie") == stats.n_zombies_rejected
