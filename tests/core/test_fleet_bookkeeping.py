"""Fleet-path bookkeeping against the full-scan code it replaced.

Three decisions run on every sample of a fleet study: the scheduler's
placement rank, the successive-halving rung bookkeeping, and the engine's
straggler checks (plus the detector's quantile threshold).  Each now does
work proportional to what it decides, not to the fleet or the history, and
must still reproduce the full-scan code bit for bit: same picks, same RNG
use, same order.  That code is kept here, test-side, as the reference; the
package only ships the indexed form.

The cost-counting tests pin the complexity with counts, not timings (host
timings drift by 20% or more).  Each fails if its step is put back to the
full scan.
"""

import builtins
import math
import pickle
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import Cluster, FleetSpec
from repro.configspace import Configuration, ConfigurationSpace, FloatParameter
from repro.core import AsyncExecutionEngine, TunaSampler, TuningLoop
from repro.core import multi_fidelity
from repro.core.async_engine import WorkRequest
from repro.core.execution import ExecutionEngine
from repro.core.multi_fidelity import SuccessiveHalvingSchedule
from repro.core.scheduler import MultiFidelityTaskScheduler
from repro.faults import SpeculationPolicy, StragglerDetector
from repro.faults.straggler import sorted_quantile
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC
from repro.workloads.base import Objective

REGIONS = ("westus2", "eastus", "centralus")
SKUS = ("Standard_D16s_v5", "Standard_D8s_v5", "Standard_D8s_v4")  # 1.45, 1.0, 0.75


def bits(value):
    return struct.pack("<d", value)


def hetero_cluster(seed=3, per_group=3):
    groups = [(region, sku, per_group) for region, sku in zip(REGIONS, SKUS)]
    return Cluster(seed=seed, fleet=FleetSpec.of(groups))


# ---------------------------------------------------------------- placement
def reference_rank(scheduler, eligible, used):
    """The full greedy rank: every eligible worker, re-keyed every round."""
    region_usage = scheduler._region_usage(used)
    tiebreak = {vm.vm_id: scheduler._rng.random() for vm in eligible}
    remaining = list(eligible)
    ordered = []
    while remaining:
        best = min(
            remaining,
            key=lambda vm: (
                (scheduler._reserved[vm.vm_id] + 1) / scheduler._speed[vm.vm_id],
                region_usage.get(scheduler._region[vm.vm_id], 0),
                scheduler._load[vm.vm_id] / scheduler._speed[vm.vm_id],
                tiebreak[vm.vm_id],
            ),
        )
        remaining.remove(best)
        ordered.append(best)
        region = scheduler._region[best.vm_id]
        region_usage[region] = region_usage.get(region, 0) + 1
    return ordered


fleet_groups = st.lists(
    st.tuples(st.sampled_from(REGIONS), st.sampled_from(SKUS), st.integers(1, 4)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60)
@given(groups=fleet_groups, seed=st.integers(0, 2**31 - 1), data=st.data())
def test_bounded_rank_matches_full_greedy_rank(groups, seed, data):
    cluster = Cluster(seed=1, fleet=FleetSpec.of(groups))
    ids = cluster.worker_ids
    bounded = MultiFidelityTaskScheduler(cluster, seed=seed)
    full = MultiFidelityTaskScheduler(cluster, seed=seed)
    # Identical fleet state on both: reservations, loads, dead and suspended
    # workers (small ranges, so the first three key terms tie often).
    for worker_id in ids:
        reserved = data.draw(st.integers(0, 2), label="reserved")
        load = data.draw(st.integers(0, 3), label="load")
        for scheduler in (bounded, full):
            scheduler.reserve([worker_id] * reserved)
            scheduler.record_external_load(worker_id, load)
    dead = data.draw(st.sets(st.sampled_from(ids)), label="dead")
    suspended = data.draw(st.sets(st.sampled_from(ids)), label="suspended")
    for scheduler in (bounded, full):
        for worker_id in dead:
            scheduler.mark_dead(worker_id)
        for worker_id in suspended:
            scheduler.suspend(worker_id)
    used = data.draw(st.lists(st.sampled_from(ids), unique=True), label="used")
    eligible = bounded.eligible_workers(None, used)
    if not eligible:
        return
    needed = data.draw(st.integers(1, len(eligible)), label="needed")

    picks = bounded._rank_heterogeneity(eligible, used, needed)
    expected = reference_rank(full, eligible, used)[:needed]

    assert [vm.vm_id for vm in picks] == [vm.vm_id for vm in expected]
    assert bounded._rng.bit_generator.state == full._rng.bit_generator.state


class CountingDict(dict):
    """A region-usage map that counts reads: one per key evaluation, plus
    one per pick when the pick's region usage is bumped."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("needed", [1, 2, 5])
def test_assign_key_evaluations_bounded_by_needed_times_eligible(monkeypatch, needed):
    cluster = hetero_cluster(per_group=16)  # the 48-worker chaos-fleet shape
    scheduler = MultiFidelityTaskScheduler(cluster, seed=0)
    maps = []
    region_usage = MultiFidelityTaskScheduler._region_usage

    def counting_usage(self, used):
        counted = CountingDict(region_usage(self, used))
        maps.append(counted)
        return counted

    monkeypatch.setattr(MultiFidelityTaskScheduler, "_region_usage", counting_usage)
    space = PostgreSQLSystem().knob_space
    chosen = scheduler.assign(space.default_configuration(), needed, [])

    assert len(chosen) == needed
    key_evaluations = maps[0].reads - needed  # minus the per-pick bumps
    assert key_evaluations <= needed * cluster.n_workers


# -------------------------------------------------------------------- rungs
@dataclass
class _RefEntry:
    config: Configuration
    value: float
    promoted: bool = False
    pending: bool = False


class ReferenceSchedule:
    """The list-scanning, re-sorting successive-halving schedule."""

    def __init__(self, objective, budgets, eta):
        self.objective, self.budgets, self.eta = objective, budgets, eta
        self._rungs = {budget: [] for budget in budgets}

    def next_budget(self, budget):
        index = self.budgets.index(budget)
        return self.budgets[index + 1] if index + 1 < len(self.budgets) else None

    def rung_configs(self, budget):
        return [entry.config for entry in self._rungs[budget]]

    def record(self, config, budget, value):
        for entry in self._rungs[budget]:
            if entry.config == config:
                entry.value = value
                return
        self._rungs[budget].append(_RefEntry(config, value))

    def _sorted_entries(self, budget):
        return sorted(
            self._rungs[budget],
            key=lambda entry: entry.value,
            reverse=self.objective.higher_is_better,
        )

    def propose_promotion(self):
        for budget in reversed(self.budgets[:-1]):
            entries = self._rungs[budget]
            if len(entries) < self.eta:
                continue
            ranked = self._sorted_entries(budget)
            n_promotable = max(1, int(len(ranked) / self.eta))
            for entry in ranked[:n_promotable]:
                if not entry.promoted and not entry.pending:
                    entry.pending = True
                    return entry.config, self.next_budget(budget)
        return None

    def _pending_entry(self, config):
        for budget in self.budgets[:-1]:
            for entry in self._rungs[budget]:
                if entry.config == config and entry.pending:
                    return entry
        raise KeyError(config)

    def commit_promotion(self, config):
        entry = self._pending_entry(config)
        entry.pending = False
        entry.promoted = True

    def rollback_promotion(self, config):
        self._pending_entry(config).pending = False

    def n_pending_promotions(self):
        count = 0
        for budget in self.budgets[:-1]:
            ranked = self._sorted_entries(budget)
            if len(ranked) < self.eta:
                continue
            n_promotable = max(1, int(len(ranked) / self.eta))
            count += sum(
                1
                for entry in ranked[:n_promotable]
                if not entry.promoted and not entry.pending
            )
        return count


SPACE = ConfigurationSpace([FloatParameter("x", 0.0, 1.0)], seed=0)
CONFIGS = [SPACE.partial_configuration(x=i / 10) for i in range(8)]

rung_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["record"] * 4 + ["propose"] * 2 + ["commit", "rollback", "count", "pickle"]
        ),
        st.integers(0, len(CONFIGS) - 1),
        st.sampled_from([0, 0, 0, 1, 1, 2, 3]),  # rung index, mostly the lower rungs
        # Few distinct values, so ties are frequent; ±inf order too.
        st.sampled_from([0.0, 1.0, 1.0, 2.0, -3.0, 7.5, math.inf, -math.inf]),
    ),
    min_size=10,
    max_size=120,
)


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except KeyError:
        return ("KeyError", None)


@settings(max_examples=150)
@given(
    objective=st.sampled_from([Objective.THROUGHPUT, Objective.RUNTIME]),
    budgets=st.sampled_from([(1, 3, 10), (1, 2, 4, 8)]),
    eta=st.sampled_from([2.0, 2.5, 3.0]),
    ops=rung_ops,
)
def test_indexed_rungs_match_sorted_list_reference(objective, budgets, eta, ops):
    schedule = SuccessiveHalvingSchedule(objective=objective, budgets=budgets, eta=eta)
    reference = ReferenceSchedule(objective, budgets, eta)
    proposed = []
    for kind, config_index, budget_index, value in ops:
        config = CONFIGS[config_index]
        if kind == "record":
            budget = budgets[budget_index % len(budgets)]
            schedule.record(config, budget, value)
            reference.record(config, budget, value)
        elif kind == "propose":
            proposal = schedule.propose_promotion()
            assert proposal == reference.propose_promotion()
            if proposal is not None:
                proposed.append(proposal[0])
        elif kind in ("commit", "rollback"):
            if proposed and config_index % 2 == 0:  # else: maybe not pending
                config = proposed.pop()
            method = f"{kind}_promotion"
            assert _outcome(getattr(schedule, method), config) == _outcome(
                getattr(reference, method), config
            )
        elif kind == "count":
            assert schedule.n_pending_promotions() == reference.n_pending_promotions()
        else:  # a checkpoint round trip rebuilds the indexes
            schedule = pickle.loads(pickle.dumps(schedule))
        for budget in budgets:
            assert schedule.rung_configs(budget) == reference.rung_configs(budget)
    assert schedule.n_pending_promotions() == reference.n_pending_promotions()


def test_record_rejects_nan():
    schedule = SuccessiveHalvingSchedule(objective=Objective.RUNTIME)
    with pytest.raises(ValueError, match="NaN"):
        schedule.record(CONFIGS[0], 1, math.nan)


@pytest.fixture()
def eq_calls(monkeypatch):
    calls = []
    original = Configuration.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Configuration, "__eq__", counting_eq)
    return calls


def _filled_schedule(n=300):
    schedule = SuccessiveHalvingSchedule(objective=Objective.THROUGHPUT)
    configs = [SPACE.partial_configuration(x=(i + 0.5) / n) for i in range(n)]
    for i, config in enumerate(configs):
        schedule.record(config, 1, float(i % 17))
    return schedule, configs


def test_record_and_commit_cost_constant_config_comparisons(eq_calls):
    schedule, configs = _filled_schedule()
    del eq_calls[:]
    schedule.record(SPACE.partial_configuration(x=0.0), 1, 3.0)  # new entry
    assert len(eq_calls) <= 2
    del eq_calls[:]
    schedule.record(configs[150], 1, 99.0)  # re-record moves the entry
    assert len(eq_calls) <= 2
    config, _ = schedule.propose_promotion()
    del eq_calls[:]
    schedule.commit_promotion(config)
    assert len(eq_calls) <= 2 * len(schedule.budgets)


def test_propose_promotion_never_sorts(monkeypatch):
    schedule, _ = _filled_schedule()
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(1)
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(multi_fidelity, "sorted", counting_sorted, raising=False)
    assert schedule.propose_promotion() is not None
    schedule.n_pending_promotions()
    assert calls == []


# -------------------------------------------------------------- speculation
def reference_crossings(engine, threshold, next_finish):
    """The rescan in ``_speculate_at_crossings``: every live item."""
    crossings = []
    for sequence, item in engine._live.items():
        if item.speculative:
            continue
        if engine._n_clones.get(sequence, 0) >= engine.speculation.max_clones_per_item:
            continue
        crossing = item.start_hours + threshold / item.vm.speed_factor
        if crossing < next_finish:
            crossings.append((crossing, sequence, item))
    crossings.sort(key=lambda entry: (entry[0], entry[1]))
    return crossings


def reference_stragglers(engine, threshold, now):
    """The rescan in ``_maybe_speculate``: live items in submission order."""
    stragglers = []
    for sequence in list(engine._live):
        item = engine._live.get(sequence)
        if item is None or item.speculative or item.cancelled:
            continue
        if engine._n_clones.get(sequence, 0) >= engine.speculation.max_clones_per_item:
            continue
        if item.start_hours > now:
            continue
        elapsed = engine.execution.work_units(item.vm, now - item.start_hours)
        if elapsed > threshold:
            stragglers.append(item)
    return stragglers


def speculative_engine(max_clones=1, per_group=3):
    cluster = hetero_cluster(per_group=per_group)
    execution = ExecutionEngine(PostgreSQLSystem(), TPCC, seed=3)
    policy = SpeculationPolicy(max_clones_per_item=max_clones)
    return AsyncExecutionEngine(execution, cluster, speculation=policy), cluster


engine_ops = st.lists(
    st.tuples(
        st.sampled_from(["submit", "submit", "advance", "clone", "finish"]),
        st.integers(0, 10**6),
        st.floats(0.0, 2.0),
    ),
    max_size=40,
)


@settings(max_examples=80)
@given(
    max_clones=st.integers(1, 2),
    ops=engine_ops,
    threshold=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1e17, math.inf])),
    offset=st.floats(0.0, 3.0),
)
def test_crossing_queues_match_the_rescan(max_clones, ops, threshold, offset):
    engine, cluster = speculative_engine(max_clones)
    config = PostgreSQLSystem().knob_space.default_configuration()
    workers = cluster.workers
    for iteration, (kind, pick, hours) in enumerate(ops):
        live = list(engine._live.values())
        if kind == "submit":
            vms = [workers[(pick + k * 7) % len(workers)] for k in range(1 + pick % 3)]
            engine.submit(WorkRequest(config, 1, list(dict.fromkeys(vms)), iteration))
        elif kind == "advance":
            engine.loop.advance_now(engine.loop.now + hours)
        elif kind == "clone":
            originals = [
                item
                for item in live
                if not item.speculative
                and engine._n_clones.get(item.sequence, 0) < max_clones
            ]
            if originals:
                item = originals[pick % len(originals)]
                engine._submit_clone(item, workers[pick % len(workers)])
        elif live:  # finish: the item leaves the in-flight set
            engine._leave_live(live[pick % len(live)].sequence)
        horizon = engine.loop.now + offset
        assert engine._crossings(threshold, horizon) == reference_crossings(
            engine, threshold, horizon
        )
        assert engine._stragglers(threshold, horizon) == reference_stragglers(
            engine, threshold, horizon
        )


def _speculative_study(seed):
    cluster = hetero_cluster(seed=seed, per_group=4)  # budgets reach 10 nodes
    system = PostgreSQLSystem()
    execution = ExecutionEngine(system, TPCC, seed=seed)
    optimizer = RandomSearchOptimizer(system.knob_space, seed=seed)
    sampler = TunaSampler(optimizer, execution, cluster, seed=seed)
    loop = TuningLoop(
        sampler,
        max_samples=150,
        batch_size=12,
        fault_model="lognormal",
        fault_seed=seed + 1,
        speculation=True,
    )
    return loop


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_study_crossings_and_stragglers_match_the_rescan(monkeypatch, seed):
    """Every check of a whole speculative study, against the rescan."""
    crossings, stragglers = AsyncExecutionEngine._crossings, AsyncExecutionEngine._stragglers
    seen = {"crossings": 0, "stragglers": 0}

    def checked_crossings(self, threshold, horizon):
        result = crossings(self, threshold, horizon)
        assert result == reference_crossings(self, threshold, horizon)
        seen["crossings"] += len(result)
        return result

    def checked_stragglers(self, threshold, now):
        result = stragglers(self, threshold, now)
        assert result == reference_stragglers(self, threshold, now)
        seen["stragglers"] += len(result)
        return result

    monkeypatch.setattr(AsyncExecutionEngine, "_crossings", checked_crossings)
    monkeypatch.setattr(AsyncExecutionEngine, "_stragglers", checked_stragglers)
    result = _speculative_study(seed).run()
    assert result.engine_stats["n_duplicates_submitted"] > 0
    assert seen["crossings"] > 0


def test_straggler_check_reads_only_crossing_prefixes(monkeypatch):
    """With nothing straggling, a check inspects one run per speed group."""
    engine, cluster = speculative_engine(per_group=16)
    config = PostgreSQLSystem().knob_space.default_configuration()
    for iteration, vm in enumerate(cluster.workers):
        engine.submit(WorkRequest(config, 1, [vm], iteration))
    assert len(engine._live) == 48
    calls = []
    work_units = engine.execution.work_units

    def counting_work_units(vm, hours):
        calls.append(1)
        return work_units(vm, hours)

    monkeypatch.setattr(engine.execution, "work_units", counting_work_units)
    assert engine._stragglers(threshold=1.0, now=engine.loop.now + 0.1) == []
    assert len(calls) == len(SKUS)
    assert engine._crossings(threshold=1.0, horizon=0.0) == []


# ------------------------------------------------------- quantile threshold
def test_sorted_quantile_is_bit_equal_to_numpy_examples():
    for values in ([3.0], [1.0, 2.0], [0.0, 0.0, 5.0], [1.0, math.inf], [2.0, 1e300]):
        for q in (0.0, 0.1, 0.5, 0.9, 0.999999, 1.0):
            with np.errstate(invalid="ignore"):
                expected = float(np.quantile(np.array(values), q))
            got = sorted_quantile(sorted(values), q)
            assert bits(got) == bits(expected) or (math.isnan(got) and math.isnan(expected))


@settings(max_examples=200)
@given(
    durations=st.lists(
        st.one_of(
            st.floats(min_value=0.0, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5]),
        ),
        max_size=60,
    ),
    window=st.integers(5, 12),
    quantile=st.floats(min_value=0.01, max_value=0.99),
)
def test_sorted_window_threshold_bit_equal_to_np_quantile(durations, window, quantile):
    policy = SpeculationPolicy(
        quantile=quantile, slack=1.5, min_history=5, history_window=window
    )
    detector = StragglerDetector(policy)
    for duration in durations:
        detector.observe(duration)
        threshold = detector.threshold()
        if detector.n_observed < policy.min_history:
            assert threshold is None
            continue
        ring = detector._durations.as_array()
        expected = float(np.quantile(ring, quantile)) * policy.slack
        assert bits(threshold) == bits(expected)
    restored = pickle.loads(pickle.dumps(detector))
    assert restored._sorted == detector._sorted


def test_detector_rejects_nan_durations():
    with pytest.raises(ValueError):
        StragglerDetector().observe(math.nan)


def test_threshold_never_calls_np_quantile(monkeypatch):
    calls = []
    quantile = np.quantile

    def counting_quantile(*args, **kwargs):
        calls.append(1)
        return quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", counting_quantile)
    detector = StragglerDetector(SpeculationPolicy(history_window=16))
    rng = np.random.default_rng(0)
    for duration in rng.exponential(size=50):
        detector.observe(duration)
        detector.threshold()
    assert calls == []
