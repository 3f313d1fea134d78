"""The injector contract, checked once for every fault domain.

Every domain (fault, crash, partition, corruption) is a subclass of the one
seeded :class:`~repro.faults.Injector` base, so the stream derivation,
structural nullness, composite and registry guarantees are asserted here
over all four domains at once.  Per-model behaviour stays in the
per-domain test files.
"""

import zlib
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import pytest
from pytest import fixture

from repro.faults import (
    CompositeInjector,
    CorruptionModel,
    CorruptResultModel,
    CrashModel,
    FaultModel,
    InjectionContext,
    LognormalTailModel,
    NoCorruptionModel,
    NoCrashModel,
    NoFaultModel,
    NoPartitionModel,
    PartitionModel,
    StallModel,
    TransientCrashModel,
)

WORKERS = ("worker-0", "worker-7", "node-a")


@dataclass(frozen=True)
class Domain:
    """What the contract needs to know about one fault domain."""

    base: type
    null: type
    make: Callable  # seed -> an active model of the domain
    tag: Tuple[int, ...]
    names: frozenset


@fixture
def fault_domain():
    return Domain(
        FaultModel,
        NoFaultModel,
        lambda seed: LognormalTailModel(seed=seed, rate=0.5),
        (),
        frozenset({"none", "lognormal", "heavy-tail", "interference", "brownout"}),
    )


@fixture
def crash_domain():
    return Domain(
        CrashModel,
        NoCrashModel,
        lambda seed: TransientCrashModel(seed=seed, rate=0.3),
        (13,),
        frozenset({"none", "transient", "node-death", "weibull", "mtbf"}),
    )


@fixture
def partition_domain():
    return Domain(
        PartitionModel,
        NoPartitionModel,
        lambda seed: StallModel(seed=seed, rate=0.4),
        (17,),
        frozenset({"none", "stall", "partition", "outage", "flaky", "reconnect"}),
    )


@fixture
def corruption_domain():
    return Domain(
        CorruptionModel,
        NoCorruptionModel,
        lambda seed: CorruptResultModel(seed=seed, rate=0.5),
        (19,),
        frozenset({"none", "corrupt_result", "corrupt"}),
    )


@fixture(params=["fault_domain", "crash_domain", "partition_domain", "corruption_domain"])
def domain(request):
    return request.getfixturevalue(request.param)


def ctx(worker="worker-0", start=0.0, speculative=False):
    return InjectionContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=1.0,
        concurrent_items=3,
        n_workers=10,
        speculative=speculative,
    )


def reference_rng(seed, worker, *words):
    entropy = np.random.SeedSequence([seed, zlib.crc32(worker.encode("utf-8")), *words])
    return np.random.default_rng(entropy)


class TestStreamDerivation:
    @pytest.mark.parametrize("channel", [0, 1])
    def test_stream_matches_the_entropy_vector(self, domain, channel):
        model = domain.make(42)
        for worker in WORKERS:
            expected = reference_rng(42, worker, *domain.tag, channel).random(8)
            assert list(model.stream_for(worker, channel).random(8)) == list(expected)

    def test_stream_is_cached_per_worker_and_channel(self, domain):
        model = domain.make(3)
        assert model.stream_for("worker-0") is model.stream_for("worker-0", 0)
        assert model.stream_for("worker-0", 1) is not model.stream_for("worker-0", 0)

    def test_windowed_fault_rng_uses_tag_7(self):
        model = LognormalTailModel(seed=9, rate=0.5, sigma=1.0, scale=2.0, window_hours=0.5)
        for start in (0.1, 0.7, 3.2):
            rng = reference_rng(9, "worker-3", 7, int(start // 0.5))
            hit = rng.random() < 0.5
            tail = float(rng.lognormal(0.0, 1.0))
            expected = min(1.0 + 2.0 * tail, model.max_stretch) if hit else 1.0
            assert model.decide(ctx(worker="worker-3", start=start)) == expected


class TestNullInjector:
    def test_null_consumes_no_rng(self, domain):
        model = domain.null()
        decisions = {model.decide(ctx(start=float(i))) for i in range(20)}
        # The null decision is the identity of the domain's combine rule.
        assert decisions == {model.combine([])}
        assert model.is_null
        assert model._streams == {}

    def test_null_cannot_create_a_stream(self, domain):
        with pytest.raises(RuntimeError):
            domain.null().stream_for("worker-0")

    def test_active_models_are_not_null(self, domain):
        assert not domain.make(0).is_null


class TestDeterminism:
    def test_same_seed_same_decisions(self, domain):
        a, b = domain.make(5), domain.make(5)
        contexts = [ctx(worker=WORKERS[i % 3], start=float(i)) for i in range(60)]
        assert [a.decide(c) for c in contexts] == [b.decide(c) for c in contexts]

    def test_workers_draw_independently(self, domain):
        a, b = domain.make(5), domain.make(5)
        alone = [a.decide(ctx(worker="worker-7", start=float(i))) for i in range(40)]
        mixed = []
        for i in range(40):
            b.decide(ctx(worker="worker-0", start=float(i)))
            mixed.append(b.decide(ctx(worker="worker-7", start=float(i))))
        assert alone == mixed

    def test_speculative_draws_do_not_shift_channel_0(self, domain):
        a, b = domain.make(5), domain.make(5)
        plain = [a.decide(ctx(start=float(i))) for i in range(40)]
        mixed = []
        for i in range(40):
            b.decide(ctx(start=float(i), speculative=True))
            mixed.append(b.decide(ctx(start=float(i))))
        assert plain == mixed


class TestComposite:
    def test_composite_of_nulls_is_null(self, domain):
        assert CompositeInjector([domain.null(), domain.null()]).is_null
        assert not CompositeInjector([domain.null(), domain.make(0)]).is_null

    def test_composite_keeps_the_domain(self, domain):
        composite = CompositeInjector([domain.make(1), domain.make(2)])
        assert composite.domain == domain.base.domain
        assert domain.base.build(composite) is composite

    def test_members_draw_unconditionally(self, domain):
        solo = domain.make(4)
        member = domain.make(4)
        composite = CompositeInjector([domain.make(11), member])
        for i in range(30):
            solo.decide(ctx(start=float(i)))
            composite.decide(ctx(start=float(i)))
        assert member.decide(ctx(start=99.0)) == solo.decide(ctx(start=99.0))

    def test_composite_needs_members_of_one_domain(self, domain, fault_domain, crash_domain):
        with pytest.raises(ValueError):
            CompositeInjector([])
        other = crash_domain if domain.base is FaultModel else fault_domain
        with pytest.raises(ValueError):
            CompositeInjector([domain.make(0), other.make(0)])


class TestBuild:
    def test_registry_covers_the_documented_names(self, domain):
        assert set(domain.base.registry()) == domain.names

    def test_names_build_their_models(self, domain):
        for name, model_cls in domain.base.registry().items():
            assert type(domain.base.build(name, seed=1)) is model_cls
        assert isinstance(domain.base.build("none", seed=1), domain.null)
        assert isinstance(domain.base.build("NONE"), domain.null)

    def test_instances_and_none_pass_through(self, domain):
        model = domain.make(2)
        assert domain.base.build(model) is model
        assert domain.base.build(None) is None

    def test_unknown_name_raises_key_error(self, domain):
        with pytest.raises(KeyError, match=f"unknown {domain.base.domain} model"):
            domain.base.build("cosmic-rays")

    def test_wrong_domain_instance_is_rejected(self, domain, fault_domain, crash_domain):
        other = crash_domain if domain.base is FaultModel else fault_domain
        with pytest.raises(TypeError):
            domain.base.build(other.make(0))
