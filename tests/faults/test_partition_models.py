"""Unit tests for the gray-failure partition models."""

import pytest

from repro.faults import (
    CompositeInjector,
    FlakyReconnectModel,
    InjectionContext,
    PartitionDecision,
    PartitionModel,
    PartitionOutageModel,
    PartitionStats,
    StallModel,
)


def ctx(worker="worker-0", start=0.0, duration=1.0, speculative=False):
    return InjectionContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        speculative=speculative,
    )


@pytest.mark.parametrize(
    "model_cls,kind",
    [
        (StallModel, "stall"),
        (PartitionOutageModel, "partition"),
        (FlakyReconnectModel, "flaky"),
    ],
)
class TestActiveModels:
    def test_delayed_decisions_carry_the_kind_and_a_positive_delay(
        self, model_cls, kind
    ):
        model = model_cls(seed=1, rate=1.0)
        for i in range(20):
            decision = model.decide(ctx(start=float(i)))
            assert decision.delayed
            assert decision.kind == kind
            assert decision.delay_hours > 0
            assert 0.0 <= decision.silent_fraction <= 1.0

    def test_fixed_draw_count_per_decision(self, model_cls, kind):
        """Responsive and delayed decisions consume the same number of
        draws, so the stream position never depends on earlier outcomes."""
        model = model_cls(seed=3, rate=0.5)
        reference = model_cls(seed=3, rate=0.5)
        for i in range(10):
            model.decide(ctx(start=float(i)))
        rng = reference.stream_for("worker-0")
        for _ in range(10):
            # Every model draws exactly three times per decision.
            rng.random()
            if model_cls is FlakyReconnectModel:
                rng.integers(1, reference.max_blips + 1)
                rng.exponential(1.0)
            else:
                rng.exponential(1.0)
                rng.random()
        assert model.decide(ctx(start=99.0)) == reference.decide(ctx(start=99.0))

    def test_rate_validation(self, model_cls, kind):
        with pytest.raises(ValueError):
            model_cls(seed=0, rate=1.5)


class TestFlakyReconnectModel:
    def test_silence_only_at_report_time(self):
        model = FlakyReconnectModel(seed=2, rate=1.0)
        decision = model.decide(ctx())
        assert decision.silent_fraction == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlakyReconnectModel(seed=0, blip_hours=0.0)
        with pytest.raises(ValueError):
            FlakyReconnectModel(seed=0, max_blips=0)


class TestCompositePartitionModel:
    def test_longest_silence_dominates(self):
        class Fixed(PartitionModel):
            name = "fixed"

            def __init__(self, delay):
                super().__init__(seed=0)
                self.delay = delay

            def decide(self, context):
                if self.delay is None:
                    return PartitionDecision(delayed=False)
                return PartitionDecision(
                    delayed=True, delay_hours=self.delay, kind="stall"
                )

        composite = CompositeInjector(
            [Fixed(0.5), Fixed(None), Fixed(2.0), Fixed(1.0)]
        )
        decision = composite.decide(ctx())
        assert decision.delayed and decision.delay_hours == 2.0

class TestPartitionStats:
    def test_record_classifies_by_kind(self):
        stats = PartitionStats()
        stats.record(PartitionDecision(delayed=True, delay_hours=0.5, kind="stall"))
        stats.record(
            PartitionDecision(delayed=True, delay_hours=1.5, kind="partition")
        )
        stats.record(PartitionDecision(delayed=True, delay_hours=0.1, kind="flaky"))
        assert stats.as_dict() == {
            "n_delayed": 3,
            "n_stalls": 1,
            "n_outages": 1,
            "n_flaky": 1,
            "total_delay_hours": pytest.approx(2.1),
        }
