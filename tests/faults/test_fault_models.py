"""Tests for the stochastic fault models and the straggler detector."""

import pytest

from repro.faults import (
    BrownoutModel,
    CompositeInjector,
    FaultModel,
    InjectionContext,
    InterferenceBurstModel,
    LognormalTailModel,
    NoFaultModel,
    SpeculationPolicy,
    SpeculationStats,
    StragglerDetector,
)


def ctx(worker="worker-0", start=0.0, duration=0.1, concurrent=0, n_workers=10, speculative=False):
    return InjectionContext(
        worker_id=worker,
        start_hours=start,
        duration_hours=duration,
        concurrent_items=concurrent,
        n_workers=n_workers,
        speculative=speculative,
    )


class TestLognormalTailModel:
    def test_stretch_never_shrinks_and_has_a_heavy_tail(self):
        model = LognormalTailModel(seed=0, rate=1.0, sigma=1.0, scale=2.0)
        draws = [model.stretch(ctx()) for _ in range(400)]
        assert min(draws) >= 1.0
        assert max(draws) > 5.0  # the long tail exists
        assert max(draws) <= model.max_stretch

    def test_clean_runs_keep_exact_duration(self):
        model = LognormalTailModel(seed=0, rate=0.0)
        assert all(model.stretch(ctx()) == 1.0 for _ in range(20))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LognormalTailModel(rate=1.5)
        with pytest.raises(ValueError):
            LognormalTailModel(sigma=0.0)


class TestInterferenceBurstModel:
    def test_bursts_couple_to_colocated_load(self):
        idle = InterferenceBurstModel(seed=11, base_rate=0.15, coupling=3.0)
        busy = InterferenceBurstModel(seed=11, base_rate=0.15, coupling=3.0)
        idle_draws = [idle.stretch(ctx(concurrent=0)) for _ in range(600)]
        busy_draws = [busy.stretch(ctx(concurrent=10)) for _ in range(600)]
        idle_hits = sum(d > 1.0 for d in idle_draws)
        busy_hits = sum(d > 1.0 for d in busy_draws)
        assert busy_hits > idle_hits * 1.5

    def test_burst_magnitude_is_capped(self):
        model = InterferenceBurstModel(seed=0, base_rate=1.0, max_extra=2.0)
        assert all(model.stretch(ctx()) <= 3.0 for _ in range(200))


class TestBrownoutModel:
    def test_binary_stretch_values(self):
        model = BrownoutModel(seed=2, mean_healthy_hours=1.0, mean_brownout_hours=0.5, slowdown=3.0)
        draws = {model.stretch(ctx(start=t * 0.25)) for t in range(400)}
        assert draws <= {1.0, 3.0}
        assert draws == {1.0, 3.0}  # both states visited over 100 hours

    def test_state_is_persistent_between_queries(self):
        model = BrownoutModel(seed=4, mean_healthy_hours=2.0, mean_brownout_hours=1.0)
        # Two queries at the same time see the same state.
        assert model.stretch(ctx(start=10.0)) == model.stretch(ctx(start=10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutModel(mean_healthy_hours=0.0)
        with pytest.raises(ValueError):
            BrownoutModel(slowdown=0.5)


class TestCompositeAndRegistry:
    def test_composite_multiplies(self):
        always = LognormalTailModel(seed=0, rate=1.0, sigma=0.1, scale=1.0)
        model = CompositeInjector([always, NoFaultModel()])
        assert model.decide(ctx()) > 1.0

    def test_kwargs_forwarded(self):
        model = FaultModel.build("lognormal", seed=0, rate=0.5, scale=3.0)
        assert model.rate == 0.5 and model.scale == 3.0


class TestStragglerDetector:
    def test_cold_start_never_fires(self):
        detector = StragglerDetector(SpeculationPolicy(min_history=5))
        for _ in range(4):
            detector.observe(1.0)
        assert detector.threshold() is None
        assert not detector.is_straggler(100.0)

    def test_quantile_threshold(self):
        policy = SpeculationPolicy(quantile=0.5, slack=2.0, min_history=5)
        detector = StragglerDetector(policy)
        for value in (1.0, 1.0, 1.0, 1.0, 1.0):
            detector.observe(value)
        assert detector.threshold() == pytest.approx(2.0)
        assert detector.is_straggler(2.1)
        assert not detector.is_straggler(1.9)

    def test_observe_invalidates_cached_threshold(self):
        detector = StragglerDetector(SpeculationPolicy(quantile=0.5, slack=1.0, min_history=1))
        detector.observe(1.0)
        assert detector.threshold() == pytest.approx(1.0)
        for _ in range(9):
            detector.observe(11.0)
        assert detector.threshold() > 5.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            StragglerDetector().observe(-0.1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SpeculationPolicy(quantile=1.5)
        with pytest.raises(ValueError):
            SpeculationPolicy(slack=0.9)
        with pytest.raises(ValueError):
            SpeculationPolicy(min_history=0)
        with pytest.raises(ValueError):
            SpeculationPolicy(max_clones_per_item=0)

    def test_stats_as_dict(self):
        stats = SpeculationStats(n_stragglers_detected=2, extra={"note": "x"})
        payload = stats.as_dict()
        assert payload["n_stragglers_detected"] == 2
        assert payload["note"] == "x"


class TestFaultModelInterface:
    def test_custom_model_subclassing(self):
        class Doubler(FaultModel):
            name = "doubler"

            def stretch(self, context):
                return 2.0

        model = Doubler()
        assert model.stretch(ctx()) == 2.0
        assert not model.is_null
