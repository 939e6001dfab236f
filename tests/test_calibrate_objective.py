"""Unit suite for the calibration objective.

Covers the scoring semantics (exact match → 0, empty-vs-empty free,
one-sided missing penalised, relative-error floor), the serialized
target/trial payloads, and the override-to-scenario compilation
(including the scheduler knob).
"""

from __future__ import annotations

import pytest

from repro.calibrate.objective import (
    COMPONENTS,
    DEFAULT_WEIGHTS,
    ComponentStats,
    TargetDecomposition,
    TrialResult,
    _weighted_error,
    apply_overrides,
    component_error,
)
from repro.workloads.scenarios import get_scenario


def stats(n=8, p50=1.0, p95=2.0, mean=1.2):
    return ComponentStats(n=n, p50=p50, p95=p95, mean=mean)


EMPTY = ComponentStats(n=0, p50=None, p95=None, mean=None)


def target_of(**overrides):
    components = tuple(
        (c, overrides.get(c, stats())) for c in COMPONENTS
    )
    return TargetDecomposition(source="unit", apps=8, components=components)


class TestComponentError:
    def test_exact_match_is_zero(self):
        assert component_error(stats(), stats()) == 0.0

    def test_zero_vs_zero_is_zero(self):
        z = stats(p50=0.0, p95=0.0, mean=0.0)
        assert component_error(z, z) == 0.0

    def test_both_empty_is_free(self):
        assert component_error(EMPTY, EMPTY) == 0.0

    def test_one_sided_missing_penalised(self):
        assert component_error(EMPTY, stats()) == 1.0
        assert component_error(stats(), EMPTY) == 1.0

    def test_relative_error(self):
        # p50 off by 50%, p95 exact → mean of (0.5, 0.0).
        got = stats(p50=1.5, p95=2.0)
        assert component_error(stats(), got) == pytest.approx(0.25)

    def test_floor_damps_tiny_targets(self):
        # A 2 ms disagreement around a 1 ms target is scored against
        # the 50 ms floor, not the 1 ms denominator.
        t = stats(p50=0.001, p95=0.001)
        g = stats(p50=0.003, p95=0.001)
        assert component_error(t, g) == pytest.approx(0.5 * 0.002 / 0.05)


class TestWeightedError:
    def test_exact_decomposition_scores_zero(self):
        error, per_component = _weighted_error(
            target_of(), target_of(), DEFAULT_WEIGHTS
        )
        assert error == 0.0
        assert set(per_component) == set(COMPONENTS)
        assert all(v == 0.0 for v in per_component.values())

    def test_weights_focus_components(self):
        got = target_of(queue_wait_delay=stats(p50=2.0, p95=4.0))
        only_queue = {c: 1.0 if c == "queue_wait_delay" else 0.0 for c in COMPONENTS}
        only_ramp = {c: 1.0 if c == "ramp_delay" else 0.0 for c in COMPONENTS}
        e_queue, _ = _weighted_error(target_of(), got, only_queue)
        e_ramp, _ = _weighted_error(target_of(), got, only_ramp)
        assert e_queue == pytest.approx(1.0)  # p50 and p95 both 100% off
        assert e_ramp == 0.0

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="weights must sum > 0"):
            _weighted_error(target_of(), target_of(), {})


class TestPayloads:
    def test_target_round_trip(self):
        t = target_of(preemption_delay=EMPTY)
        assert TargetDecomposition.from_dict(t.to_dict()) == t

    def test_target_missing_component_rejected(self):
        payload = target_of().to_dict()
        del payload["components"]["ramp_delay"]
        with pytest.raises(ValueError, match="missing component"):
            TargetDecomposition.from_dict(payload)

    def test_target_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed target"):
            TargetDecomposition.from_dict({"source": "x"})

    def test_trial_round_trip(self):
        t = TrialResult(
            index=3,
            kind="random",
            overrides={"nm_heartbeat_s": 0.5},
            error=0.25,
            component_errors={c: 0.0 for c in COMPONENTS},
            decomposition=target_of().to_dict(),
        )
        assert TrialResult.from_dict(t.to_dict()) == t

    def test_failed_trial_round_trip(self):
        t = TrialResult(index=1, kind="grid", overrides={}, failure="boom")
        back = TrialResult.from_dict(t.to_dict())
        assert back.error is None and back.failure == "boom"

    def test_trial_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed trial"):
            TrialResult.from_dict({"kind": "grid"})


class TestApplyOverrides:
    def test_scheduler_knob_swaps_scheduler(self):
        base = get_scenario("diurnal-burst")
        variant = apply_overrides(base, {"scheduler": "opportunistic"})
        assert variant.scheduler == "opportunistic"
        assert variant.params == base.params
        assert variant.arrivals == base.arrivals

    def test_param_knobs_merge_on_top(self):
        base = get_scenario("diurnal-burst")
        variant = apply_overrides(base, {"nm_heartbeat_s": 0.5})
        assert variant.params["nm_heartbeat_s"] == 0.5
        for key, value in base.params.items():
            if key != "nm_heartbeat_s":
                assert variant.params[key] == value
        assert variant.scheduler == base.scheduler

    def test_empty_overrides_is_identity_point(self):
        base = get_scenario("diurnal-burst")
        variant = apply_overrides(base, {})
        assert variant.params == base.params
        assert variant.scheduler == base.scheduler

    def test_build_rejects_bogus_param_override(self):
        base = get_scenario("diurnal-burst")
        variant = apply_overrides(base, {"nm_hearbeat_s": 0.5})
        with pytest.raises((TypeError, ValueError)):
            variant.build(11)


class TestTrialDoesNoFilesystemIO:
    """A trial mines the in-memory store: no temp dir, no dumped file."""

    def test_trial_scores_with_the_filesystem_forbidden(self, monkeypatch):
        import tempfile
        from pathlib import Path

        from repro.calibrate import DEFAULT_WEIGHTS, self_target
        from repro.calibrate.objective import evaluate_candidate

        scenario = get_scenario("diurnal-burst")
        seed = scenario.default_seed
        target = self_target(scenario, seed)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("filesystem I/O inside a calibration trial")

        for name in ("TemporaryDirectory", "mkdtemp", "mkstemp", "NamedTemporaryFile"):
            monkeypatch.setattr(tempfile, name, forbidden)
        for name in ("write_text", "write_bytes", "mkdir", "open"):
            monkeypatch.setattr(Path, name, forbidden)
        trial = evaluate_candidate(scenario, {}, seed, target, DEFAULT_WEIGHTS)
        assert trial.failure is None
        assert trial.error == 0.0
