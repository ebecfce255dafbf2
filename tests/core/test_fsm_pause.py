"""Tests for the usage FSM (Fig. 4) and the pause analysis (Fig. 5)."""

import pytest

from repro.core.behaviors import BehaviorDetector, MeasuredBehavior
from repro.core.fsm import DpsUsageFsm, FsmState
from repro.core.pause import PauseAnalyzer, empirical_cdf
from repro.core.status import DpsObservation, DpsStatus
from repro.errors import MeasurementError
from repro.world.admin import BehaviorKind

from ..tables import verdict_days


def _obs(status, provider=None, www="w", day=0):
    return DpsObservation(www=www, day=day, status=status, provider=provider)


class TestFsmStates:
    def test_none_state_has_no_provider(self):
        with pytest.raises(MeasurementError):
            FsmState(DpsStatus.NONE, "P1")

    def test_on_state_requires_provider(self):
        with pytest.raises(MeasurementError):
            FsmState(DpsStatus.ON, None)

    def test_state_of_observation(self):
        assert DpsUsageFsm.state_of(_obs(DpsStatus.NONE)) == FsmState(DpsStatus.NONE, None)
        assert DpsUsageFsm.state_of(_obs(DpsStatus.ON, "cf")) == FsmState(DpsStatus.ON, "P1")


class TestFsmClassification:
    @pytest.mark.parametrize(
        "prev,curr,label",
        [
            ((DpsStatus.NONE, None), (DpsStatus.ON, "a"), (BehaviorKind.JOIN,)),
            ((DpsStatus.NONE, None), (DpsStatus.OFF, "a"),
             (BehaviorKind.JOIN, BehaviorKind.PAUSE)),
            ((DpsStatus.ON, "a"), (DpsStatus.NONE, None), (BehaviorKind.LEAVE,)),
            ((DpsStatus.ON, "a"), (DpsStatus.OFF, "a"), (BehaviorKind.PAUSE,)),
            ((DpsStatus.OFF, "a"), (DpsStatus.ON, "a"), (BehaviorKind.RESUME,)),
            ((DpsStatus.ON, "a"), (DpsStatus.ON, "b"), (BehaviorKind.SWITCH,)),
            ((DpsStatus.ON, "a"), (DpsStatus.OFF, "b"),
             (BehaviorKind.SWITCH, BehaviorKind.PAUSE)),
            ((DpsStatus.ON, "a"), (DpsStatus.ON, "a"), ()),
        ],
    )
    def test_edge_labels(self, prev, curr, label):
        assert DpsUsageFsm.classify(_obs(*prev), _obs(*curr)) == label

    def test_fsm_agrees_with_detector(self):
        """Every detector output must match the FSM edge label."""
        statuses = [
            (DpsStatus.NONE, None),
            (DpsStatus.ON, "a"), (DpsStatus.OFF, "a"),
            (DpsStatus.ON, "b"), (DpsStatus.OFF, "b"),
        ]
        detector = BehaviorDetector()
        for prev in statuses:
            for curr in statuses:
                measured = detector.diff_series(verdict_days({"w": prev}, {"w": curr}))
                assert tuple(b.kind for b in measured) == DpsUsageFsm.classify(
                    _obs(*prev), _obs(*curr)
                )

    def test_validate_sequence(self):
        sequence = [
            _obs(DpsStatus.NONE, day=0),
            _obs(DpsStatus.ON, "a", day=1),
            _obs(DpsStatus.OFF, "a", day=2),
            _obs(DpsStatus.ON, "a", day=3),
            _obs(DpsStatus.NONE, day=4),
        ]
        labels = DpsUsageFsm.validate_sequence(sequence)
        assert labels == [
            (BehaviorKind.JOIN,),
            (BehaviorKind.PAUSE,),
            (BehaviorKind.RESUME,),
            (BehaviorKind.LEAVE,),
        ]

    def test_validate_sequence_rejects_mixed_sites(self):
        with pytest.raises(MeasurementError):
            DpsUsageFsm.validate_sequence(
                [_obs(DpsStatus.NONE, www="a"), _obs(DpsStatus.NONE, www="b")]
            )


def _behavior(kind, day, www="w", from_provider=None, to_provider=None):
    return MeasuredBehavior(
        day=day, www=www, kind=kind,
        from_provider=from_provider, to_provider=to_provider,
    )


class TestPauseAnalyzer:
    def test_pairs_pause_with_next_resume(self):
        behaviors = [
            _behavior(BehaviorKind.PAUSE, 3, from_provider="cloudflare"),
            _behavior(BehaviorKind.RESUME, 8, to_provider="cloudflare"),
        ]
        [window] = PauseAnalyzer().windows(behaviors)
        assert window.duration_days == 5
        assert window.same_provider

    def test_unpaired_pause_produces_no_window(self):
        behaviors = [_behavior(BehaviorKind.PAUSE, 3, from_provider="cloudflare")]
        assert PauseAnalyzer().windows(behaviors) == []

    def test_multiple_windows_per_site(self):
        behaviors = [
            _behavior(BehaviorKind.PAUSE, 1, from_provider="cloudflare"),
            _behavior(BehaviorKind.RESUME, 2, to_provider="cloudflare"),
            _behavior(BehaviorKind.PAUSE, 5, from_provider="cloudflare"),
            _behavior(BehaviorKind.RESUME, 12, to_provider="cloudflare"),
        ]
        windows = PauseAnalyzer().windows(behaviors)
        assert sorted(w.duration_days for w in windows) == [1, 7]

    def test_cross_provider_window_in_overall_only(self):
        behaviors = [
            _behavior(BehaviorKind.PAUSE, 1, from_provider="cloudflare"),
            _behavior(BehaviorKind.RESUME, 4, to_provider="incapsula"),
        ]
        analyzer = PauseAnalyzer()
        assert analyzer.durations(behaviors) == [3]  # overall includes it
        assert analyzer.durations(behaviors, provider="cloudflare") == []
        assert analyzer.durations(behaviors, provider="incapsula") == []

    def test_out_of_order_events_sorted(self):
        behaviors = [
            _behavior(BehaviorKind.RESUME, 9, to_provider="cloudflare"),
            _behavior(BehaviorKind.PAUSE, 2, from_provider="cloudflare"),
        ]
        [window] = PauseAnalyzer().windows(behaviors)
        assert window.duration_days == 7

    def test_fraction_longer_than(self):
        durations = [1, 1, 2, 6, 10]
        assert PauseAnalyzer.fraction_longer_than(durations, 5) == pytest.approx(0.4)
        assert PauseAnalyzer.fraction_longer_than([], 5) == 0.0


class TestEmpiricalCdf:
    def test_monotone_and_ends_at_one(self):
        cdf = empirical_cdf([3, 1, 2, 2, 5])
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_duplicate_values_collapse(self):
        cdf = empirical_cdf([1, 1, 1])
        assert cdf == [(1, 1.0)]

    def test_empty(self):
        assert empirical_cdf([]) == []

    def test_step_fractions(self):
        cdf = empirical_cdf([1, 2, 3, 4])
        assert cdf == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]
