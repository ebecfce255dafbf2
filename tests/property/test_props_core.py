"""Property-based tests for measurement-core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.behaviors import BehaviorDetector
from repro.core.exposure import ExposureTimeline
from repro.core.fsm import DpsUsageFsm
from repro.core.pause import PauseAnalyzer, empirical_cdf
from repro.core.status import DpsObservation, DpsStatus
from repro.dps.scrubbing import ScrubbingCenter
from repro.net.traffic import TrafficFlow
from repro.world.admin import BehaviorKind

from ..tables import verdict_days

statuses = st.sampled_from(
    [
        (DpsStatus.NONE, None),
        (DpsStatus.ON, "cloudflare"),
        (DpsStatus.OFF, "cloudflare"),
        (DpsStatus.ON, "incapsula"),
        (DpsStatus.OFF, "incapsula"),
        (DpsStatus.ON, "fastly"),
    ]
)


def _obs(pair, day=0):
    status, provider = pair
    return DpsObservation(www="w", day=day, status=status, provider=provider)


class TestDetectorFsmAgreement:
    @given(statuses, statuses)
    def test_detector_matches_fsm_labels(self, prev, curr):
        detector = BehaviorDetector()
        measured = detector.diff_series(verdict_days({"w": prev}, {"w": curr}))
        assert tuple(b.kind for b in measured) == DpsUsageFsm.classify(
            _obs(prev), _obs(curr, 1)
        )

    @given(st.lists(statuses, min_size=2, max_size=12))
    @settings(max_examples=80)
    def test_every_observation_sequence_is_fsm_legal(self, sequence):
        observations = [_obs(pair, day) for day, pair in enumerate(sequence)]
        # Must not raise: any 3-status pair is a legal FSM edge.
        labels = DpsUsageFsm.validate_sequence(observations)
        assert len(labels) == len(sequence) - 1

    @given(st.lists(statuses, min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_behavior_conservation(self, sequence):
        """JOIN/LEAVE balance: a site observed NONE at both ends has
        equal JOINs and LEAVEs; differing ends differ by exactly one."""
        days = verdict_days(*({"w": pair} for pair in sequence))
        behaviors = BehaviorDetector().diff_series(days, first_day=1)
        joins = sum(1 for b in behaviors if b.kind is BehaviorKind.JOIN)
        leaves = sum(1 for b in behaviors if b.kind is BehaviorKind.LEAVE)
        start_none = sequence[0][0] == DpsStatus.NONE
        end_none = sequence[-1][0] == DpsStatus.NONE
        if start_none == end_none:
            assert joins == leaves
        else:
            assert abs(joins - leaves) == 1


class TestPauseProperties:
    pause_resume_days = st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 30)), min_size=0, max_size=8
    )

    @given(pause_resume_days)
    def test_durations_positive(self, pairs):
        from repro.core.behaviors import MeasuredBehavior
        behaviors = []
        day = 0
        for gap_before, duration in pairs:
            day += gap_before
            behaviors.append(
                MeasuredBehavior(day=day, www="w", kind=BehaviorKind.PAUSE,
                                 from_provider="cloudflare")
            )
            day += duration
            behaviors.append(
                MeasuredBehavior(day=day, www="w", kind=BehaviorKind.RESUME,
                                 to_provider="cloudflare")
            )
        windows = PauseAnalyzer().windows(behaviors)
        assert len(windows) == len(pairs)
        assert all(w.duration_days >= 1 for w in windows)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40))
    def test_cdf_invariants(self, durations):
        cdf = empirical_cdf(durations)
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(set(durations))
        assert all(0 < f <= 1 for f in fractions)
        assert fractions == sorted(fractions)
        assert abs(fractions[-1] - 1.0) < 1e-9


class TestExposureProperties:
    weekly_sets = st.lists(
        st.sets(st.sampled_from(["a", "b", "c", "d", "e"])), min_size=1, max_size=8
    )

    @given(weekly_sets)
    def test_partitions(self, weeks):
        timeline = ExposureTimeline()
        for week in weeks:
            timeline.record_week(week)
        summary = timeline.summary()
        # Newly-exposed counts partition the distinct set.
        assert sum(summary.new_per_week.values()) == summary.total_distinct
        # Always-exposed is a subset of every week.
        always = timeline.always_exposed()
        for week in weeks:
            assert always <= week
        # Bounded exposures never include week-0 or last-week sightings.
        bounded = timeline.bounded_exposures()
        if weeks:
            assert not (bounded & weeks[0])
            assert not (bounded & weeks[-1])


class TestScrubbingProperties:
    volumes = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

    @given(volumes, volumes)
    def test_scrubbing_never_amplifies(self, legit, attack):
        center = ScrubbingCenter("p", 100.0)
        report = center.scrub(TrafficFlow(legit, attack))
        assert report.forwarded.legitimate_gbps <= legit + 1e-9
        assert report.forwarded.attack_gbps <= attack + 1e-9
        assert 0.0 <= report.legitimate_survival <= 1.0 + 1e-9

    @given(volumes, volumes)
    def test_attack_accounting(self, legit, attack):
        center = ScrubbingCenter("p", 100.0)
        report = center.scrub(TrafficFlow(legit, attack))
        accounted = report.forwarded.attack_gbps + report.dropped_attack_gbps
        # Saturated centres also *drop* traffic indiscriminately, so
        # accounted attack never exceeds the offered attack.
        assert accounted <= attack + 1e-6
