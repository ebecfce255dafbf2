"""Report-layer regressions the sharded-merge audit surfaced.

Four bugs, one test class each:

* the weekly Cloudflare sweep silently dropped a scan week when the
  harvest was *empty* (only the resolve-failure path recorded the skip);
* ``adoption_growth`` stayed ``0.0`` forever when day 0 happened to
  have zero adopters, even if adoption then grew from a later baseline;
* the ground-truth event window included the final run-day's events —
  which no snapshot diff can ever observe — while the daily-average
  divisor assumed ``study_days - 1`` observable days;
* an empty population died in ``WorldConfig.scale_factor`` and a zero
  scan interval in ``scan_due``, while a negative study length ran and
  reported nothing — each is now refused where it is configured.
"""

import pytest

from repro.core.status import DpsObservation, DpsStatus
from repro.core.study import SixWeekStudy, StudyConfig, StudyReport
from repro.errors import ConfigurationError
from repro.world import SimulatedInternet, WorldConfig
from repro.world.admin import BehaviorEvent, BehaviorKind


def _small_world(**overrides) -> SimulatedInternet:
    defaults = dict(population_size=120, seed=17)
    defaults.update(overrides)
    return SimulatedInternet(WorldConfig(**defaults))


class TestSkippedScanWeekRecording:
    def test_empty_harvest_records_the_skip(self):
        """Scan day with nothing harvested: the week must appear in
        ``skipped_scan_weeks``, not silently vanish from the series."""
        world = _small_world()
        study = SixWeekStudy(
            world, StudyConfig(warmup_days=3, study_days=7)
        )
        runtime = study.begin()
        # No collection has run, so the harvest is empty — the state the
        # first scan day sees when no cloudflare delegation was observed.
        assert len(runtime.harvest) == 0
        study.scan_day(runtime)
        assert runtime.report.skipped_scan_weeks == [0]
        assert runtime.report.cloudflare_weekly == []

    def test_unresolvable_harvest_records_the_skip(self):
        """Harvested names that all fail to resolve are the *other*
        skip path; both must record the week."""
        world = _small_world()
        study = SixWeekStudy(
            world, StudyConfig(warmup_days=3, study_days=7)
        )
        runtime = study.begin()
        runtime.harvest.restore_state(
            ["ns1.no-such-provider.invalid", "ns2.no-such-provider.invalid"]
        )
        assert len(runtime.harvest) == 2
        study.scan_day(runtime)
        assert runtime.report.skipped_scan_weeks == [0]
        assert runtime.report.cloudflare_weekly == []


class TestAdoptionGrowthBaseline:
    def _analyse(self, adopted_per_day):
        """Run ``_analyse_adoption`` over a synthetic adoption series:
        one observation dict per day, ``n`` adopters each."""
        world = _small_world(population_size=40)
        study = SixWeekStudy(world)
        report = StudyReport(
            config=StudyConfig(), population_size=10, scale_factor=1.0
        )
        for day, adopted in enumerate(adopted_per_day):
            observations = {}
            for index in range(5):
                provider = "cloudflare" if index < adopted else None
                status = DpsStatus.ON if provider else DpsStatus.NONE
                observations[f"www.site{index}.test"] = DpsObservation(
                    www=f"www.site{index}.test",
                    day=day,
                    status=status,
                    provider=provider,
                )
            report.observations.append(observations)
        study._analyse_adoption(report)
        return report

    def test_growth_measured_from_first_nonzero_baseline(self):
        report = self._analyse([0, 2, 3])
        assert report.adoption_growth == pytest.approx((3 - 2) / 2)

    def test_growth_is_none_when_nothing_ever_adopted(self):
        report = self._analyse([0, 0, 0])
        assert report.adoption_growth is None

    def test_growth_against_day_zero_when_it_has_adopters(self):
        report = self._analyse([2, 2, 4])
        assert report.adoption_growth == pytest.approx((4 - 2) / 2)


class TestGroundTruthWindow:
    def test_window_pins_both_ends(self):
        """Only events a snapshot diff could observe belong to the
        ground truth: stamped on days ``[start, start + study_days - 1)``
        — warm-up events and final-run-day events are both out."""
        config = StudyConfig(
            warmup_days=4,
            study_days=4,
            run_usage_dynamics=False,
            run_residual_scans=False,
        )
        world = _small_world(population_size=60)
        study = SixWeekStudy(world, config)
        runtime = study.begin()
        start = runtime.study_start_day
        while not runtime.finished:
            study.run_day(runtime)
        # The world sits one day past the study; advance it further to
        # prove post-study dynamics cannot leak in either.
        world.engine.run_day()

        marker = "pinned.example"
        stamped_days = {
            "warmup-last": start - 1,          # before the window
            "first-study-day": start,          # first observable day
            "last-observable": start + config.study_days - 2,
            "final-run-day": start + config.study_days - 1,  # unobservable
            "post-study": start + config.study_days,
        }
        for label, day in stamped_days.items():
            world.engine.events.append(
                BehaviorEvent(
                    day=day,
                    website=f"{label}.{marker}",
                    kind=BehaviorKind.JOIN,
                )
            )
        report = study.finalise(runtime)
        pinned = sorted(
            event.website.split(".")[0]
            for event in report.ground_truth_events
            if event.website.endswith(marker)
        )
        assert pinned == ["first-study-day", "last-observable"]

    def test_window_matches_the_daily_average_divisor(self):
        """The window spans exactly the ``study_days - 1`` observable
        days the average divides by."""
        config = StudyConfig(warmup_days=2, study_days=5)
        start = 7  # arbitrary study start
        window_days = [
            day
            for day in range(start - 2, start + config.study_days + 2)
            if start <= day < start + config.study_days - 1
        ]
        report = StudyReport(
            config=config, population_size=1, scale_factor=1.0
        )
        report.ground_truth_events = [
            BehaviorEvent(day=day, website="w.test", kind=BehaviorKind.LEAVE)
            for day in window_days
        ]
        average = report.ground_truth_daily_average()
        assert len(window_days) == config.study_days - 1
        assert average[BehaviorKind.LEAVE] == pytest.approx(1.0)


class TestOutOfRangeConfigRefused:
    @pytest.mark.parametrize(
        "field, value",
        [("warmup_days", -1), ("study_days", -1), ("scan_every_days", 0)],
    )
    def test_study_lengths(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            StudyConfig(**{field: value})

    def test_zero_day_study_stays_valid(self):
        config = StudyConfig(warmup_days=0, study_days=0)
        assert config.study_days == 0

    @pytest.mark.parametrize("population", [0, -3])
    def test_empty_population(self, population):
        with pytest.raises(ConfigurationError, match="population must be >= 1"):
            WorldConfig(population_size=population)
