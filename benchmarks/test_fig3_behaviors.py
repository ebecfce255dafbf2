"""E2 — Fig. 3: daily usage behaviours.

Paper averages per day (top 1M): 195 JOIN, 145 LEAVE, 87 PAUSE,
62 RESUME, 21 SWITCH; JOIN > LEAVE (growth), PAUSE > RESUME, SWITCH rarest.
"""

from repro.core.behaviors import BehaviorDetector
from repro.core.report import render_fig3_behaviors
from repro.world.admin import BehaviorKind


def test_fig3_behavior_shape(study):
    averages = study.behavior_averages
    scaled = {k: v * study.scale_factor for k, v in averages.items()}
    days = study.config.study_days - 1
    counts = {k: v * days for k, v in averages.items()}

    def exceeds(a: BehaviorKind, b: BehaviorKind) -> bool:
        # a > b within Poisson noise of the raw event counts.
        return counts[a] > counts[b] - 2 * (counts[b] + 1) ** 0.5

    # Ordering shape from the paper.
    assert exceeds(BehaviorKind.JOIN, BehaviorKind.PAUSE)
    assert exceeds(BehaviorKind.PAUSE, BehaviorKind.RESUME)
    assert exceeds(BehaviorKind.RESUME, BehaviorKind.SWITCH)
    assert exceeds(BehaviorKind.JOIN, BehaviorKind.LEAVE)

    # Magnitudes within a factor-2 band plus Poisson slack.
    paper = {
        BehaviorKind.JOIN: 195, BehaviorKind.LEAVE: 145,
        BehaviorKind.PAUSE: 87, BehaviorKind.RESUME: 62,
        BehaviorKind.SWITCH: 21,
    }
    for kind, target in paper.items():
        expected_count = target / study.scale_factor * days
        slack = 2.5 * (expected_count + 1) ** 0.5 * study.scale_factor / days
        assert target / 2 - slack < scaled[kind] < target * 2 + slack, (
            kind, scaled[kind],
        )
    print()
    print(render_fig3_behaviors(study))


def test_fig3_diffing_benchmark(benchmark, study):
    """Time the day-over-day behaviour diffing over the whole series."""
    detector = BehaviorDetector(excluded=study.multicdn_flagged)

    def diff():
        return detector.diff_series(study.days, first_day=1)

    behaviors = benchmark(diff)
    assert behaviors
