"""Statistics helpers for calibration analysis.

Measurement counts in this study are Poisson/binomial at heart; judging
"did we reproduce the paper's number?" needs noise-aware comparisons,
not equality.  This module provides the small toolbox the benches and
the calibration report use: Wilson intervals for proportions, Poisson
bands for counts, and z-scores against targets.

Implemented from first principles (no scipy dependency) and tested
property-style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "wilson_interval",
    "poisson_interval",
    "count_zscore",
    "proportion_zscore",
    "CalibrationCheck",
]

_Z95 = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sensibly at small n and extreme proportions, unlike the
    normal approximation.  Returns (low, high); (0, 1) when trials = 0.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid binomial counts: {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    # Guard against floating-point loss pushing the bound past p itself.
    return (min(low, p), max(high, p))


def poisson_interval(count: int, z: float = _Z95) -> Tuple[float, float]:
    """Approximate central interval for a Poisson mean given one count.

    Uses the square-root (variance-stabilising) transform, which is
    accurate enough for calibration bands and exact at large counts.
    """
    if count < 0:
        raise ValueError(f"negative count: {count}")
    root = math.sqrt(count)
    low = max(0.0, root - z / 2) ** 2
    high = (root + z / 2) ** 2
    return (low, high)


def count_zscore(observed: int, expected: float) -> float:
    """How many Poisson standard deviations ``observed`` sits from
    ``expected``.  Zero expectation with zero observed is a perfect 0."""
    if expected < 0:
        raise ValueError(f"negative expectation: {expected}")
    if expected == 0:
        return 0.0 if observed == 0 else math.inf
    return (observed - expected) / math.sqrt(expected)


def proportion_zscore(successes: int, trials: int, target: float) -> float:
    """z-score of an observed proportion against a target proportion."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target out of range: {target}")
    if trials == 0:
        return 0.0
    se = math.sqrt(max(target * (1 - target), 1e-12) / trials)
    return (successes / trials - target) / se


@dataclass(frozen=True)
class CalibrationCheck:
    """One measured-vs-paper comparison with its noise-aware verdict."""

    name: str
    paper: float
    measured: float
    zscore: float

    @property
    def within_noise(self) -> bool:
        """True when the deviation is within ±3σ."""
        return abs(self.zscore) <= 3.0
