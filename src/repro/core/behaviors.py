"""Usage-behaviour detection (Table IV, §IV-B-3).

Diffs the DPS observations of two consecutive collection days and emits
the behaviours of Table IV, including the compound transitions of the
FSM (Fig. 4) such as JOIN+PAUSE (NONE → OFF within one day).

Multi-CDN customers are filtered out first: a front-end like Cedexis
re-selects the member CDN dynamically, which day-over-day looks like
a provider switch almost every day and would swamp the SWITCH counts.
The filter flags any site whose observed provider changes on at least
``flip_threshold`` distinct day-pairs within the observation window —
how the paper's authors identified them operationally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..compat import SLOTS
from ..world.admin import BehaviorKind
from .collector import STATUSES, UNMEASURED, DayTable, series_hostnames
from .status import DpsStatus

__all__ = ["MeasuredBehavior", "BehaviorDetector", "MultiCdnFilter"]


@dataclass(frozen=True, **SLOTS)
class MeasuredBehavior:
    """One behaviour inferred from a day-over-day diff."""

    day: int
    www: str
    kind: BehaviorKind
    from_provider: Optional[str] = None
    to_provider: Optional[str] = None


#: A site's last measured verdict: ``(status, provider)``.
_Verdict = Tuple[str, Optional[str]]


class MultiCdnFilter:
    """Flags sites that flip providers too often to be real switchers."""

    def __init__(self, flip_threshold: int = 3) -> None:
        if flip_threshold < 1:
            raise ValueError("flip_threshold must be at least 1")
        self.flip_threshold = flip_threshold

    def flagged(self, days: Sequence[DayTable]) -> Set[str]:
        """Hostnames whose observed provider changed on >= threshold
        day-pairs across the window."""
        hostnames = series_hostnames(days)
        flips: Dict[int, int] = {}
        previous: Dict[int, str] = {}
        for table in days:
            current = {
                site: table.providers[code]
                for site, code in zip(table.site, table.provider)
                if code
            }
            for site, provider in current.items():
                if previous.get(site, provider) != provider:
                    flips[site] = flips.get(site, 0) + 1
            previous = current
        return {
            str(hostnames[site]) for site, count in flips.items()
            if count >= self.flip_threshold
        }


class BehaviorDetector:
    """Emits Table IV behaviours from consecutive observation days."""

    def __init__(self, excluded: Optional[Iterable[str]] = None) -> None:
        self._excluded: Set[str] = set(excluded or ())

    def diff_series(
        self, days: Sequence[DayTable], first_day: int = 1
    ) -> List[MeasuredBehavior]:
        """Behaviours across a whole daily series.

        UNMEASURED days are data holes, not observations: a site's last
        *measured* observation is carried forward and diffed against its
        next measured one, so a hole never reads as a LEAVE/JOIN pair.
        With no holes the output is the concatenation of the diffs of
        consecutive day pairs; a transition observed after a hole is
        attributed to the day it was observed on.
        """
        hostnames = series_hostnames(days)
        collected: List[MeasuredBehavior] = []
        carry: Dict[int, _Verdict] = {}
        for index, table in enumerate(days):
            today = _measured(table)
            for site, verdict in today.items():
                before = carry.get(site)  # always None on the first day
                if before is None or before == verdict:
                    continue  # nothing to diff against, or NULL
                www = str(hostnames[site])
                if www not in self._excluded:
                    day = first_day + index - 1
                    collected.extend(self._transition(www, before, verdict, day))
            carry.update(today)
        return collected

    # ------------------------------------------------------------------

    def _transition(
        self, www: str, prev: _Verdict, curr: _Verdict, day: int
    ) -> List[MeasuredBehavior]:
        def event(kind: BehaviorKind, **kw) -> MeasuredBehavior:
            return MeasuredBehavior(day=day, www=www, kind=kind, **kw)

        p_status, p_prov = prev
        c_status, c_prov = curr

        if p_status == c_status and p_prov == c_prov:
            return []  # NULL

        if p_status == DpsStatus.NONE:
            if c_status == DpsStatus.ON:
                return [event(BehaviorKind.JOIN, to_provider=c_prov)]
            if c_status == DpsStatus.OFF:
                # Joined and paused the same day (J+P in the FSM).
                return [
                    event(BehaviorKind.JOIN, to_provider=c_prov),
                    event(BehaviorKind.PAUSE, from_provider=c_prov),
                ]
            return []

        if c_status == DpsStatus.NONE:
            return [event(BehaviorKind.LEAVE, from_provider=p_prov)]

        # Both delegated from here on.
        if p_prov == c_prov:
            if p_status == DpsStatus.ON and c_status == DpsStatus.OFF:
                return [event(BehaviorKind.PAUSE, from_provider=p_prov)]
            if p_status == DpsStatus.OFF and c_status == DpsStatus.ON:
                return [event(BehaviorKind.RESUME, to_provider=c_prov)]
            return []

        # Provider changed: a switch, possibly compounded with a pause.
        events = [event(BehaviorKind.SWITCH, from_provider=p_prov, to_provider=c_prov)]
        if c_status == DpsStatus.OFF:
            events.append(event(BehaviorKind.PAUSE, from_provider=c_prov))
        return events

    # ------------------------------------------------------------------

    @staticmethod
    def daily_counts(
        behaviors: Iterable[MeasuredBehavior],
    ) -> Dict[int, Dict[BehaviorKind, int]]:
        """Behaviours per day per kind — the measured Fig. 3 series."""
        table: Dict[int, Dict[BehaviorKind, int]] = {}
        for behavior in behaviors:
            table.setdefault(behavior.day, {kind: 0 for kind in BehaviorKind})
            table[behavior.day][behavior.kind] += 1
        return table

    @staticmethod
    def average_per_day(
        behaviors: Iterable[MeasuredBehavior], num_days: int
    ) -> Dict[BehaviorKind, float]:
        """Average daily count per behaviour kind."""
        totals: Dict[BehaviorKind, int] = {kind: 0 for kind in BehaviorKind}
        for behavior in behaviors:
            totals[behavior.kind] += 1
        return {kind: totals[kind] / num_days for kind in totals}


def _measured(table: DayTable) -> Dict[int, _Verdict]:
    """Every measured row of ``table`` as ``{site: (status, provider)}``."""
    return {
        site: (STATUSES[status], table.providers[code])
        for site, status, code in zip(table.site, table.status, table.provider)
        if status != UNMEASURED
    }
