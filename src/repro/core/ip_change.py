"""Origin-IP unchanged-rate experiment (Table V, §IV-C-3).

Best practice says: after joining or resuming a DPS, assign the origin a
*new* address, or the previously-exposed one remains a valid attack
target.  The experiment checks compliance:

1. for each measured JOIN/RESUME, take the addresses the site resolved
   to *before* the action (IP1 — typically the origin, since status was
   NONE or OFF);
2. take the addresses after the action (IP2 — DPS edges);
3. HTML-verify each (IP2, IP1) pair; a match means the origin still
   answers on the old address — "IP unchanged".

Counts are per provider; the verification step under-counts (dynamic
meta, firewalled origins), so measured rates are lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..world.admin import BehaviorKind
from .behaviors import MeasuredBehavior
from .collector import DayTable, series_hostnames
from .htmlverify import HtmlVerifier

__all__ = ["IpUnchangedRow", "IpChangeExperiment"]


@dataclass
class IpUnchangedRow:
    """One provider's row of Table V."""

    provider: str
    join_resume: int = 0
    unchanged: int = 0

    @property
    def percentage(self) -> float:
        """Unchanged rate (0 when no events observed)."""
        if self.join_resume == 0:
            return 0.0
        return self.unchanged / self.join_resume


@dataclass
class IpChangeResult:
    """The full Table V: per-provider rows plus the total."""

    rows: Dict[str, IpUnchangedRow] = field(default_factory=dict)

    def row(self, provider: str) -> IpUnchangedRow:
        return self.rows.setdefault(provider, IpUnchangedRow(provider))

    @property
    def total(self) -> IpUnchangedRow:
        """The aggregate row."""
        total = IpUnchangedRow("total")
        for row in self.rows.values():
            total.join_resume += row.join_resume
            total.unchanged += row.unchanged
        return total


class IpChangeExperiment:
    """Runs the Table V measurement over behaviours and day tables."""

    def __init__(self, verifier: HtmlVerifier) -> None:
        self._verifier = verifier

    def run(
        self,
        behaviors: Iterable[MeasuredBehavior],
        days: Sequence[DayTable],
        first_day: int = 0,
    ) -> IpChangeResult:
        """Evaluate every JOIN and RESUME (SWITCH excluded, §IV-C-3).

        ``days[i]`` must be the collection for day ``first_day+i``.
        """
        by_day = {table.day: table for table in days}
        sites = {str(www): site for site, www in enumerate(series_hostnames(days))}
        result = IpChangeResult()
        for behavior in behaviors:
            if behavior.kind not in (BehaviorKind.JOIN, BehaviorKind.RESUME):
                continue
            provider = behavior.to_provider
            if provider is None:
                continue
            before = by_day.get(behavior.day - 1)
            after = by_day.get(behavior.day)
            site = sites.get(behavior.www)
            if before is None or after is None or site is None:
                continue
            prior, current = before.row_of_site(site), after.row_of_site(site)
            if prior is None or current is None or not before.addresses_of(prior):
                continue
            row = result.row(provider)
            row.join_resume += 1
            edge_ips = after.addresses_of(current)
            if self._ip_unchanged(behavior.www, edge_ips, before.addresses_of(prior)):
                row.unchanged += 1
        return result

    def _ip_unchanged(
        self,
        www: str,
        edge_ips: Sequence,
        prior_ips: Sequence,
    ) -> bool:
        for edge_ip in edge_ips:
            for prior_ip in prior_ips:
                outcome = self._verifier.verify(www, edge_ip, prior_ip)
                if outcome.verified:
                    return True
        return False
