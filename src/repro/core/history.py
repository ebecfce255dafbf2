"""Passive-DNS / IP-history database.

The first origin-exposure vector of Table I: *"Historical DNS record
databases may contain possible origin IP addresses."*  Commercial
passive-DNS services aggregate resolutions observed before a site moved
behind a DPS; an attacker replays that history looking for pre-DPS
origin addresses.

:class:`PassiveDnsDb` plays that role for the simulation: it ingests
daily collection snapshots (as a passive sensor would) and answers
history queries.  ``candidate_origins`` returns historical addresses
outside every studied provider's ranges — the attacker's shortlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dns.name import DomainName
from ..net.ipaddr import IPv4Address
from .collector import DayTable
from .matching import ProviderMatcher

__all__ = ["HistoryEntry", "PassiveDnsDb"]


@dataclass(frozen=True)
class HistoryEntry:
    """One observed resolution: day and the answer set."""

    day: int
    addresses: Tuple[IPv4Address, ...]


class PassiveDnsDb:
    """Accumulates observed resolutions per hostname."""

    def __init__(self) -> None:
        self._history: Dict[str, List[HistoryEntry]] = {}
        self.observations = 0

    # -- ingestion -------------------------------------------------------

    def observe(self, snapshot: DayTable) -> None:
        """Record one day's resolutions (deduplicating repeats)."""
        for domain in snapshot:
            if not domain.a_records:
                continue
            entries = self._history.setdefault(str(domain.www), [])
            addresses = tuple(domain.a_records)
            if entries and entries[-1].addresses == addresses:
                continue  # unchanged since last observation
            entries.append(HistoryEntry(day=domain.day, addresses=addresses))
            self.observations += 1

    # -- queries ------------------------------------------------------------

    def history(self, www: "DomainName | str") -> List[HistoryEntry]:
        """Every recorded change-point for a hostname, oldest first."""
        return list(self._history.get(str(DomainName(www)), []))

    def first_seen(self, www: "DomainName | str") -> Optional[HistoryEntry]:
        """The oldest observation, if any."""
        entries = self._history.get(str(DomainName(www)))
        return entries[0] if entries else None

    def candidate_origins(
        self,
        www: "DomainName | str",
        matcher: ProviderMatcher,
        before_day: Optional[int] = None,
    ) -> List[IPv4Address]:
        """Historical non-DPS addresses — the IP-history attack vector.

        ``before_day`` restricts to observations strictly before a day
        (e.g. before the site joined its current DPS).
        """
        seen: List[IPv4Address] = []
        for entry in self._history.get(str(DomainName(www)), []):
            if before_day is not None and entry.day >= before_day:
                continue
            for address in entry.addresses:
                if matcher.in_provider_ranges(address):
                    continue
                if address not in seen:
                    seen.append(address)
        return seen

    def __len__(self) -> int:
        """Hostnames with recorded history."""
        return len(self._history)
