"""The hidden-record filter pipeline (Fig. 8, §V-A-2).

Records retrieved directly from a DPS provider's nameservers pass
through three filters:

1. **IP-matching filter** — drop answers inside the scanned provider's
   own ranges: those sites are under its protection right now, so there
   is no residual resolution to speak of.
2. **A-matching filter** — resolve each site normally and drop answers
   that are publicly visible anyway.  What survives is a *hidden
   record*: retrievable only from the DPS nameservers.
3. **HTML-verification filter** — a hidden record is exploitable only
   if its address still points at the live origin; verify by comparing
   the page served through the site's *current* public address with the
   page at the hidden address.

The same pipeline serves both the Cloudflare and Incapsula case studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..compat import SLOTS
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..dns.resolver import RecursiveResolver
from ..net.ipaddr import IPv4Address, IPv4Prefix
from .htmlverify import HtmlVerifier

__all__ = ["RetrievedRecord", "HiddenRecord", "PipelineReport", "FilterPipeline"]


@dataclass(frozen=True, **SLOTS)
class RetrievedRecord:
    """One record pulled straight from a DPS provider's nameservers."""

    www: str
    provider: str
    addresses: tuple
    #: CNAME canonical name the record was retrieved through, if any
    #: (Incapsula-style scans).
    canonical: Optional[str] = None


@dataclass(frozen=True, **SLOTS)
class HiddenRecord:
    """A record visible only via the DPS nameservers, with its verdict."""

    www: str
    provider: str
    address: IPv4Address
    verified_origin: bool
    reason: str


@dataclass
class PipelineReport:
    """Counts at every pipeline stage, plus the surviving records."""

    provider: str
    week: int
    retrieved: int = 0
    dropped_ip_filter: int = 0
    dropped_a_filter: int = 0
    hidden: List[HiddenRecord] = field(default_factory=list)

    @property
    def hidden_count(self) -> int:
        """Hidden records found this run."""
        return len(self.hidden)

    @property
    def verified_count(self) -> int:
        """Hidden records confirmed to point at live origins."""
        return sum(1 for record in self.hidden if record.verified_origin)

    @property
    def verified_fraction(self) -> float:
        """Verified origins as a fraction of hidden records."""
        if not self.hidden:
            return 0.0
        return self.verified_count / len(self.hidden)

    def verified_websites(self) -> List[str]:
        """Hostnames with a verified exposed origin (Fig. 9 tracking)."""
        return sorted({r.www for r in self.hidden if r.verified_origin})

    def hidden_websites(self) -> List[str]:
        """Hostnames with at least one hidden record."""
        return sorted({r.www for r in self.hidden})


class FilterPipeline:
    """Runs the three Fig. 8 filters over retrieved records."""

    def __init__(
        self,
        provider_prefixes: Sequence["IPv4Prefix | str"],
        resolver: RecursiveResolver,
        verifier: HtmlVerifier,
    ) -> None:
        self._provider_prefixes = [IPv4Prefix(p) for p in provider_prefixes]
        self._resolver = resolver
        self._verifier = verifier

    def state_dict(self) -> Dict[str, object]:
        """Persistent mutable state — the pipeline's private resolver.

        The verifier is deliberately excluded: one
        :class:`~repro.core.htmlverify.HtmlVerifier` is shared across
        pipelines, so its state is captured once by the owner (the
        study runtime), not once per pipeline.
        """
        return {"resolver": self._resolver.state_dict()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self._resolver.restore_state(state["resolver"])

    def run(
        self,
        records: Iterable[RetrievedRecord],
        provider: str,
        week: int,
    ) -> PipelineReport:
        """Filter one scan's worth of retrieved records.

        A record's addresses are deduplicated (order-preservingly)
        before any stage counts them, so a provider answering with a
        repeated address cannot inflate ``retrieved`` or emit duplicate
        :class:`HiddenRecord`\\ s for one (www, address) pair.  The
        A-matching stage resolves every surviving hostname in one
        :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many` batch.
        """
        report = PipelineReport(provider=provider, week=week)
        self._resolver.purge_cache()

        # Stage 1 over every record, remembering the survivors so stage
        # 2 can resolve all hostnames that still matter as one batch.
        filtered: List[Tuple[RetrievedRecord, List[IPv4Address]]] = []
        need_normal: List[str] = []
        queued: Set[str] = set()
        for record in records:
            addresses = list(
                dict.fromkeys(IPv4Address(a) for a in record.addresses)
            )
            report.retrieved += len(addresses)
            survivors = self._ip_matching_filter(addresses)
            report.dropped_ip_filter += len(addresses) - len(survivors)
            if not survivors:
                continue
            filtered.append((record, survivors))
            if record.www not in queued:
                queued.add(record.www)
                need_normal.append(record.www)

        # Stage 2: one batched normal-resolution pass (first occurrence
        # order, so the query sequence matches the old lazy behaviour).
        normal_results = self._resolver.resolve_many(
            (DomainName(www), RecordType.A) for www in need_normal
        )
        normal_cache: Dict[str, tuple] = {
            www: tuple(result.addresses)
            for www, result in zip(need_normal, normal_results)
        }

        for record, survivors in filtered:
            normal = normal_cache[record.www]
            hidden_ips = [ip for ip in survivors if ip not in normal]
            report.dropped_a_filter += len(survivors) - len(hidden_ips)
            for address in hidden_ips:
                report.hidden.append(
                    self._verify(record.www, address, normal, provider)
                )
        return report

    # -- stage 1 -----------------------------------------------------------

    def _ip_matching_filter(self, addresses: Sequence) -> List[IPv4Address]:
        return [
            IPv4Address(a)
            for a in addresses
            if not any(IPv4Address(a) in p for p in self._provider_prefixes)
        ]

    # -- stage 3 -----------------------------------------------------------

    def _verify(
        self, www: str, address: IPv4Address, normal: tuple, provider: str
    ) -> HiddenRecord:
        if not normal:
            # The site no longer resolves publicly; nothing to compare
            # against — unverifiable (and the site is likely gone).
            return HiddenRecord(www, provider, address, False, "no-public-resolution")
        outcome = self._verifier.verify(www, normal[0], address)
        return HiddenRecord(www, provider, address, outcome.verified, outcome.reason)
