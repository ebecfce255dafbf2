"""Ranked website population generator.

Synthesises an Alexa-style top-N list: pronounceable apex domains over a
weighted TLD mix, each with a hosting provider, an origin server with a
distinctive landing page, and a hosted zone.  Initial DPS adoption is
rank-dependent to reproduce the paper's finding that popular sites adopt
far more (38.98% in the top 10k vs 14.85% overall, §IV-B-2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dps.catalog import ProviderSpec
from ..dps.multicdn import MultiCdnService
from ..dps.provider import DpsProvider
from ..rng import SeededRng
from ..web.origin import OriginServer
from .admin import AdminBehaviorModel
from .config import WorldConfig
from .hosting import HostingProvider
from .website import Website

__all__ = ["PopulationBuilder", "TLD_WEIGHTS"]

#: TLD mix for generated apexes (weights roughly follow the real top-1M).
TLD_WEIGHTS: Dict[str, float] = {
    "com": 0.60,
    "net": 0.12,
    "org": 0.10,
    "io": 0.08,
    "co": 0.05,
    "info": 0.03,
    "biz": 0.02,
}

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


class PopulationBuilder:
    """Builds the website population and applies initial DPS adoption."""

    def __init__(
        self,
        config: WorldConfig,
        hosting_providers: List[HostingProvider],
        providers: Dict[str, DpsProvider],
        specs: List[ProviderSpec],
        admin: AdminBehaviorModel,
        rng: SeededRng,
        multicdn: Optional[MultiCdnService] = None,
    ) -> None:
        self.config = config
        self.hosting_providers = hosting_providers
        self.providers = providers
        self.specs = {spec.name: spec for spec in specs}
        self.admin = admin
        self.multicdn = multicdn
        self._rng = rng

    # ------------------------------------------------------------------

    def _domain_for_rank(self, rank: int) -> str:
        rng = self._rng
        syllables = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(2, 3))
        )
        tld = rng.weighted_choice(list(TLD_WEIGHTS), list(TLD_WEIGHTS.values()))
        return f"{syllables}{rank}.{tld}"

    def _rest_adoption_rate(self) -> float:
        cfg = self.config
        rest_fraction = 1.0 - cfg.top_sites_fraction
        rate = (
            cfg.overall_adoption - cfg.top_sites_fraction * cfg.top_sites_adoption
        ) / rest_fraction
        return max(0.0, min(1.0, rate))

    def build(self) -> List[Website]:
        """Create the full ranked population.

        Adoption is *stratified*: each tier (top sites / the rest) gets
        exactly its calibrated share of adopters, sampled uniformly, so
        small populations still match the paper's 38.98% / 14.85% rates
        instead of drifting with Bernoulli noise.
        """
        cfg = self.config
        rest_rate = self._rest_adoption_rate()
        top_cutoff = max(1, int(cfg.population_size * cfg.top_sites_fraction))
        population: List[Website] = []
        top_candidates: List[Website] = []
        rest_candidates: List[Website] = []
        for rank in range(1, cfg.population_size + 1):
            site = self._build_site(rank)
            population.append(site)
            if site.multicdn:
                self._enroll_multicdn(site)
                continue
            if rank <= top_cutoff:
                top_candidates.append(site)
            else:
                rest_candidates.append(site)
        for candidates, rate in (
            (top_candidates, cfg.top_sites_adoption),
            (rest_candidates, rest_rate),
        ):
            count = round(len(candidates) * rate)
            for site in self._rng.sample(candidates, count):
                spec = self.admin.choose_provider()
                rerouting, plan = self.admin.choose_enrollment(spec)
                site.join(self.providers[spec.name], rerouting, plan)
        return population

    def _build_site(self, rank: int) -> Website:
        hosting = self.hosting_providers[rank % len(self.hosting_providers)]
        apex = self._domain_for_rank(rank)
        origin_ip = hosting.allocate_origin_ip()
        dynamic = self._rng.bernoulli(self.config.dynamic_meta_fraction)
        # No document: the origin renders the default page on first request.
        origin = OriginServer(
            apex,
            origin_ip,
            dynamic_meta_keys=("csrf-token",) if dynamic else (),
            rank=rank,
        )
        hosting.deploy_origin(origin)
        zone = hosting.host_zone(apex, origin_ip)
        site = Website(
            rank=rank,
            apex=apex,
            hosting=hosting,
            origin=origin,
            dynamic_meta=dynamic,
            firewall_inclined=self._rng.bernoulli(self.config.firewall_fraction),
            multicdn=(
                self.multicdn is not None
                and self._rng.bernoulli(self.config.multicdn_fraction)
            ),
            has_dev_subdomain=self._rng.bernoulli(self.config.subdomain_leak_fraction),
            has_mx_leak=self._rng.bernoulli(self.config.mx_leak_fraction),
            leak_label=self._rng.choice(
                ["dev", "staging", "test", "ftp", "cpanel", "origin"]
            ),
        )
        # Table I leak records live in the hosting zone from day one.
        for record in site.leak_records():
            zone.add(record)
        # Multi-homed round-robin origins (see WorldConfig).
        if self._rng.bernoulli(self.config.rotating_origin_fraction):
            for _ in range(self.config.origin_pool_size - 1):
                alias = hosting.allocate_origin_ip()
                hosting.register_alias(origin, alias)
                site.origin_pool.append(alias)
        return site

    def _enroll_multicdn(self, site: Website) -> None:
        """Onboard a multi-CDN site at every member platform.

        The event engine flips its CNAME among the members daily; the
        behaviour detector must filter these sites out (§IV-B-3).
        """
        assert self.multicdn is not None
        self.multicdn.enroll(site.www)
        canonical_by_member: Dict[str, object] = {}
        for member in self.multicdn.members:
            provider = self.providers[member]
            instructions = provider.onboard(
                site.www,
                site.origin.ip,
                rerouting=self.specs[member].rerouting_methods[-1],
            )
            canonical_by_member[member] = instructions.cname
        site.multicdn_canonicals = canonical_by_member  # type: ignore[attr-defined]
        first = self.multicdn.provider_for(site.www, day=0)
        site.hosting.set_www_cname(site.www, canonical_by_member[first])
