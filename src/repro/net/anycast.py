"""Anycast catchment model.

Cloudflare serves DNS from one address announced at 100+ PoPs; which
physical machine answers depends on where the client sits (§V-A-1).  The
paper exploits this to spread its scan load: five vantage points land in
five different catchments (Fig. 7).

:class:`AnycastNetwork` models the catchment as nearest-PoP-by-
great-circle-distance, which is the standard first-order approximation of
BGP anycast routing and preserves the property the experiment needs —
distinct, stable catchments for geographically distinct clients.

The PoPs are fixed at construction, so the catchment of every region in
:data:`~repro.net.geo.WELL_KNOWN_REGIONS` is computed once, there, into
a table; only a region outside that catalog pays the distance scan per
query.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError
from .geo import WELL_KNOWN_REGIONS, PointOfPresence, Region

__all__ = ["AnycastNetwork"]


class AnycastNetwork:
    """A set of PoPs reachable via one anycast address family.

    Parameters
    ----------
    name:
        Network label (e.g. ``"cloudflare-anycast"``).
    pops:
        The PoPs announcing the anycast prefixes.
    """

    def __init__(self, name: str, pops: Iterable[PointOfPresence]) -> None:
        self.name = name
        self._pops: List[PointOfPresence] = list(pops)
        if not self._pops:
            raise ConfigurationError(f"anycast network {name!r} needs at least one PoP")
        ids = [p.pop_id for p in self._pops]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate PoP ids in network {name!r}")
        #: Region name → (that region, its catchment PoP).
        self._table: Dict[str, Tuple[Region, PointOfPresence]] = {
            region.name: (region, self._nearest(region))
            for region in WELL_KNOWN_REGIONS.values()
        }

    @property
    def pops(self) -> Sequence[PointOfPresence]:
        """All PoPs in the network."""
        return tuple(self._pops)

    def catchment(self, client_region: Region) -> PointOfPresence:
        """The PoP that captures traffic from ``client_region``.

        Nearest-by-distance with deterministic tie-breaking on PoP id, so
        repeated queries from one region always land on the same PoP —
        the stability property the paper's load-spreading relies on.
        """
        entry = self._table.get(client_region.name)
        if entry is not None and entry[0] == client_region:
            return entry[1]
        return self._nearest(client_region)

    def _nearest(self, client_region: Region) -> PointOfPresence:
        return min(
            self._pops,
            key=lambda pop: (pop.distance_to(client_region), pop.pop_id),
        )

    def catchment_map(self, client_regions: Iterable[Region]) -> Dict[str, PointOfPresence]:
        """Map each client region name to its capturing PoP."""
        return {region.name: self.catchment(region) for region in client_regions}

    def distinct_catchments(self, client_regions: Iterable[Region]) -> int:
        """Number of distinct PoPs hit by the given client regions.

        The paper's five vantage points were chosen so this equals five
        for Cloudflare's network — each scanner talks to its own PoP.
        """
        return len({pop.pop_id for pop in self.catchment_map(client_regions).values()})

    def load_share(self, client_regions: Sequence[Region]) -> Dict[str, float]:
        """Fraction of clients captured per PoP id (PoPs with zero load omitted)."""
        counts: Dict[str, int] = {}
        regions = list(client_regions)
        for client in regions:
            pop = self.catchment(client)
            counts[pop.pop_id] = counts.get(pop.pop_id, 0) + 1
        total = len(regions)
        return {pop_id: count / total for pop_id, count in counts.items()}

    def __len__(self) -> int:
        return len(self._pops)
