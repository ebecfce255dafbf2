"""Provider nameserver fleets.

A DPS provider's DNS is a single logical database served from many
nameserver identities announced over anycast (§V-A-1): every nameserver
can answer for every customer, and a query to one anycast address lands
on the PoP closest to the client.

:class:`NameserverFleet` models this: one backend
:class:`~repro.dns.authoritative.AuthoritativeServer` (the central
database), many nameserver hostnames each with an anycast address, and a
per-PoP :class:`PopMirror` wrapper that counts queries so experiments can
observe catchment behaviour (Fig. 7).  A PoP runs one mirror for the
whole fleet: every anycast address of the fleet lands on it.

Cloudflare-style ``[person name].ns.<provider domain>`` naming is
provided for the NS-rerouting fleet — the study extracted 391 such
nameservers (§V-A-1, footnote 12).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dns.authoritative import AnswerPolicy, AuthoritativeServer
from ..dns.name import DomainName
from ..net.anycast import AnycastNetwork
from ..net.fabric import NetworkFabric
from ..net.ipaddr import AddressAllocator, IPv4Address

__all__ = ["PopMirror", "NameserverFleet", "generate_person_names"]

#: Seed lists for Cloudflare-style nameserver naming.
_GIRL_NAMES = [
    "ada", "amy", "anna", "beth", "cara", "dana", "demi", "elle", "emma",
    "eva", "faye", "gina", "iris", "jane", "june", "kate", "kim", "lara",
    "lily", "lola", "lucy", "mary", "maya", "mia", "nina", "nora", "olga",
    "pam", "rita", "rosa", "ruth", "sara", "tess", "uma", "vera", "zoe",
]
_BOY_NAMES = [
    "abe", "alan", "ben", "carl", "dan", "drew", "earl", "eric", "finn",
    "fred", "gary", "glen", "hank", "hugo", "ian", "jack", "jake", "karl",
    "kurt", "leo", "liam", "luke", "marc", "max", "neil", "nick", "noah",
    "otto", "paul", "pete", "ray", "rob", "sam", "seth", "todd", "walt",
]


def generate_person_names(count: int) -> List[str]:
    """Generate ``count`` distinct person-style labels, deterministically.

    Cycles through the girl/boy name lists, appending a numeric suffix on
    later rounds (``kate``, ``kate2``, ``kate3`` …) the way providers
    extend a finite name pool.
    """
    base = []
    for girl, boy in zip(_GIRL_NAMES, _BOY_NAMES):
        base.extend((girl, boy))
    names: List[str] = []
    round_no = 0
    while len(names) < count:
        suffix = "" if round_no == 0 else str(round_no + 1)
        for name in base:
            names.append(name + suffix)
            if len(names) == count:
                break
        round_no += 1
    return names


class PopMirror:
    """One PoP's face of a shared nameserver backend.

    Forwards queries to the backend and counts them, so experiments can
    verify which PoPs absorbed a scanner's load.  One mirror serves all
    of a fleet's addresses at its PoP.
    """

    def __init__(self, backend: AuthoritativeServer, pop_id: str) -> None:
        self.backend = backend
        self.pop_id = pop_id
        self.queries_served = 0

    def handle_query(self, query, client_region=None):
        """Count and delegate to the shared backend."""
        self.queries_served += 1
        return self.backend.handle_query(query, client_region)


class NameserverFleet:
    """A set of anycast nameserver identities over one shared backend."""

    def __init__(
        self,
        provider_name: str,
        hostnames: List["DomainName | str"],
        fabric: NetworkFabric,
        allocator: AddressAllocator,
        anycast: Optional[AnycastNetwork] = None,
        policy: Optional[AnswerPolicy] = None,
    ) -> None:
        if not hostnames:
            raise ValueError("a fleet needs at least one nameserver hostname")
        self.provider_name = provider_name
        self.hostnames: List[DomainName] = [DomainName(h) for h in hostnames]
        self.anycast = anycast
        self.backend = AuthoritativeServer(self.hostnames[0], policy=policy)
        self._fabric = fabric
        #: One mirror per PoP, shared by every address of the fleet.
        self._mirrors: Dict[str, PopMirror] = (
            {pop.pop_id: PopMirror(self.backend, pop.pop_id) for pop in anycast.pops}
            if anycast is not None
            else {}
        )
        self.addresses: Dict[DomainName, IPv4Address] = {}
        for hostname in self.hostnames:
            ip = allocator.allocate_address()
            self.addresses[hostname] = ip
            if anycast is None:
                fabric.register_dns(ip, self.backend)
            else:
                fabric.register_dns_anycast(ip, anycast, self._mirrors)

    # -- lookups ---------------------------------------------------------

    def address_of(self, hostname: "DomainName | str") -> IPv4Address:
        """Anycast address of one nameserver identity."""
        return self.addresses[DomainName(hostname)]

    def all_addresses(self) -> List[IPv4Address]:
        """Every nameserver address in the fleet."""
        return [self.addresses[h] for h in self.hostnames]

    def pop_query_counts(self) -> Dict[str, int]:
        """Queries served per PoP, aggregated over the whole fleet."""
        return {pop_id: mirror.queries_served for pop_id, mirror in self._mirrors.items()}

    def __len__(self) -> int:
        return len(self.hostnames)
