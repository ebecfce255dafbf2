"""Hosting providers.

Every website lives somewhere when it is *not* behind a DPS: a hosting
provider owns its origin address space, runs shared authoritative
nameservers for customer zones, and registers the origin web server on
the network fabric.  Hosting ASes are what the RouteViews database maps
non-DPS addresses to, so A-matching correctly classifies an exposed
origin as "not a DPS address".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from ..dns.authoritative import AuthoritativeServer
from ..dns.name import DomainName
from ..dns.records import RecordType, cname_record, ns_record
from ..dns.root import DnsHierarchy
from ..dns.zone import Zone
from ..errors import SimulationError
from ..net.asn import AsRegistry
from ..net.fabric import NetworkFabric
from ..net.ipaddr import AddressAllocator, IPv4Address
from ..web.origin import OriginServer

__all__ = ["HostingProvider"]


class HostingProvider:
    """One web-hosting company: nameservers, address pool, origins."""

    def __init__(
        self,
        name: str,
        asn: int,
        fabric: NetworkFabric,
        hierarchy: DnsHierarchy,
        as_registry: AsRegistry,
        allocator: AddressAllocator,
        prefix_length: int = 16,
    ) -> None:
        self.name = name
        self._fabric = fabric
        self._hierarchy = hierarchy
        prefix = allocator.allocate_prefix(prefix_length)
        as_registry.register(asn, name, [prefix])
        self._pool = AddressAllocator(prefix)
        self.infra_domain = DomainName(f"{name}.net")
        self.ns_hostnames = [
            self.infra_domain.child("ns1"),
            self.infra_domain.child("ns2"),
        ]
        self.server = AuthoritativeServer(self.ns_hostnames[0])
        infra_zone = Zone(self.infra_domain, primary_ns=self.ns_hostnames[0])
        ns_ips: Dict[str, IPv4Address] = {}
        for host in self.ns_hostnames:
            ip = self._pool.allocate_address()
            infra_zone.set_a(host, ip, ttl=SECONDS_PER_DAY)
            fabric.register_dns(ip, self.server)
            ns_ips[str(host)] = ip
        self.server.host_zone(infra_zone)
        hierarchy.delegate_apex(self.infra_domain, self.ns_hostnames, glue=ns_ips)
        self._zones: Dict[DomainName, Zone] = {}

    # -- origin machines -----------------------------------------------------

    def allocate_origin_ip(self) -> IPv4Address:
        """Hand out a fresh origin address from the provider's pool."""
        return self._pool.allocate_address()

    def deploy_origin(self, origin: OriginServer) -> None:
        """Put an origin server on the network at its address."""
        self._fabric.register_http(origin.ip, origin)

    def retire_origin(self, origin: OriginServer) -> None:
        """Take an origin server off the network."""
        self._fabric.unregister_http(origin.ip)

    def register_alias(self, origin: OriginServer, ip: IPv4Address) -> None:
        """Serve the same origin from an additional address (round-robin
        DNS pools / multi-homed origins)."""
        self._fabric.register_http(ip, origin)

    def retire_alias(self, ip: IPv4Address) -> None:
        """Take one pool address off the network."""
        self._fabric.unregister_http(ip)

    def move_origin(self, origin: OriginServer, new_ip: Optional[IPv4Address] = None) -> IPv4Address:
        """Re-address an origin server (the IP-rotation practice)."""
        self._fabric.unregister_http(origin.ip)
        target = new_ip if new_ip is not None else self.allocate_origin_ip()
        origin.move_to(target)
        self._fabric.register_http(origin.ip, origin)
        return target

    # -- customer zones --------------------------------------------------------

    def host_zone(self, apex: "DomainName | str", www_ip: IPv4Address) -> Zone:
        """Create and serve a zone for a customer apex, delegated from
        the registry to this provider's nameservers."""
        apex_name = DomainName(apex)
        zone = Zone(apex_name, primary_ns=self.ns_hostnames[0])
        for ns_host in self.ns_hostnames:
            zone.add(ns_record(apex_name, ns_host))
        zone.set_a(apex_name, www_ip, ttl=SECONDS_PER_HOUR)
        zone.set_a(apex_name.child("www"), www_ip, ttl=SECONDS_PER_HOUR)
        self.server.host_zone(zone)
        self._zones[apex_name] = zone
        self._hierarchy.delegate_apex(apex_name, self.ns_hostnames)
        return zone

    def zone_of(self, apex: "DomainName | str") -> Zone:
        """The hosted zone for a customer apex."""
        try:
            return self._zones[DomainName(apex)]
        except KeyError:
            raise SimulationError(f"{apex} is not hosted at {self.name}") from None

    def delegate_apex_to(self, apex: "DomainName | str", nameservers) -> None:
        """Registrar action on the customer's behalf: delegate the apex
        to external nameservers (joining an NS-rerouting DPS)."""
        self._hierarchy.delegate_apex(DomainName(apex), nameservers)

    def redelegate_to_self(self, apex: "DomainName | str") -> None:
        """Point the registry delegation back at this provider's NS
        (the customer left an NS-rerouting DPS)."""
        self._hierarchy.delegate_apex(DomainName(apex), self.ns_hostnames)

    # -- www record manipulation (what site admins actually edit) ------------------
    # Each takes the www name the site holds; the apex is its parent.

    def set_www_a(self, www: DomainName, address: IPv4Address) -> None:
        """Point the www hostname (and apex) at an address."""
        apex = www.parent()
        zone = self.zone_of(apex)
        zone.remove_all(www, RecordType.CNAME)
        zone.set_a(www, address, ttl=SECONDS_PER_HOUR)
        zone.set_a(apex, address, ttl=SECONDS_PER_HOUR)

    def set_www_cname(self, www: DomainName, target: DomainName) -> None:
        """Point the www hostname at a canonical name (CNAME rerouting)."""
        zone = self.zone_of(www.parent())
        zone.remove_name(www)
        zone.add(cname_record(www, target, ttl=SECONDS_PER_HOUR))

    def remove_www(self, www: DomainName) -> None:
        """Drop the www records entirely (the site going dark)."""
        apex = www.parent()
        zone = self.zone_of(apex)
        zone.remove_name(www)
        zone.remove_all(apex, RecordType.A)
