"""Network fabric: delivers messages to the server owning an IP address.

The fabric is the simulation's data plane.  DNS servers and HTTP
listeners register under the addresses they serve; resolvers and HTTP
clients ask the fabric which handler owns a destination address.  Anycast
addresses register a whole PoP fleet at once, and lookups from different
client regions reach different physical servers — the behaviour the
paper's vantage-point design exploits (§V-A-1, Fig. 7).

Handlers are duck-typed: DNS servers expose
``handle_query(query, client_region) -> DnsResponse`` and HTTP listeners
expose ``handle_request(request) -> HttpResponse``.

Optional *planes* — the fault plan, the attack plane, the
background-traffic plane (:data:`repro.scenario.PLANES` lists them) —
are installed with :meth:`NetworkFabric.install` and kept in
:attr:`NetworkFabric.planes`, keyed by scenario field name, in rank
order.  ``deliver_dns`` / ``deliver_http`` consult them in that order
on every delivery; the world engine drives them, checkpoint snapshots
carry them and shard merging compares them by looping over the same
collection.  Every plane meets the duck-typed :class:`Plane` contract,
so this module never imports the DNS layer or a plane package.

Each delivery carries the client's 1-based retry ``attempt``.  Every
plane verdict is a pure function of the delivery it is handed — the fault
plan keys its draws on the attempt, the traffic and attack planes ignore
it — so a delivery's fate never depends on which other deliveries the
same process made before it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple

from ..errors import ConfigurationError, RoutingError
from .anycast import AnycastNetwork
from .geo import Region
from .ipaddr import IPv4Address

__all__ = ["NetworkFabric", "Delivery", "Plane"]


class Delivery(NamedTuple):
    """Result of one plane-aware delivery through the fabric.

    ``response`` is the server's (or a plane's synthetic) answer, None
    for a timeout.  ``outcome`` says what happened: ``delivered``,
    ``dark`` (no handler at the address), a fault-plan outcome
    (``loss``, ``outage``, ``servfail``, ``lame``),
    an attack outcome (``attack-outage``, a timeout),
    or a traffic-defense outcome (``throttled`` — rate-limit drop, the
    client sees a timeout; ``shed`` — breaker open / load shedding, the
    client sees a synthetic REFUSED).  ``latency_ms`` is injected
    latency for the caller's retry budget — accounting only, it never
    advances the simulation clock.
    """

    response: Optional[object]
    outcome: str
    latency_ms: int = 0


class Plane(Protocol):
    """The contract every installed plane meets.

    A *verdict* is any object with ``outcome``, ``response`` and
    ``latency_ms``.  An ``admit_*`` method returns None to pass the
    delivery on, or a verdict: one whose outcome is ``"deliver"`` passes
    it on and only adds its latency; any other outcome ends the delivery
    there, charged the latency of every plane consulted so far.
    ``attempt`` is the client's 1-based retry attempt for the delivery.
    """

    #: Multiplier this plane puts on the background load of the planes
    #: driven after it on the same day (1.0: none).
    traffic_surge: float

    def admit_dns(self, address: IPv4Address, query: object,
                  region: Optional[Region],
                  attempt: int = 1) -> Optional[object]:
        """Verdict for one DNS delivery, or None to pass."""

    def admit_http(self, address: IPv4Address, host: Optional[object],
                   region: Optional[Region],
                  attempt: int = 1) -> Optional[object]:
        """Verdict for one HTTP delivery, or None to pass."""

    def drive_day(self, surge: float) -> Sequence[object]:
        """One day of world dynamics, seeing the ``traffic_surge`` product
        of the planes driven before this one; returns behaviour events."""

    def drive_state(self) -> object:
        """JSON state every replica of the world must agree on."""

    def state_dict(self) -> Dict[str, object]:
        """Full mutable state as JSON primitives (checkpoint snapshots)."""

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""


class _AnycastBinding:
    """An anycast address: a catchment model plus one server per PoP."""

    __slots__ = ("network", "servers")

    def __init__(self, network: AnycastNetwork, servers: Dict[str, object]) -> None:
        missing = {pop.pop_id for pop in network.pops} - set(servers)
        if missing:
            raise ConfigurationError(
                f"anycast binding missing servers for PoPs: {sorted(missing)}"
            )
        self.network = network
        self.servers = dict(servers)

    def server_for(self, client_region: Optional[Region]) -> object:
        if client_region is None:
            # Deterministic fallback: the alphabetically-first PoP.
            pop_id = min(self.servers)
            return self.servers[pop_id]
        pop = self.network.catchment(client_region)
        return self.servers[pop.pop_id]


class NetworkFabric:  # repro: allow[REP063] -- world-layer wiring; every replica reinstalls its planes through Scenario.install, and snapshots carry each plane's own state
    """Routes destination addresses to registered handlers."""

    def __init__(self) -> None:
        self._dns_unicast: Dict[IPv4Address, object] = {}
        self._dns_anycast: Dict[IPv4Address, _AnycastBinding] = {}
        self._http_unicast: Dict[IPv4Address, object] = {}
        self._http_anycast: Dict[IPv4Address, _AnycastBinding] = {}
        #: Installed planes by scenario field name, in rank order.
        self.planes: Mapping[str, Plane] = MappingProxyType({})
        self._ranks: Dict[str, int] = {}
        self._chain: Tuple[Plane, ...] = ()

    # -- planes ---------------------------------------------------------

    def install(self, name: str, plane: Plane, rank: int) -> None:
        """Install ``plane`` under ``name``, replacing any plane so named.

        Planes are consulted and driven in ascending ``rank``; equal
        ranks keep installation order.
        """
        planes = dict(self.planes)
        planes[name] = plane
        self._ranks[name] = rank
        order = sorted(planes, key=self._ranks.__getitem__)
        self.planes = MappingProxyType({key: planes[key] for key in order})
        self._chain = tuple(self.planes.values())

    @property
    def traffic_plane(self) -> Optional[Plane]:
        """The installed background-traffic plane, if any."""
        return self.planes.get("traffic")

    @property
    def attack_plane(self) -> Optional[Plane]:
        """The installed attack plane, if any."""
        return self.planes.get("attacks")

    # -- DNS plane ------------------------------------------------------

    def register_dns(self, ip: "IPv4Address | str", server: object) -> None:
        """Bind a unicast DNS server to an address."""
        addr = IPv4Address(ip)
        if addr in self._dns_unicast or addr in self._dns_anycast:
            raise ConfigurationError(f"DNS address already bound: {addr}")
        self._dns_unicast[addr] = server

    def register_dns_anycast(
        self,
        ip: "IPv4Address | str",
        network: AnycastNetwork,
        pop_servers: Dict[str, object],
    ) -> None:
        """Bind an anycast DNS address served by one server per PoP."""
        addr = IPv4Address(ip)
        if addr in self._dns_unicast or addr in self._dns_anycast:
            raise ConfigurationError(f"DNS address already bound: {addr}")
        self._dns_anycast[addr] = _AnycastBinding(network, pop_servers)

    def unregister_dns(self, ip: "IPv4Address | str") -> None:
        """Remove a DNS binding (unicast or anycast)."""
        addr = IPv4Address(ip)
        if self._dns_unicast.pop(addr, None) is None:
            if self._dns_anycast.pop(addr, None) is None:
                raise RoutingError(f"no DNS server bound at {addr}")

    def dns_server_at(
        self, ip: "IPv4Address | str", client_region: Optional[Region] = None
    ) -> Optional[object]:
        """The DNS server a client in ``client_region`` reaches at ``ip``.

        Returns None when nothing listens there (packet disappears into
        the void, like a query to a dark address on the real Internet).
        """
        addr = ip if type(ip) is IPv4Address else IPv4Address(ip)
        server = self._dns_unicast.get(addr)
        if server is not None:
            return server
        binding = self._dns_anycast.get(addr)
        if binding is not None:
            return binding.server_for(client_region)
        return None

    def deliver_dns(
        self,
        ip: "IPv4Address | str",
        query: object,
        client_region: Optional[Region] = None,
        attempt: int = 1,
    ) -> Delivery:
        """Deliver one DNS query through the fabric and its planes.

        Each installed plane may drop the query, substitute a synthetic
        answer (a fault plan's SERVFAIL, a shedding provider's REFUSED)
        or charge latency; the first plane that stops the delivery
        decides it.  Otherwise the query reaches the server bound at
        ``ip`` (``dark`` outcome when nothing listens there).
        """
        # Hot path: resolvers pass IPv4Address values already; skip the
        # re-wrapping allocation for those.
        addr = ip if type(ip) is IPv4Address else IPv4Address(ip)
        latency = 0
        plane: Plane
        for plane in self._chain:
            verdict = plane.admit_dns(addr, query, client_region, attempt)
            if verdict is not None:
                if verdict.outcome != "deliver":
                    return Delivery(
                        verdict.response,
                        verdict.outcome,
                        latency + verdict.latency_ms,
                    )
                latency += verdict.latency_ms
        server = self.dns_server_at(addr, client_region)
        if server is None:
            return Delivery(None, "dark", latency)
        return Delivery(server.handle_query(query, client_region), "delivered", latency)

    # -- HTTP plane -------------------------------------------------------

    def register_http(self, ip: "IPv4Address | str", handler: object) -> None:
        """Bind a unicast HTTP listener to an address."""
        addr = IPv4Address(ip)
        if addr in self._http_unicast or addr in self._http_anycast:
            raise ConfigurationError(f"HTTP address already bound: {addr}")
        self._http_unicast[addr] = handler

    def register_http_anycast(
        self,
        ip: "IPv4Address | str",
        network: AnycastNetwork,
        pop_servers: Dict[str, object],
    ) -> None:
        """Bind an anycast HTTP address served by one listener per PoP."""
        addr = IPv4Address(ip)
        if addr in self._http_unicast or addr in self._http_anycast:
            raise ConfigurationError(f"HTTP address already bound: {addr}")
        self._http_anycast[addr] = _AnycastBinding(network, pop_servers)

    def unregister_http(self, ip: "IPv4Address | str") -> None:
        """Remove an HTTP binding."""
        addr = IPv4Address(ip)
        if self._http_unicast.pop(addr, None) is None:
            if self._http_anycast.pop(addr, None) is None:
                raise RoutingError(f"no HTTP listener bound at {addr}")

    def http_handler_at(
        self, ip: "IPv4Address | str", client_region: Optional[Region] = None
    ) -> Optional[object]:
        """The HTTP listener a client reaches at ``ip``, or None."""
        addr = ip if type(ip) is IPv4Address else IPv4Address(ip)
        handler = self._http_unicast.get(addr)
        if handler is not None:
            return handler
        binding = self._http_anycast.get(addr)
        if binding is not None:
            return binding.server_for(client_region)
        return None

    def deliver_http(
        self,
        ip: "IPv4Address | str",
        request: object,
        client_region: Optional[Region] = None,
        attempt: int = 1,
    ) -> Delivery:
        """Deliver one HTTP request through the fabric and its planes.

        Mirrors :meth:`deliver_dns`, except that HTTP has no synthetic
        responses: a request a plane stops looks like a connection
        timeout.
        """
        addr = ip if type(ip) is IPv4Address else IPv4Address(ip)
        latency = 0
        if self._chain:
            host = getattr(request, "host", None)
            plane: Plane
            for plane in self._chain:
                verdict = plane.admit_http(addr, host, client_region, attempt)
                if verdict is not None:
                    if verdict.outcome != "deliver":
                        return Delivery(
                            None, verdict.outcome, latency + verdict.latency_ms
                        )
                    latency += verdict.latency_ms
        handler = self.http_handler_at(addr, client_region)
        if handler is None:
            return Delivery(None, "dark", latency)
        return Delivery(handler.handle_request(request), "delivered", latency)
