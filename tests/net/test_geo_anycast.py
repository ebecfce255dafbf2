"""Tests for geography and anycast catchment."""

import pytest

from repro.errors import ConfigurationError
from repro.net.anycast import AnycastNetwork
from repro.net.fabric import NetworkFabric
from repro.net.geo import (
    GeoLocation,
    PAPER_VANTAGE_REGIONS,
    PointOfPresence,
    Region,
    WELL_KNOWN_REGIONS,
    great_circle_km,
    region,
)


class TestGeo:
    def test_great_circle_zero_for_same_point(self):
        loc = GeoLocation(10.0, 20.0)
        assert great_circle_km(loc, loc) == pytest.approx(0.0)

    def test_great_circle_known_distance(self):
        # London ↔ Tokyo is roughly 9,560 km.
        d = region("london").distance_to(region("tokyo"))
        assert 9000 < d < 10100

    def test_distance_symmetric(self):
        a, b = region("oregon"), region("sydney")
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_invalid_latitude(self):
        with pytest.raises(ConfigurationError):
            GeoLocation(91.0, 0.0)

    def test_invalid_longitude(self):
        with pytest.raises(ConfigurationError):
            GeoLocation(0.0, -181.0)

    def test_paper_vantage_regions_exist(self):
        for name in PAPER_VANTAGE_REGIONS:
            assert name in WELL_KNOWN_REGIONS

    def test_unknown_region_raises(self):
        with pytest.raises(ConfigurationError):
            region("atlantis")


def _network(*names: str) -> AnycastNetwork:
    pops = [PointOfPresence(f"pop-{n}", region(n)) for n in names]
    return AnycastNetwork("test", pops)


class TestAnycast:
    def test_needs_pops(self):
        with pytest.raises(ConfigurationError):
            AnycastNetwork("empty", [])

    def test_duplicate_pop_ids_rejected(self):
        pop = PointOfPresence("x", region("london"))
        with pytest.raises(ConfigurationError):
            AnycastNetwork("dup", [pop, pop])

    def test_catchment_is_nearest(self):
        network = _network("london", "tokyo")
        assert network.catchment(region("frankfurt")).pop_id == "pop-london"
        assert network.catchment(region("seoul")).pop_id == "pop-tokyo"

    def test_catchment_stable(self):
        network = _network("london", "tokyo", "oregon")
        first = network.catchment(region("sydney"))
        assert all(
            network.catchment(region("sydney")).pop_id == first.pop_id
            for _ in range(5)
        )

    def test_own_region_maps_to_own_pop(self):
        network = _network("london", "tokyo", "sydney")
        assert network.catchment(region("sydney")).pop_id == "pop-sydney"

    def test_distinct_catchments_for_paper_vantage_points(self):
        # A global PoP deployment separates the paper's five VPs.
        network = _network(*PAPER_VANTAGE_REGIONS)
        clients = [region(n) for n in PAPER_VANTAGE_REGIONS]
        assert network.distinct_catchments(clients) == 5

    def test_single_pop_captures_everything(self):
        network = _network("london")
        clients = [region(n) for n in PAPER_VANTAGE_REGIONS]
        assert network.distinct_catchments(clients) == 1

    def test_load_share_sums_to_one(self):
        network = _network("london", "tokyo", "oregon")
        clients = [region(n) for n in WELL_KNOWN_REGIONS]
        shares = network.load_share(clients)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_catchment_map_keys(self):
        network = _network("london", "tokyo")
        clients = [region("paris"), region("seoul")]
        mapping = network.catchment_map(clients)
        assert set(mapping) == {"paris", "seoul"}


def _brute_force_catchment(network: AnycastNetwork, client: Region) -> PointOfPresence:
    return min(network.pops, key=lambda pop: (pop.distance_to(client), pop.pop_id))


class TestCatchmentTable:
    def test_table_agrees_with_brute_force_on_every_provider(self, shared_world):
        networks = [provider.anycast for provider in shared_world.providers.values()]
        assert networks
        for network in networks:
            for client in WELL_KNOWN_REGIONS.values():
                assert network.catchment(client) is _brute_force_catchment(
                    network, client
                ), (network.name, client.name)

    def test_equidistant_pops_resolve_by_pop_id(self):
        # Two PoPs in one catalogued region: the table breaks the tie.
        london = region("london")
        network = AnycastNetwork(
            "tie", [PointOfPresence("pop-b", london), PointOfPresence("pop-a", london)]
        )
        assert network.catchment(london).pop_id == "pop-a"
        assert network.catchment(region("paris")).pop_id == "pop-a"

    def test_equidistant_pops_outside_the_catalog_resolve_by_pop_id(self):
        east = Region("east", GeoLocation(0.0, 10.0))
        west = Region("west", GeoLocation(0.0, -10.0))
        network = AnycastNetwork(
            "tie", [PointOfPresence("pop-z", east), PointOfPresence("pop-y", west)]
        )
        middle = Region("middle", GeoLocation(0.0, 0.0))
        assert network.catchment(middle).pop_id == "pop-y"

    def test_region_reusing_a_catalog_name_is_not_served_from_the_table(self):
        network = _network("london", "sydney")
        impostor = Region("london", GeoLocation(-33.0, 151.0))
        assert network.catchment(region("london")).pop_id == "pop-london"
        assert network.catchment(impostor).pop_id == "pop-sydney"

    def test_regionless_anycast_client_reaches_alphabetically_first_pop(self):
        network = _network("tokyo", "london", "sydney")
        servers = {pop.pop_id: object() for pop in network.pops}
        fabric = NetworkFabric()
        fabric.register_dns_anycast("10.0.0.1", network, servers)
        assert fabric.dns_server_at("10.0.0.1", None) is servers["pop-london"]
        assert fabric.dns_server_at("10.0.0.1", region("tokyo")) is servers["pop-tokyo"]
