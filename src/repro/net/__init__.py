"""Simulated network substrate: addressing, AS/BGP data, geography,
anycast routing, and volumetric traffic.

These are the layers beneath both the DNS ecosystem and the DPS
platforms.  See DESIGN.md §3 for the system inventory.
"""

from .anycast import AnycastNetwork
from .asn import AsRegistry, AutonomousSystem
from .geo import (
    GeoLocation,
    PAPER_VANTAGE_REGIONS,
    PointOfPresence,
    Region,
    VantagePoint,
    WELL_KNOWN_REGIONS,
    great_circle_km,
    region,
)
from .ipaddr import AddressAllocator, IPv4Address, IPv4Prefix
from .routeviews import RouteViewsDb
from .traffic import CapacityTarget, DeliveryReport, TrafficFlow

__all__ = [
    "AnycastNetwork",
    "AsRegistry",
    "AutonomousSystem",
    "GeoLocation",
    "PAPER_VANTAGE_REGIONS",
    "PointOfPresence",
    "Region",
    "VantagePoint",
    "WELL_KNOWN_REGIONS",
    "great_circle_km",
    "region",
    "AddressAllocator",
    "IPv4Address",
    "IPv4Prefix",
    "RouteViewsDb",
    "CapacityTarget",
    "DeliveryReport",
    "TrafficFlow",
]
