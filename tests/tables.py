"""Day tables for tests: hand-built ones, and a collector that writes them."""

from repro.core.collector import DayTable, DnsRecordCollector
from repro.core.matching import ProviderMatcher
from repro.core.status import StatusDeterminer
from repro.dns.message import Rcode


def verdict_days(*days, first_day=0):
    """One day table per ``{www: verdict}`` map, in order.

    A verdict is ``(status, provider)`` or ``(status, provider,
    rerouting)``; rows hold no answers.  The tables share one hostname
    list, in first-seen order, as a collected series does.
    """
    hostnames = list(dict.fromkeys(www for verdicts in days for www in verdicts))
    tables = []
    for offset, verdicts in enumerate(days):
        rows = []
        for www, verdict in verdicts.items():
            status, provider, rerouting = (tuple(verdict) + (None,))[:3]
            rows.append(
                (hostnames.index(www), Rcode.NOERROR, (), (), (), status, provider, rerouting)
            )
        tables.append(DayTable.build(first_day + offset, hostnames, rows))
    return tables


def collector_for(world, resolver=None):
    """A collector over ``world`` that classifies with its providers."""
    matcher = ProviderMatcher(world.specs, world.routeviews)
    shared = frozenset(
        ip for provider in world.providers.values() for ip in provider.offnet_edge_ips
    )
    return DnsRecordCollector(
        resolver if resolver is not None else world.make_resolver(),
        StatusDeterminer(matcher, shared),
    )
