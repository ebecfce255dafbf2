"""Property test: a fault verdict is a pure function of its delivery.

Two fresh plans of one profile admit the same generated deliveries in
two different orders; every delivery must get the same verdict from
both.  A plan that drew from a stream, or counted failures per
destination, would hand out fates by call order, and a shard worker,
which makes only its slice's calls, would see other faults than the
monolithic run.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulationClock
from repro.dns.message import DnsQuery
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.faults import PROFILES
from repro.net.geo import region
from repro.net.ipaddr import IPv4Address
from repro.rng import SeededRng

_ADDRESSES = [IPv4Address(f"10.0.0.{low}") for low in range(1, 5)]
_NAMES = [DomainName(f"www.site{n}.com") for n in range(3)]

#: (day, address, name, qtype, region, attempt, plane)
_DELIVERY = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(_ADDRESSES),
    st.sampled_from(_NAMES),
    st.sampled_from([RecordType.A, RecordType.NS]),
    st.sampled_from([None, "london", "sydney"]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["dns", "http"]),
)


def _verdicts(profile, seed, deliveries, order):
    """Admit ``deliveries`` in ``order`` to a fresh plan; verdict by index."""
    clock = SimulationClock()
    plan = PROFILES[profile].build(SimpleNamespace(rng=SeededRng(seed), clock=clock))
    verdicts = {}
    for index in order:
        day, address, name, qtype, region_name, attempt, plane = deliveries[index]
        clock.advance_to_day(day)
        where = region(region_name) if region_name is not None else None
        if plane == "dns":
            verdict = plan.admit_dns(address, DnsQuery(name, qtype), where, attempt)
        else:
            verdict = plan.admit_http(address, name, where, attempt)
        rcode = verdict.response.rcode if verdict.response is not None else None
        verdicts[index] = (verdict.outcome, verdict.latency_ms, rcode)
    return verdicts


class TestFaultVerdictPurity:
    @pytest.mark.parametrize("profile", ["lossy-default", "heavy-loss"])
    @settings(max_examples=40, deadline=None)
    @given(
        deliveries=st.lists(_DELIVERY, min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_same_verdict_in_any_order(self, profile, deliveries, seed):
        # Both orders walk the days forward (the clock never rewinds)
        # but visit each day's deliveries in opposite orders.
        forward = sorted(range(len(deliveries)), key=lambda i: (deliveries[i][0], i))
        backward = sorted(range(len(deliveries)), key=lambda i: (deliveries[i][0], -i))
        assert _verdicts(profile, seed, deliveries, forward) == _verdicts(
            profile, seed, deliveries, backward
        )
