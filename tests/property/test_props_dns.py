"""Property-based tests for the DNS substrate."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import SimulationClock
from repro.dns.cache import DnsCache
from repro.dns.name import DomainName
from repro.dns.records import (
    DEFAULT_NS_TTL,
    RecordType,
    a_record,
    cname_record,
    mx_record,
    ns_record,
    soa_record,
)
from repro.dns.zone import Zone
from repro.errors import ZoneError
from repro.net.ipaddr import IPv4Address

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)
names = st.lists(labels, min_size=1, max_size=5).map(DomainName)


class TestDomainNameProperties:
    @given(names)
    def test_str_roundtrip(self, name):
        assert DomainName(str(name)) == name

    @given(names)
    def test_hash_equals_for_equal(self, name):
        assert hash(DomainName(str(name).upper())) == hash(name)

    @given(names)
    def test_suffixes_are_ancestors_inclusive(self, name):
        suffixes = name.suffixes()
        assert suffixes[0] == name
        assert len(suffixes) == len(name)
        for shorter, longer in zip(suffixes[1:], suffixes):
            assert longer.is_subdomain_of(shorter)

    @given(names, labels)
    def test_child_parent_inverse(self, name, label):
        assert name.child(label).parent() == name

    @given(names, names)
    def test_subdomain_antisymmetry(self, a, b):
        if a.is_subdomain_of(b) and b.is_subdomain_of(a):
            assert a == b

    @given(names, names, names)
    @settings(max_examples=60)
    def test_subdomain_transitivity(self, a, b, c):
        if a.is_subdomain_of(b) and b.is_subdomain_of(c):
            assert a.is_subdomain_of(c)


class TestCacheProperties:
    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=20_000),
    )
    def test_visibility_window(self, ttl, elapsed):
        clock = SimulationClock()
        cache = DnsCache(clock)
        cache.put(a_record("www.example.com", "1.2.3.4", ttl=ttl))
        clock.advance(elapsed)
        records = cache.get("www.example.com", RecordType.A)
        if elapsed < ttl:
            assert records is not None
            assert records[0].ttl == ttl - elapsed
        else:
            assert records is None

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
    def test_len_counts_distinct_rdata(self, last_octets):
        clock = SimulationClock()
        cache = DnsCache(clock)
        for octet in last_octets:
            cache.put(a_record("www.example.com", f"10.0.0.{octet}", ttl=60))
        assert len(cache) == len(set(last_octets))


@st.composite
def zone_operations(draw):
    """Random sequences of adds/removes at names under example.com."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=15))):
        kind = draw(st.sampled_from(["add", "remove"]))
        depth = draw(st.integers(min_value=0, max_value=2))
        parts = [draw(st.sampled_from(["a", "b", "c"])) for _ in range(depth + 1)]
        name = ".".join(parts) + ".example.com"
        octet = draw(st.integers(min_value=1, max_value=250))
        ops.append((kind, name, octet))
    return ops


class TestZoneIndexProperties:
    @given(zone_operations())
    @settings(max_examples=80)
    def test_name_exists_matches_bruteforce(self, ops):
        zone = Zone("example.com")
        for kind, name, octet in ops:
            if kind == "add":
                try:
                    zone.add(a_record(name, f"10.0.0.{octet}"))
                except Exception:
                    pass  # duplicate rdata — fine
            else:
                zone.remove_all(name, RecordType.A)
        # Brute-force existence from the record store itself.
        live_names = {r.name for r in zone.all_records() if r.rtype is RecordType.A}
        probes = {DomainName(n) for _, n, _ in ops}
        for probe in probes:
            expected = any(
                existing == probe or existing.is_subdomain_of(probe)
                for existing in live_names
            )
            assert zone.name_exists(probe) == expected, str(probe)

    @given(zone_operations())
    @settings(max_examples=40)
    def test_serial_monotone(self, ops):
        zone = Zone("example.com")
        previous = zone.serial
        for kind, name, octet in ops:
            if kind == "add":
                try:
                    zone.add(a_record(name, f"10.0.0.{octet}"))
                except Exception:
                    pass
            else:
                zone.remove_all(name, RecordType.A)
            assert zone.serial >= previous
            previous = zone.serial


# -- the zone against a brute-force reference ------------------------------

_ORIGIN = DomainName("example.com")
_PRIMARY = DomainName("ns1.example.com")
_ZONE_NAMES = [
    _ORIGIN,
    DomainName("www.example.com"),
    DomainName("a.example.com"),
    DomainName("b.a.example.com"),
]
#: Probes: every name an operation can touch, an empty non-terminal's
#: child, a name below a possible cut, and one outside the zone's data.
_PROBES = _ZONE_NAMES + [DomainName("x.b.a.example.com"), DomainName("c.example.com")]
_TARGETS = [DomainName("edge.cdn.net"), DomainName("ns.a.example.com")]
_PROBE_TYPES = [RecordType.A, RecordType.CNAME, RecordType.NS, RecordType.MX, RecordType.SOA]


class _ReferenceZone:
    """What a zone must answer, by brute force: a dict of record lists
    keyed like the zone's store, plus an int serial.  Every replacing
    write is spelled out as a removal followed by an addition."""

    def __init__(self) -> None:
        self.records: dict = {}
        self.serial = 1

    def add(self, record) -> None:
        if not record.name.is_subdomain_of(_ORIGIN):
            raise ZoneError("outside the zone")
        here = [code for name, code in self.records if name == record.name]
        if record.rtype is RecordType.CNAME and here:
            raise ZoneError("CNAME beside data")
        if record.rtype is not RecordType.CNAME and RecordType.CNAME.code in here:
            raise ZoneError("data beside a CNAME")
        bucket = self.records.setdefault((record.name, record.rtype.code), [])
        if any(existing.rdata == record.rdata for existing in bucket):
            raise ZoneError("duplicate")
        bucket.append(record)
        self.serial += 1

    def remove_all(self, name, rtype) -> None:
        if self.records.pop((name, rtype.code), None):
            self.serial += 1

    def remove_name(self, name) -> None:
        removed = [key for key in self.records if key[0] == name]
        for key in removed:
            del self.records[key]
        if removed:
            self.serial += 1

    def replace(self, record) -> None:
        self.remove_all(record.name, record.rtype)
        self.add(record)

    def set_a(self, name, address, ttl) -> None:
        self.replace(a_record(name, address, ttl))

    def delegate(self, child, nameservers, glue) -> None:
        if not child.is_subdomain_of(_ORIGIN) or child == _ORIGIN:
            raise ZoneError("bad cut")
        if not nameservers:
            raise ZoneError("no nameservers")
        self.remove_all(child, RecordType.NS)
        for ns_name in nameservers:
            self.add(ns_record(child, ns_name))
        for host, address in glue.items():
            present = {r.rdata for r in self.lookup(host, RecordType.A)}
            if IPv4Address(address) not in present:
                self.add(a_record(host, address, DEFAULT_NS_TTL))

    def clear(self) -> None:
        self.records.clear()
        self.serial += 1

    # -- reads --

    def soa(self):
        return soa_record(_ORIGIN, _PRIMARY, serial=self.serial)

    def lookup(self, name, rtype):
        if rtype is RecordType.SOA and name == _ORIGIN:
            return [self.soa()]
        return list(self.records.get((name, rtype.code), ()))

    def name_exists(self, name) -> bool:
        return name == _ORIGIN or any(owner.is_subdomain_of(name) for owner, _ in self.records)

    def delegation_covering(self, name):
        cuts = [
            owner
            for owner, code in self.records
            if code == RecordType.NS.code and owner != _ORIGIN and name.is_subdomain_of(owner)
        ]
        return max(cuts, key=len) if cuts else None

    def all_records(self):
        return [self.soa()] + [r for bucket in self.records.values() for r in bucket]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.records.values())


_zone_names = st.sampled_from(_ZONE_NAMES)
_octets = st.integers(min_value=1, max_value=3).map(lambda n: f"10.0.0.{n}")
_written_types = st.sampled_from([RecordType.A, RecordType.CNAME, RecordType.NS, RecordType.MX])
#: Weighted towards A writes, so multi-record RRsets and replaces over
#: them (the in-place path) turn up more often; the explicit examples on
#: the test pin both cases the in-place path depends on.
_write_kinds = st.sampled_from(
    [
        "add", "add", "add", "set_a", "set_a", "replace",
        "remove_all", "remove_name", "delegate", "clear",
    ]
)
_added_types = st.sampled_from(
    [RecordType.A, RecordType.A, RecordType.CNAME, RecordType.NS, RecordType.MX]
)


@st.composite
def _zone_writes(draw):
    kind = draw(_write_kinds)
    name = draw(_zone_names)
    if kind in ("add", "replace"):
        rtype = draw(_added_types)
        if rtype is RecordType.A:
            return (kind, a_record(name, draw(_octets)))
        build = {RecordType.CNAME: cname_record, RecordType.NS: ns_record}.get(rtype, mx_record)
        return (kind, build(name, draw(st.sampled_from(_TARGETS))))
    if kind == "remove_all":
        return ("remove_all", name, draw(_written_types))
    if kind == "remove_name":
        return ("remove_name", name)
    if kind == "set_a":
        return ("set_a", name, draw(_octets), draw(st.sampled_from([60, 300])))
    if kind == "delegate":
        nameservers = draw(st.lists(st.sampled_from(_TARGETS), max_size=2, unique=True))
        glue_hosts = draw(st.lists(_zone_names, max_size=1))
        return ("delegate", name, nameservers, {host: draw(_octets) for host in glue_hosts})
    return ("clear",)


def _apply(target, op) -> bool:
    """Run one write; True when it raised a ZoneError."""
    kind, args = op[0], op[1:]
    try:
        getattr(target, kind)(*args)
    except ZoneError:
        return True
    return False


class TestZoneAgainstReference:
    @given(st.lists(_zone_writes(), min_size=1, max_size=25))
    # The in-place replace of a two-record RRset, and data beside a CNAME.
    @example([
        ("add", a_record("www.example.com", "10.0.0.1")),
        ("add", a_record("www.example.com", "10.0.0.2")),
        ("set_a", DomainName("www.example.com"), "10.0.0.3", 60),
    ])
    @example([
        ("add", cname_record("www.example.com", "edge.cdn.net")),
        ("set_a", DomainName("www.example.com"), "10.0.0.1", 300),
    ])
    @settings(max_examples=150, deadline=None)
    def test_every_read_matches_the_reference_after_every_write(self, ops):
        zone = Zone(_ORIGIN, primary_ns=_PRIMARY)
        reference = _ReferenceZone()
        # Emptying the zone at the end shows any count the index kept.
        drain = [("remove_name", name) for name in _ZONE_NAMES]
        for step, op in enumerate(ops + drain):
            assert _apply(zone, op) == _apply(reference, op), (step, op)
            assert zone.serial == reference.serial, (step, op)
            assert zone.soa == reference.soa(), (step, op)
            assert len(zone) == len(reference), (step, op)
            assert zone.all_records() == reference.all_records(), (step, op)
            for probe in _PROBES:
                assert zone.name_exists(probe) == reference.name_exists(probe), (step, op, probe)
                assert zone.delegation_covering(probe) == reference.delegation_covering(probe), (
                    step, op, probe,
                )
                for rtype in _PROBE_TYPES:
                    assert zone.lookup(probe, rtype) == reference.lookup(probe, rtype), (
                        step, op, probe, rtype,
                    )
