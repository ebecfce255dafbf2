"""RFC 1035 wire-format codec.

Encodes and decodes the simulation's DNS messages to and from the real
on-the-wire format — header, question, and the three record sections,
with standard name compression.  The simulation itself passes message
objects directly (no serialisation cost on the hot path); the codec
exists for interoperability and debugging: dumping a scanner's traffic
for inspection, feeding fixtures from captured bytes, and asserting that
the message model loses nothing a real packet carries.

Supported record types: A, NS, CNAME, SOA, MX, TXT.  Unknown types and
classes are rejected loudly rather than skipped.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from ..errors import DnsError
from ..net.ipaddr import IPv4Address
from .message import DnsQuery, DnsResponse, Rcode
from .name import DomainName
from .records import RecordType, ResourceRecord, SoaData

__all__ = [
    "encode_query",
    "decode_query",
    "encode_response",
    "decode_response",
]

_CODE_TYPES = {rtype.code: rtype for rtype in RecordType}

_RCODE_CODES: Dict[Rcode, int] = {
    Rcode.NOERROR: 0,
    Rcode.SERVFAIL: 2,
    Rcode.NXDOMAIN: 3,
    Rcode.REFUSED: 5,
}
_CODE_RCODES = {code: rcode for rcode, code in _RCODE_CODES.items()}

_CLASS_IN = 1
_POINTER_MASK = 0xC0
_MAX_POINTER_HOPS = 64

# SOA timers we do not model; encoded as sane constants.
_SOA_REFRESH, _SOA_RETRY, _SOA_EXPIRE, _SOA_MINIMUM = 7200, 900, 1209600, 300
_MX_PREFERENCE = 10


# ---------------------------------------------------------------------------
# Name coding
# ---------------------------------------------------------------------------


class _Writer:
    """Accumulates bytes and the compression offsets of encoded names."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._offsets: Dict[Tuple[str, ...], int] = {}

    def write(self, data: bytes) -> None:
        self.buffer.extend(data)

    def write_name(self, name: DomainName) -> None:
        labels = name.labels
        for index in range(len(labels)):
            suffix = labels[index:]
            known = self._offsets.get(suffix)
            if known is not None:
                self.buffer.extend(struct.pack("!H", 0xC000 | known))
                return
            if len(self.buffer) < 0x3FFF:
                self._offsets[suffix] = len(self.buffer)
            label = labels[index].encode("ascii")
            self.buffer.append(len(label))
            self.buffer.extend(label)
        self.buffer.append(0)


class _Reader:
    """Cursor over a packet with pointer-following name decoding."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise DnsError("truncated DNS message")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self.take(4))[0]

    def read_name(self) -> DomainName:
        labels: List[str] = []
        pos = self.pos
        jumped = False
        hops = 0
        while True:
            if pos >= len(self.data):
                raise DnsError("name runs past end of message")
            length = self.data[pos]
            if length & _POINTER_MASK == _POINTER_MASK:
                if pos + 1 >= len(self.data):
                    raise DnsError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | self.data[pos + 1]
                if not jumped:
                    self.pos = pos + 2
                    jumped = True
                hops += 1
                if hops > _MAX_POINTER_HOPS:
                    raise DnsError("compression pointer loop")
                pos = target
                continue
            if length & _POINTER_MASK:
                raise DnsError(f"reserved label type: {length:#x}")
            if length == 0:
                if not jumped:
                    self.pos = pos + 1
                break
            label = self.data[pos + 1:pos + 1 + length]
            if len(label) != length:
                raise DnsError("truncated label")
            try:
                labels.append(label.decode("ascii"))
            except UnicodeDecodeError:
                raise DnsError(f"non-ASCII label bytes: {label!r}") from None
            pos += 1 + length
        return DomainName(labels) if labels else DomainName("")


# ---------------------------------------------------------------------------
# Record coding
# ---------------------------------------------------------------------------


def _encode_record(writer: _Writer, record: ResourceRecord) -> None:
    writer.write_name(record.name)
    writer.write(struct.pack("!HHI", record.rtype.code, _CLASS_IN, record.ttl))
    length_at = len(writer.buffer)
    writer.write(b"\x00\x00")  # rdlength placeholder
    start = len(writer.buffer)
    if record.rtype is RecordType.A:
        writer.write(struct.pack("!I", record.address.value))
    elif record.rtype in (RecordType.NS, RecordType.CNAME):
        writer.write_name(record.target)
    elif record.rtype is RecordType.MX:
        writer.write(struct.pack("!H", _MX_PREFERENCE))
        writer.write_name(record.target)
    elif record.rtype is RecordType.TXT:
        text = str(record.rdata).encode("utf-8")
        for offset in range(0, len(text), 255):
            chunk = text[offset:offset + 255]
            writer.write(bytes([len(chunk)]))
            writer.write(chunk)
        if not text:
            writer.write(b"\x00")
    elif record.rtype is RecordType.SOA:
        data = record.rdata
        assert isinstance(data, SoaData)
        writer.write_name(data.primary_ns)
        writer.write_name(DomainName(data.admin))
        writer.write(struct.pack(
            "!IIIII", data.serial, _SOA_REFRESH, _SOA_RETRY, _SOA_EXPIRE, _SOA_MINIMUM
        ))
    else:  # pragma: no cover - the type map is exhaustive
        raise DnsError(f"cannot encode record type {record.rtype}")
    rdlength = len(writer.buffer) - start
    writer.buffer[length_at:length_at + 2] = struct.pack("!H", rdlength)


def _decode_record(reader: _Reader) -> ResourceRecord:
    name = reader.read_name()
    type_code, class_code = reader.u16(), reader.u16()
    ttl = reader.u32()
    rdlength = reader.u16()
    end = reader.pos + rdlength
    rtype = _CODE_TYPES.get(type_code)
    if rtype is None:
        raise DnsError(f"unsupported record type code: {type_code}")
    if class_code != _CLASS_IN:
        raise DnsError(f"unsupported class: {class_code}")
    if rtype is RecordType.A:
        rdata: object = IPv4Address(reader.u32())
    elif rtype in (RecordType.NS, RecordType.CNAME):
        rdata = reader.read_name()
    elif rtype is RecordType.MX:
        reader.u16()  # preference (not modelled)
        rdata = reader.read_name()
    elif rtype is RecordType.TXT:
        parts = []
        while reader.pos < end:
            length = reader.take(1)[0]
            try:
                parts.append(reader.take(length).decode("utf-8"))
            except UnicodeDecodeError:
                raise DnsError("invalid UTF-8 in TXT rdata") from None
        rdata = "".join(parts)
    else:  # SOA
        primary = reader.read_name()
        admin = reader.read_name()
        serial = reader.u32()
        reader.take(16)  # refresh/retry/expire/minimum
        rdata = SoaData(primary, str(admin), serial)
    if reader.pos != end:
        # Compression pointers make rdata shorter than rdlength claims
        # only on malformed input.
        if reader.pos > end:
            raise DnsError("record rdata overruns its declared length")
        reader.pos = end
    return ResourceRecord(name, rtype, ttl, rdata)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def _flags(response: "DnsResponse | None", recursion_desired: bool) -> int:
    flags = 0
    if response is not None:
        flags |= 0x8000  # QR
        if response.authoritative:
            flags |= 0x0400  # AA
        flags |= _RCODE_CODES[response.rcode]
    if recursion_desired:
        flags |= 0x0100  # RD
    return flags


def encode_query(query: DnsQuery, txid: int = 0) -> bytes:
    """Serialise a query to wire format."""
    writer = _Writer()
    writer.write(struct.pack("!HHHHHH", txid,
                             _flags(None, query.recursion_desired), 1, 0, 0, 0))
    writer.write_name(query.qname)
    writer.write(struct.pack("!HH", query.qtype.code, _CLASS_IN))
    return bytes(writer.buffer)


def decode_query(data: bytes) -> Tuple[DnsQuery, int]:
    """Parse a wire-format query; returns (query, transaction id)."""
    reader = _Reader(data)
    txid, flags, qdcount, ancount, nscount, arcount = struct.unpack(
        "!HHHHHH", reader.take(12)
    )
    if flags & 0x8000:
        raise DnsError("message is a response, not a query")
    if qdcount != 1:
        raise DnsError(f"expected exactly one question, got {qdcount}")
    qname = reader.read_name()
    type_code, class_code = reader.u16(), reader.u16()
    qtype = _CODE_TYPES.get(type_code)
    if qtype is None or class_code != _CLASS_IN:
        raise DnsError(f"unsupported question type/class: {type_code}/{class_code}")
    return DnsQuery(qname, qtype, recursion_desired=bool(flags & 0x0100)), txid


def encode_response(response: DnsResponse, txid: int = 0) -> bytes:
    """Serialise a response (with its echoed question) to wire format."""
    writer = _Writer()
    writer.write(struct.pack(
        "!HHHHHH",
        txid,
        _flags(response, response.query.recursion_desired),
        1,
        len(response.answers),
        len(response.authority),
        len(response.additional),
    ))
    writer.write_name(response.query.qname)
    writer.write(struct.pack("!HH", response.query.qtype.code, _CLASS_IN))
    for section in (response.answers, response.authority, response.additional):
        for record in section:
            _encode_record(writer, record)
    return bytes(writer.buffer)


def decode_response(data: bytes) -> Tuple[DnsResponse, int]:
    """Parse a wire-format response; returns (response, transaction id)."""
    reader = _Reader(data)
    txid, flags, qdcount, ancount, nscount, arcount = struct.unpack(
        "!HHHHHH", reader.take(12)
    )
    if not flags & 0x8000:
        raise DnsError("message is a query, not a response")
    if qdcount != 1:
        raise DnsError(f"expected exactly one question, got {qdcount}")
    rcode = _CODE_RCODES.get(flags & 0x000F)
    if rcode is None:
        raise DnsError(f"unsupported rcode: {flags & 0x000F}")
    qname = reader.read_name()
    type_code, class_code = reader.u16(), reader.u16()
    qtype = _CODE_TYPES.get(type_code)
    if qtype is None or class_code != _CLASS_IN:
        raise DnsError(f"unsupported question type/class: {type_code}/{class_code}")
    query = DnsQuery(qname, qtype, recursion_desired=bool(flags & 0x0100))
    answers = [_decode_record(reader) for _ in range(ancount)]
    authority = [_decode_record(reader) for _ in range(nscount)]
    additional = [_decode_record(reader) for _ in range(arcount)]
    return (
        DnsResponse(
            query=query,
            rcode=rcode,
            authoritative=bool(flags & 0x0400),
            answers=answers,
            authority=authority,
            additional=additional,
        ),
        txid,
    )
