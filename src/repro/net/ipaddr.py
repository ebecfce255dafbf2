"""IPv4 addresses, prefixes, and address-space allocation.

The simulated Internet needs its own address plan: provider edge ranges,
origin-server pools, vantage-point addresses.  This module provides value
types (:class:`IPv4Address`, :class:`IPv4Prefix`) plus an
:class:`AddressAllocator` that carves disjoint prefixes out of a parent
block, mirroring how a registry hands out allocations.

The types are deliberately lighter than :mod:`ipaddress` from the standard
library — hashable, comparable, integer-backed — because the measurement
pipeline holds millions of them in sets.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import AddressError, AllocationError

__all__ = ["IPv4Address", "IPv4Prefix", "AddressAllocator"]

_MAX_IPV4 = (1 << 32) - 1


class IPv4Address:
    """An IPv4 address backed by a single integer.

    Instances are immutable, hashable, and totally ordered by numeric
    value, so they can live in sets and sorted structures.  Being
    immutable, ``IPv4Address(addr)`` returns ``addr`` itself: every
    holder that normalises its argument shares the one object instead
    of copying it.
    """

    __slots__ = ("_value",)

    def __new__(cls, value: "int | str | IPv4Address") -> "IPv4Address":
        if type(value) is cls:
            return value
        return object.__new__(cls)

    def __init__(self, value: "int | str | IPv4Address") -> None:
        # On an address returned by ``__new__`` this rewrites the same value.
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"IPv4 value out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    def __reduce__(self):
        # Rebuild through the constructor: pickle's default for a slotted
        # class would call a bare ``cls.__new__(cls)``, which needs a value.
        return (type(self), (self._value,))

    @property
    def value(self) -> int:
        """The address as an unsigned 32-bit integer."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and other._value == self._value

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value < other._value

    def __le__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value <= other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)


def _parse_dotted_quad(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


class IPv4Prefix:
    """A CIDR prefix such as ``198.51.100.0/24``.

    The network address is canonicalised (host bits cleared) at
    construction; ``IPv4Prefix("10.0.0.7/8")`` equals
    ``IPv4Prefix("10.0.0.0/8")``.
    """

    __slots__ = ("_network", "_length")

    def __init__(self, spec: "str | IPv4Prefix", length: Optional[int] = None) -> None:
        if isinstance(spec, IPv4Prefix):
            self._network, self._length = spec._network, spec._length
            return
        if length is None:
            if "/" not in spec:
                raise AddressError(f"prefix needs a /length: {spec!r}")
            addr_text, _, len_text = spec.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix length in {spec!r}")
            length = int(len_text)
        else:
            addr_text = str(spec)
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        base = _parse_dotted_quad(addr_text)
        mask = _mask_for(length)
        self._network = base & mask
        self._length = length

    @classmethod
    def from_int(cls, network: int, length: int) -> "IPv4Prefix":
        """Build a prefix from an integer network address and a length."""
        prefix = cls.__new__(cls)
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= network <= _MAX_IPV4:
            raise AddressError(f"network out of range: {network}")
        prefix._network = network & _mask_for(length)
        prefix._length = length
        return prefix

    @property
    def network(self) -> IPv4Address:
        """First address of the prefix."""
        return IPv4Address(self._network)

    @property
    def length(self) -> int:
        """The mask length (0-32)."""
        return self._length

    @property
    def num_addresses(self) -> int:
        """Total addresses covered, including network/broadcast."""
        return 1 << (32 - self._length)

    def __contains__(self, address: "IPv4Address | str | int") -> bool:
        addr = IPv4Address(address)
        return (addr.value & _mask_for(self._length)) == self._network

    def contains_prefix(self, other: "IPv4Prefix") -> bool:
        """True when ``other`` is fully inside this prefix."""
        return other._length >= self._length and (
            other._network & _mask_for(self._length)
        ) == self._network

    def overlaps(self, other: "IPv4Prefix") -> bool:
        """True when the two prefixes share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (use on small prefixes)."""
        for offset in range(self.num_addresses):
            yield IPv4Address(self._network + offset)

    def address_at(self, offset: int) -> IPv4Address:
        """Return the address ``offset`` slots into the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                f"offset {offset} outside {self} ({self.num_addresses} addresses)"
            )
        return IPv4Address(self._network + offset)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Split into equal subnets of ``new_length``."""
        if new_length < self._length or new_length > 32:
            raise AddressError(
                f"cannot split /{self._length} into /{new_length} subnets"
            )
        step = 1 << (32 - new_length)
        for network in range(self._network, self._network + self.num_addresses, step):
            yield IPv4Prefix.from_int(network, new_length)

    def __str__(self) -> str:
        return f"{IPv4Address(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix('{self}')"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPv4Prefix)
            and other._network == self._network
            and other._length == self._length
        )

    def __hash__(self) -> int:
        return hash((self._network, self._length))


def _mask_for(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4


class AddressAllocator:
    """Carves disjoint sub-prefixes and single addresses out of a block.

    Acts like a tiny regional Internet registry for the simulation: DPS
    providers, hosting providers, and vantage-point clouds each request
    allocations, and the allocator guarantees they never overlap.
    """

    def __init__(self, block: "IPv4Prefix | str") -> None:
        self._block = IPv4Prefix(block)
        self._cursor = self._block.network.value
        self._end = self._block.network.value + self._block.num_addresses

    @property
    def block(self) -> IPv4Prefix:
        """The parent block allocations are carved from."""
        return self._block

    @property
    def remaining(self) -> int:
        """Addresses not yet handed out."""
        return self._end - self._cursor

    def allocate_prefix(self, length: int) -> IPv4Prefix:
        """Allocate the next aligned prefix of the given length."""
        if length < self._block.length or length > 32:
            raise AllocationError(
                f"cannot allocate /{length} from {self._block}"
            )
        size = 1 << (32 - length)
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size > self._end:
            raise AllocationError(
                f"block {self._block} exhausted (requested /{length})"
            )
        self._cursor = aligned + size
        return IPv4Prefix.from_int(aligned, length)

    def allocate_address(self) -> IPv4Address:
        """Allocate a single address."""
        if self._cursor >= self._end:
            raise AllocationError(f"block {self._block} exhausted")
        address = IPv4Address(self._cursor)
        self._cursor += 1
        return address

    def allocate_addresses(self, count: int) -> List[IPv4Address]:
        """Allocate ``count`` consecutive single addresses."""
        return [self.allocate_address() for _ in range(count)]
