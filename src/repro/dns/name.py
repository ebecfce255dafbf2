"""Domain names.

:class:`DomainName` is the value type used across the DNS substrate and
the measurement core: case-insensitive, label-based, hashable.  Names are
always stored fully qualified (the root label is implicit; the trailing
dot is accepted on input and never printed).

The paper works almost exclusively with ``www`` portal hostnames of apex
domains (§IV-A), so helpers for apex/``www`` round-trips are provided.

Names are interned: each distinct name is parsed, validated and hashed
once per process, and every later construction of it — from the same
text, from its labels, via :meth:`DomainName.parent` or
:meth:`DomainName.suffixes`, or by unpickling — returns that same
object.  Sites share nameserver and CNAME targets heavily, so a
campaign constructs names two orders of magnitude more often than
distinct names exist.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..errors import NameError_
from ..rng import stable_hash

__all__ = ["DomainName", "ROOT"]

_MAX_NAME_LENGTH = 253
_MAX_LABEL_LENGTH = 63


#: Interned names by their exact input text, and by normalised labels.
#: Only valid names are ever entered; invalid text raises on every call.
_BY_TEXT: Dict[str, "DomainName"] = {}  # repro: allow[REP060] -- holds immutable, value-equal names whose identity never reaches an output; the hash is process-stable
_BY_LABELS: Dict[Tuple[str, ...], "DomainName"] = {}  # repro: allow[REP060] -- holds immutable, value-equal names whose identity never reaches an output; the hash is process-stable


class DomainName:
    """A fully-qualified, normalised, interned DNS name.

    Instances are immutable and shared: never assign to their slots.
    """

    __slots__ = ("_labels", "_hash")

    def __new__(cls, name: "str | DomainName | Iterable[str]") -> "DomainName":
        if isinstance(name, DomainName):
            return name
        if isinstance(name, str):
            interned = _BY_TEXT.get(name)
            if interned is None:
                interned = _BY_TEXT[name] = cls._from_labels(_parse(name))
            return interned
        labels = tuple(label.lower() for label in name)
        interned = _BY_LABELS.get(labels)
        if interned is None:
            _validate(labels, repr(name))
            interned = cls._from_labels(labels)
        return interned

    @classmethod
    def _from_labels(cls, labels: Tuple[str, ...]) -> "DomainName":
        """Fast internal constructor for already-validated labels."""
        name = _BY_LABELS.get(labels)
        if name is None:
            name = object.__new__(cls)
            name._labels = labels
            name._hash = stable_hash(labels)
            _BY_LABELS[labels] = name
        return name

    def __reduce__(self):
        # Rebuild through the intern tables, so pickle, deepcopy and the
        # shard pipe hand back this process's instance.
        return (DomainName, (self._labels,))

    # -- structure ------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """Labels from leftmost (host) to rightmost (TLD)."""
        return self._labels

    @property
    def is_root(self) -> bool:
        """True for the DNS root (empty name)."""
        return not self._labels

    @property
    def tld(self) -> str:
        """The top-level label (e.g. ``com``)."""
        if self.is_root:
            raise NameError_("root has no TLD")
        return self._labels[-1]

    def parent(self) -> "DomainName":
        """The name with its leftmost label removed."""
        if self.is_root:
            raise NameError_("root has no parent")
        return DomainName._from_labels(self._labels[1:])

    def child(self, label: str) -> "DomainName":
        """Prepend a label: ``DomainName('example.com').child('www')``."""
        return DomainName((label.lower(),) + self._labels)

    def is_subdomain_of(self, other: "DomainName | str") -> bool:
        """True when ``self`` is equal to or below ``other``."""
        parent = DomainName(other)
        n = len(parent._labels)
        if n == 0:
            return True
        return self._labels[-n:] == parent._labels if len(self._labels) >= n else False

    def suffixes(self) -> "List[DomainName]":
        """Self and every ancestor, longest first (excluding the root)."""
        labels = self._labels
        return [
            DomainName._from_labels(labels[i:]) for i in range(len(labels))
        ]

    def ancestors(self) -> List["DomainName"]:
        """All proper ancestors from parent up to (excluding) the root."""
        result = []
        current = self
        while len(current._labels) > 1:
            current = current.parent()
            result.append(current)
        return result

    # -- apex / www helpers ----------------------------------------------

    @property
    def apex(self) -> "DomainName":
        """The registrable apex, approximated as the last two labels.

        The simulation uses single-label TLDs, so ``example.com`` is the
        apex of ``www.example.com`` and of itself.
        """
        if len(self._labels) < 2:
            raise NameError_(f"{self} has no apex")
        return DomainName._from_labels(self._labels[-2:])

    @property
    def is_apex(self) -> bool:
        """True when the name has exactly two labels."""
        return len(self._labels) == 2

    def www(self) -> "DomainName":
        """The ``www`` portal hostname of this name's apex."""
        return self.apex.child("www")

    # -- value semantics -------------------------------------------------

    def __str__(self) -> str:
        return ".".join(self._labels) if self._labels else "."

    def __repr__(self) -> str:
        return f"DomainName('{self}')"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, str):
            try:
                other = DomainName(other)
            except NameError_:
                return False
        return isinstance(other, DomainName) and other._labels == self._labels

    def __lt__(self, other: "DomainName") -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        return self._labels[::-1] < other._labels[::-1]

    def __hash__(self) -> int:
        # Computed once per distinct name via stable_hash: unlike salted
        # builtin hash, the value — and therefore DomainName set/dict
        # layout — is identical in every worker process.
        return self._hash

    def __len__(self) -> int:
        return len(self._labels)


def _parse(text: str) -> Tuple[str, ...]:
    stripped = text.strip().rstrip(".")
    if stripped == "":
        return ()
    labels = tuple(label.lower() for label in stripped.split("."))
    _validate(labels, repr(text))
    return labels


def _validate(labels: Tuple[str, ...], source: str) -> None:
    total = sum(len(label) + 1 for label in labels)
    if total > _MAX_NAME_LENGTH:
        raise NameError_(f"name too long: {source}")
    for label in labels:
        if not label:
            raise NameError_(f"empty label in {source}")
        if len(label) > _MAX_LABEL_LENGTH:
            raise NameError_(f"label too long in {source}")
        for ch in label:
            if not (ch.isalnum() or ch in "-_"):
                raise NameError_(f"invalid character {ch!r} in {source}")
        if label.startswith("-") or label.endswith("-"):
            raise NameError_(f"label cannot start/end with hyphen in {source}")


#: The DNS root name.
ROOT = DomainName("")
