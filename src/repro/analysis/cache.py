"""On-disk incremental cache for the lint engine.

The expensive part of a lint run is parsing and walking every module;
the project graph itself is rebuilt from per-module summaries in
microseconds.  The cache therefore stores, per file, the raw per-module
findings plus the :class:`~repro.analysis.graph.ModuleSummary`, keyed by
a content hash — an unchanged tree re-lints with **zero** re-parses
while the project rules still run fresh over the cached summaries (they
are cross-file, so one edited module can change another module's
findings).

Entries are invalidated by content hash and by a *ruleset signature*
(cache schema version + every active rule ID, project rules included —
their inputs are the cached summaries, whose collected evidence grows
with the rule set), so upgrading the linter or changing
``--select``/``--ignore`` never serves stale findings.  A corrupt or unreadable cache file degrades to a cold run —
the cache is an accelerator, never a correctness dependency.

Findings and summaries go through one generic codec, :func:`encode` /
:func:`decode`, driven by each dataclass's fields and type hints.  A
finding's fingerprint is an ``init=False`` field, so it is never written
and always *recomputed* on load: a cache can never inject an identity
the current code would not produce itself.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..io import atomic_write_json
from .findings import Finding
from .graph import ModuleSummary

__all__ = ["LintCache", "content_hash", "decode", "encode", "ruleset_signature"]

#: Bump when the cached shape (findings/summary serialization) changes.
#: v2: ModuleSummary grew the REP06x shard-safety evidence (globals,
#: string sets, loads, self writes, merge hazards, mutable defaults).
#: v3: FunctionSummary grew the REP07x effect evidence (effect sites,
#: per-name first-read lines).
#: v4: one generic codec replaced the per-class ``to_dict``/``from_dict``
#: pairs; findings are stored by field name.
#: v5: calls on annotated locals (``x: T``) are recorded as typed calls.
#: v6: ``p.x.m()`` on a parameter is a ``paramattr`` call, and a class's
#: annotated fields type its attributes.
CACHE_SCHEMA_VERSION = 6

_Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]


def encode(value: Any) -> Any:
    """A dataclass value as JSON-ready data (sets become sorted lists)."""
    return _codec(type(value))[0](value)


def decode(cls: type, data: Any) -> Any:
    """Rebuild a ``cls`` value from :func:`encode` output, exactly."""
    return _codec(cls)[1](data)


def _same(value: Any) -> Any:
    return value


@functools.lru_cache(maxsize=None)
def _codec(hint: Any) -> _Codec:
    """The (encode, decode) pair for one type hint, built once per type.

    Covers what the summary and finding dataclasses use: nested
    dataclasses (``init=False`` fields are skipped), enums, ``Optional``,
    ``List``, ``Set``, ``Dict[str, ...]``, fixed or variadic ``Tuple``
    and JSON scalars, which pass through unchanged.  Any other hint is
    refused, so a new summary field cannot round-trip inexactly.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = [
            (f.name,) + _codec(hints[f.name])
            for f in dataclasses.fields(hint) if f.init
        ]
        return (
            lambda value: {
                name: enc(getattr(value, name)) for name, enc, _ in fields
            },
            lambda data: hint(*[dec(data[name]) for name, _, dec in fields]),
        )
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return (lambda value: value.value, hint)
    if origin is typing.Union:
        [inner] = [arg for arg in args if arg is not type(None)]
        enc, dec = _codec(inner)
        return (
            lambda value: None if value is None else enc(value),
            lambda data: None if data is None else dec(data),
        )
    if origin is dict:
        enc, dec = _codec(args[1])
        if enc is _same and dec is _same:
            return (dict, dict)
        return (
            lambda value: {k: enc(v) for k, v in value.items()},
            lambda data: {k: dec(v) for k, v in data.items()},
        )
    if origin is tuple and args[-1] is not Ellipsis:
        items = [_codec(arg) for arg in args]
        return (
            lambda value: [enc(v) for (enc, _), v in zip(items, value)],
            lambda data: tuple(dec(v) for (_, dec), v in zip(items, data)),
        )
    if origin in (list, tuple, set):
        out = sorted if origin is set else list
        enc, dec = _codec(args[0])
        if enc is _same and dec is _same:
            return (out, origin)
        return (
            lambda value: out(enc(v) for v in value),
            lambda data: origin(dec(v) for v in data),
        )
    if hint in (str, int, float, bool):
        return (_same, _same)
    raise TypeError(f"the cache codec cannot encode {hint!r}")


def content_hash(data: bytes) -> str:
    """Stable short hash of one file's raw bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def ruleset_signature(rule_ids: List[str]) -> str:
    """Signature of the active ruleset (plus cache schema)."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "rules": sorted(rule_ids)},
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


class LintCache:
    """A JSON file mapping display paths to cached per-module results."""

    def __init__(self, path: str, signature: str,
                 entries: Optional[Dict[str, Any]] = None) -> None:
        self.path = path
        self.signature = signature
        self._entries: Dict[str, Any] = entries or {}
        self._dirty = False

    @classmethod
    def load(cls, path: str, signature: str) -> "LintCache":
        """Read the cache; mismatched signature or corruption → empty."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return cls(path, signature)
        if not isinstance(payload, dict):
            return cls(path, signature)
        if payload.get("signature") != signature:
            return cls(path, signature)
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return cls(path, signature)
        return cls(path, signature, entries)

    def get(
        self, display_path: str, digest: str
    ) -> Optional[Tuple[List[Finding], ModuleSummary]]:
        """Cached (raw findings, summary) for an unchanged file, or None."""
        entry = self._entries.get(display_path)
        if not isinstance(entry, dict) or entry.get("hash") != digest:
            return None
        try:
            findings = [decode(Finding, item) for item in entry["findings"]]
            summary = decode(ModuleSummary, entry["summary"])
        except (KeyError, TypeError, ValueError):
            return None
        return findings, summary

    def put(self, display_path: str, digest: str,
            findings: List[Finding], summary: ModuleSummary) -> None:
        """Record one file's results (raw, pre-occurrence-numbering)."""
        self._entries[display_path] = {
            "hash": digest,
            "findings": [encode(finding) for finding in findings],
            "summary": encode(summary),
        }
        self._dirty = True

    def prune(self, live_paths: List[str]) -> None:
        """Drop entries for files that no longer exist in the run."""
        live = set(live_paths)
        dead = [path for path in self._entries if path not in live]
        for path in dead:
            del self._entries[path]
            self._dirty = True

    def save(self) -> None:
        """Persist if anything changed; write failures are non-fatal."""
        if not self._dirty:
            return
        payload = {
            "signature": self.signature,
            "entries": self._entries,
        }
        try:
            atomic_write_json(self.path, payload, indent=None)
        except OSError:
            pass
        self._dirty = False
