"""Crash-safe file primitives.

Every file the library persists across process boundaries — study
exports, bench/chaos payloads, checkpoint snapshots, the write-ahead
journal — goes through this module.  A plain ``open(..., "w")`` can be
torn by a crash mid-write, leaving a half-file that parses as neither
the old nor the new state; the atomic helpers here write to a temporary
sibling, ``fsync`` it, and ``rename`` over the target, so readers only
ever observe a complete before- or after-image.

The ``repro lint`` rule REP031 flags direct ``open(..., "w")`` /
``write_text`` calls elsewhere in the package so new persistence paths
cannot quietly bypass these helpers.  :func:`canonical_json` and
:func:`content_hash` fix the byte form that persisted identities are
hashed over.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "canonical_json",
    "content_hash",
    "atomic_write_text",
    "atomic_write_json",
    "append_durable_line",
    "fsync_directory",
]


def canonical_json(payload: object) -> str:
    """Byte-stable JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: object) -> str:
    """blake2b over the canonical JSON encoding."""
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=16
    ).hexdigest()


def fsync_directory(directory: "str | Path") -> None:
    """Flush a directory entry so a completed rename survives a crash.

    Best-effort: some filesystems refuse ``O_RDONLY`` on directories;
    the rename itself is still atomic there, only its durability window
    is wider.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: "str | Path", text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives in the target's directory so the final
    ``os.replace`` never crosses a filesystem boundary.  Returns the
    target path.
    """
    target = Path(path)
    tmp = target.parent / f".{target.name}.tmp.{os.getpid()}"
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:  # repro: allow[REP021] -- cleanup-and-reraise: the tmp file must not survive even KeyboardInterrupt
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(target.parent)
    return target


def atomic_write_json(
    path: "str | Path",
    payload: Any,
    indent: "int | None" = 2,
    sort_keys: bool = True,
    trailing_newline: bool = True,
) -> Path:
    """Serialise ``payload`` and write it atomically; returns the path."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text + "\n" if trailing_newline else text)


def append_durable_line(path: "str | Path", line: str) -> None:
    """Append one newline-terminated record and fsync it to disk.

    The write-ahead journal's primitive: a record is only considered
    committed once this returns.  ``line`` must not contain newlines —
    one record per line is what makes a torn tail detectable.
    """
    if "\n" in line:
        raise ValueError("journal records must be single lines")
    with open(path, "a", encoding="utf-8") as handle:  # repro: allow[REP031] -- this IS the sanctioned durable-append primitive
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
