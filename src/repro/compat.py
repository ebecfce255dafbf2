"""Interpreter-version shims, so one source tree runs on every supported Python."""

from __future__ import annotations

import sys

__all__ = ["SLOTS"]

#: Keyword arguments that give a ``dataclass`` ``__slots__`` where the
#: interpreter supports it (3.10+).  On 3.9 the class keeps a per-instance
#: ``__dict__``: the same behaviour, a little more memory.
SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
