"""The findings model: what a rule reports and how it is identified.

A :class:`Finding` pins a rule violation to a file, line, and column, and
carries a *fingerprint* — a process-stable identity derived from the rule
ID, the file path, and the offending source line's text (not its line
number).  Fingerprints let the baseline survive unrelated edits: inserting
a line above a grandfathered violation does not orphan its entry, while
editing the violating line itself does, which is exactly when a human
should re-review it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict

from ..rng import stable_hash

__all__ = ["Finding", "Severity"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings corrupt determinism or correctness outright;
    ``WARNING`` findings are hygiene/convention violations that make such
    corruption likely or hard to spot.  The self-hosting gate fails on
    both — severity is informational, not a filter.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    severity: Severity
    source: str = ""
    #: Index among findings sharing (rule_id, path, source text); makes the
    #: fingerprint unique when the same violating line appears twice.
    occurrence: int = 0
    fingerprint: str = field(init=False, default="")

    def __post_init__(self) -> None:
        digest = stable_hash(
            self.rule_id, self.path, self.source.strip(), self.occurrence
        )
        object.__setattr__(self, "fingerprint", format(digest, "016x"))

    @property
    def sort_key(self) -> tuple:
        """Deterministic ordering: by location, then rule."""
        return (self.path, self.line, self.column, self.rule_id, self.occurrence)

    def to_dict(self) -> Dict[str, Any]:
        """The public representation the JSON reporter prints."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
            "occurrence": self.occurrence,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        """The classic one-line compiler format."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )
