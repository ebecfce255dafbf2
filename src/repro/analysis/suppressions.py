"""Inline suppressions: ``# repro: allow[REP0xx] -- reason``.

A suppression comment on a violating line silences matching findings on
that exact line — the lightweight alternative to a baseline entry when
the exception is local and self-explanatory::

    started = time.perf_counter()  # repro: allow[REP002] -- reporting only

Suppressions mirror the baseline's discipline: one that matches no
finding is itself reported (a *stale suppression*, REP050), so dead
``allow`` comments cannot accrete, and one without a ``-- reason`` is
reported too — every exception carries its justification in-line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from .findings import Finding, Severity
from .rules import ModuleContext, Rule, register

__all__ = ["Suppression", "StaleSuppressionRule", "scan_suppressions"]

#: An ``allow`` comment: the directive must *start* the comment, so a
#: comment or docstring that merely quotes the syntax does not count.
_SUPPRESSION_RE = re.compile(
    r"^#\s*repro:\s*allow\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``allow`` comment."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str
    source: str


def _comment_tokens(lines: Sequence[str]) -> List[Tuple[int, str]]:
    """Real ``#`` comment tokens as (line, text); docstrings excluded.

    Tokenizing (rather than regex-scanning raw lines) is what keeps a
    string literal that *quotes* the suppression syntax from acting as
    one.  Unparseable tail ends (the tokenizer can trip on trailing
    edits) degrade to whatever comments were seen before the error.
    """
    comments: List[Tuple[int, str]] = []
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def scan_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Find every suppression comment in a module's source lines."""
    found: List[Suppression] = []
    for lineno, comment in _comment_tokens(lines):
        match = _SUPPRESSION_RE.match(comment)
        if match is None:
            continue
        ids = tuple(
            part.strip()
            for part in match.group("ids").split(",")
            if part.strip()
        )
        found.append(
            Suppression(
                line=lineno,
                rule_ids=ids,
                reason=(match.group("reason") or "").strip(),
                source=lines[lineno - 1] if lineno <= len(lines) else comment,
            )
        )
    return found


@register
class StaleSuppressionRule(Rule):
    """REP050: inline suppression that suppresses nothing.

    The rule itself is a placeholder: matching suppressions against
    findings needs the whole run's findings, so the *engine* emits
    REP050 findings after applying suppressions.  Registering the ID
    keeps ``--select`` / ``--ignore`` validation and the rule listing
    coherent, and ``--ignore-unused-suppressions`` is sugar for
    ignoring this rule.
    """

    rule_id = "REP050"
    title = "stale inline suppression"
    severity = Severity.WARNING

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        return iter(())

    @staticmethod
    def stale_finding(path: str, suppression: Suppression, reason: str) -> Finding:
        """Build the engine-emitted finding for one stale suppression."""
        return Finding(
            rule_id=StaleSuppressionRule.rule_id,
            path=path,
            line=suppression.line,
            column=0,
            message=reason,
            severity=StaleSuppressionRule.severity,
            source=suppression.source,
        )
