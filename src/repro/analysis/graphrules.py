"""The REP04x decade: project-wide determinism-contract rules.

These rules consume the :class:`~repro.analysis.graph.ProjectGraph`
instead of a single module, so they can prove (conservatively) the
properties the per-file REP00x rules only spot-check:

* **REP040** — a function with no nondeterminism of its own calls,
  possibly through several hops, one that reads the wall clock, ambient
  randomness, or OS entropy, and no injected ``SeededRng`` /
  ``SimulationClock`` parameter sanitizes the chain.
* **REP041** — correlated randomness: the same ``SeededRng.fork()``
  label used at two different sites, or one un-forked stream handed to
  multiple consumers; either way two "independent" subsystems draw the
  same numbers.
* **REP042** — an injected rng/clock parameter silently substituted by
  a locally-constructed fallback (``rng if rng is not None else
  SeededRng(...)``), which makes the injection contract optional.
* **REP043** — a name exported through ``__all__`` that nothing in the
  project (or its tests/examples/benchmarks/campaignbench) references:
  dead public surface that rots unchecked.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .findings import Finding, Severity
from .graph import ForkLabel, ProjectGraph, chain_str, key_str
from .rules import ProjectRule, register
from .taint import propagate_taint

__all__ = [
    "CorrelatedStreamsRule",
    "DeadExportRule",
    "ShadowedInjectionRule",
    "TransitiveNondeterminismRule",
]


@register
class TransitiveNondeterminismRule(ProjectRule):
    """REP040: nondeterminism reaches this function through its calls."""

    rule_id = "REP040"
    title = "transitive nondeterminism"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        result = propagate_taint(graph)
        for summary, fn in graph.functions():
            if not self.applies_to_summary(summary) or summary.sanctioned:
                continue
            trace = result.trace((summary.module, fn.qualname))
            if trace is None or trace.is_direct:
                # Direct sources are the per-file rules' (or the
                # @nondeterministic marker's) responsibility.
                continue
            reason = trace.reasons[0]
            yield Finding(
                rule_id=self.rule_id,
                path=summary.path,
                line=fn.line,
                column=fn.column,
                message=(
                    f"'{fn.qualname}' is transitively nondeterministic: "
                    f"{chain_str(trace.chain)} "
                    f"({reason.kind}: {reason.detail} in "
                    f"{key_str(trace.source)});"
                    " inject a SeededRng/SimulationClock or mark the chain"
                    " @nondeterministic"
                ),
                severity=self.severity,
                source=fn.source,
            )


@register
class CorrelatedStreamsRule(ProjectRule):
    """REP041: two consumers share one random stream."""

    rule_id = "REP041"
    title = "correlated rng streams"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        # Duplicate fork labels across the whole project: fork(label) is
        # a pure function of (seed, label), so two sites forking the
        # same parent with the same label get byte-identical streams.
        by_label: Dict[str, List[Tuple[str, ForkLabel]]] = {}
        for summary in sorted(graph.summaries, key=lambda s: s.path):
            if not self.applies_to_summary(summary):
                continue
            for fork in summary.fork_labels:
                by_label.setdefault(fork.label, []).append(
                    (summary.path, fork)
                )
        for label in sorted(by_label):
            sites = by_label[label]
            distinct = {(path, fork.qualname) for path, fork in sites}
            if len(distinct) < 2:
                continue
            site_list = ", ".join(
                sorted(f"{path}:{fork.line}" for path, fork in sites)
            )
            for path, fork in sites:
                yield Finding(
                    rule_id=self.rule_id,
                    path=path,
                    line=fork.line,
                    column=fork.column,
                    message=(
                        f"fork label '{label}' is reused across sites"
                        f" ({site_list}); identical labels on the same"
                        " parent correlate streams that should be"
                        " independent"
                    ),
                    severity=self.severity,
                    source=fork.source,
                )
        # One un-forked stream passed onward more than once from the
        # same function: downstream consumers interleave draws from a
        # single sequence, so adding a draw in one silently reshuffles
        # the other.
        for summary, fn in graph.functions():
            if not self.applies_to_summary(summary) or summary.sanctioned:
                continue
            by_stream: Dict[str, List[int]] = {}
            for identifier, line in fn.rng_args:
                by_stream.setdefault(identifier, []).append(line)
            for identifier in sorted(by_stream):
                lines = by_stream[identifier]
                if len(set(lines)) < 2:
                    continue
                where = ", ".join(str(line) for line in sorted(set(lines)))
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=fn.line,
                    column=fn.column,
                    message=(
                        f"'{fn.qualname}' passes the un-forked stream"
                        f" '{identifier}' to multiple consumers (lines"
                        f" {where}); fork() a labelled child per consumer"
                    ),
                    severity=self.severity,
                    source=fn.source,
                )


@register
class ShadowedInjectionRule(ProjectRule):
    """REP042: injected dependency silently replaced by a fallback."""

    rule_id = "REP042"
    title = "injected dependency shadowed by fallback"
    severity = Severity.WARNING

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for summary in sorted(graph.summaries, key=lambda s: s.path):
            if not self.applies_to_summary(summary) or summary.sanctioned:
                continue
            for site in summary.shadows:
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=site.line,
                    column=site.column,
                    message=(
                        f"'{site.qualname}' substitutes injected"
                        f" '{site.param}' with a local fallback; callers"
                        " that omit it silently leave the composition"
                        " root's seed plan"
                    ),
                    severity=self.severity,
                    source=site.source,
                )


@register
class DeadExportRule(ProjectRule):
    """REP043: ``__all__`` exports a name nothing references."""

    rule_id = "REP043"
    title = "dead public export"
    severity = Severity.WARNING

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for summary in sorted(graph.summaries, key=lambda s: s.path):
            if not self.applies_to_summary(summary):
                continue
            if not summary.exports:
                continue
            if summary.module in graph.star_imported_modules:
                # ``from <module> import *`` in a reference root binds
                # every __all__ name without mentioning any of them —
                # the whole export list is live.
                continue
            for export in summary.exports:
                if export.name in graph.external_references:
                    continue
                # "Referenced anywhere in src" includes the defining
                # module itself: a def/class statement and the __all__
                # string are not Load-context names, so a symbol that is
                # also *used* at home stays alive, while one that is
                # merely defined and exported does not.
                if any(
                    export.name in other.referenced
                    for other in graph.summaries
                ):
                    continue
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=export.line,
                    column=export.column,
                    message=(
                        f"'{export.name}' is exported in __all__ but"
                        " referenced nowhere in src, tests, examples,"
                        " benchmarks or campaignbench; drop the export or"
                        " the symbol"
                    ),
                    severity=self.severity,
                    source=export.source,
                )
