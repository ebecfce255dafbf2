"""The REP06x decade: shard-safety rules for the planned sharded study.

ROADMAP item 1 fans the six-week study out across worker processes.
That only preserves byte-identical artifacts if nothing inside the
shard boundary relies on cross-process sharing, merge order, or RNG
streams owned by another shard.  These rules prove (conservatively)
those properties over the :class:`~repro.analysis.graph.ProjectGraph`,
using the shard boundary declared with
:func:`repro.markers.shard_entry` / :func:`repro.markers.merge_point`:

* **REP060** — module-level or class-level mutable state (globals,
  mutable class attributes, mutable default arguments) reachable from a
  declared shard entry point.  Each worker process mutates a private
  copy, so cross-shard artifacts silently diverge.
* **REP061** — order-sensitive aggregation inside a declared merge
  point: unsorted dict/set iteration or a fold that accumulates an
  unordered iterable in arrival order.  Merge output must be a pure
  function of shard *contents*, never shard *arrival order*.
* **REP062** — RNG-stream escape: a ``SeededRng`` fork-labelled stream
  reachable from two different shard entry points, or from one entry
  point *and* merge code.  Fork-label ownership must follow the process
  boundary, extending the single-process audit REP041 performs.
* **REP063** — checkpoint blind spots: a mutable class used inside the
  shard boundary whose name is absent from ``checkpoint.serde``'s
  ``SERDE_REGISTRY`` — state that would silently not survive a
  per-shard resume.

Every finding carries a taint-style witness chain from the declared
boundary function down to the evidence site, mirroring
:mod:`repro.analysis.taint`'s traces.  With no declared entry points
the boundary-scoped rules emit nothing: the decade is inert until a
tree opts in, and load-bearing from the first declaration on.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from .findings import Finding, Severity
from .graph import FunctionKey, ProjectGraph, chain_str, key_str
from .rules import ProjectRule, register

__all__ = [
    "OrderSensitiveMergeRule",
    "RngStreamEscapeRule",
    "SharedMutableStateRule",
    "UnregisteredCheckpointStateRule",
]

#: The constant in ``checkpoint.serde`` naming every class whose state
#: the snapshot covers; REP063 audits shard-reachable classes against it.
SERDE_REGISTRY_NAME = "SERDE_REGISTRY"

#: Methods whose ``self.x`` writes are construction, not mutation.
_CTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


@register
class SharedMutableStateRule(ProjectRule):
    """REP060: mutable state shared across shard worker processes."""

    rule_id = "REP060"
    title = "mutable state inside the shard boundary"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = graph.shard_entries()
        if not entries:
            return
        chains = graph.propagate(entries, "callees")
        reachable = sorted(chains)
        reported: Set[Tuple[str, int, str]] = set()

        # Module-level mutable globals read by shard-reachable code.
        for key in reachable:
            fn = graph.function(key)
            module = graph.modules.get(key[0])
            if fn is None or module is None:
                continue
            for name in fn.loads:
                resolved = graph.resolve_global(module, name)
                if resolved is None:
                    continue
                owner, site = resolved
                if not self.applies_to_summary(owner):
                    continue
                dedup = (owner.path, site.line, site.name)
                if dedup in reported:
                    continue
                reported.add(dedup)
                yield Finding(
                    rule_id=self.rule_id,
                    path=owner.path,
                    line=site.line,
                    column=site.column,
                    message=(
                        f"module-level {site.kind} '{site.name}' is read"
                        f" inside the shard boundary"
                        f" ({chain_str(chains[key])}); each"
                        " worker process mutates a private copy, so"
                        " cross-shard state silently diverges — make it"
                        " immutable or pass per-shard state explicitly"
                    ),
                    severity=self.severity,
                    source=site.source,
                )

        # Class-level mutable attributes on shard-reachable classes.
        for key in reachable:
            module = graph.modules.get(key[0])
            if module is None or not self.applies_to_summary(module):
                continue
            class_name = key[1].split(".")[0]
            klass = module.classes.get(class_name)
            if klass is None:
                continue
            for site in klass.mutable_attrs:
                dedup = (module.path, site.line, site.name)
                if dedup in reported:
                    continue
                reported.add(dedup)
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.path,
                    line=site.line,
                    column=site.column,
                    message=(
                        f"class-level {site.kind}"
                        f" '{class_name}.{site.name}' is mutable state"
                        " shared by every instance inside the shard"
                        f" boundary ({chain_str(chains[key])});"
                        " use an instance attribute or a default_factory"
                    ),
                    severity=self.severity,
                    source=site.source,
                )

        # Mutable default arguments on shard-reachable functions.
        for key in reachable:
            fn = graph.function(key)
            module = graph.modules.get(key[0])
            if fn is None or module is None:
                continue
            if not self.applies_to_summary(module):
                continue
            for site in fn.mutable_defaults:
                dedup = (module.path, site.line, f"{fn.qualname}:{site.name}")
                if dedup in reported:
                    continue
                reported.add(dedup)
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.path,
                    line=site.line,
                    column=site.column,
                    message=(
                        f"'{fn.qualname}' has mutable default"
                        f" '{site.name}' ({site.kind}) inside the shard"
                        f" boundary ({chain_str(chains[key])});"
                        " the default accumulates per-process state —"
                        " default to None and construct per call"
                    ),
                    severity=self.severity,
                    source=site.source,
                )


@register
class OrderSensitiveMergeRule(ProjectRule):
    """REP061: aggregation order leaks into a declared merge point."""

    rule_id = "REP061"
    title = "order-sensitive aggregation at a merge point"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for summary, fn in graph.functions():
            if not fn.is_merge_point or not self.applies_to_summary(summary):
                continue
            for hazard in fn.merge_hazards:
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=hazard.line,
                    column=hazard.column,
                    message=(
                        f"merge point '{fn.qualname}' {hazard.detail}"
                        f" ({hazard.kind}); merge output must be a pure"
                        " function of shard contents, not arrival order"
                        " — iterate sorted(...) or fold into an"
                        " order-insensitive structure"
                    ),
                    severity=self.severity,
                    source=hazard.source,
                )


@register
class RngStreamEscapeRule(ProjectRule):
    """REP062: a fork-labelled stream crosses the shard boundary."""

    rule_id = "REP062"
    title = "rng stream escapes the shard boundary"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = graph.shard_entries()
        if not entries:
            return
        entry_chains = {
            entry: graph.propagate([entry], "callees") for entry in entries
        }
        merge_chains = graph.propagate(graph.merge_points(), "callees")

        for summary in sorted(graph.summaries, key=lambda s: s.path):
            if not self.applies_to_summary(summary):
                continue
            for fork in summary.fork_labels:
                key = (summary.module, fork.qualname)
                owners = [
                    entry for entry in entries
                    if key in entry_chains[entry]
                ]
                if len(owners) >= 2:
                    chains = "; ".join(
                        chain_str(entry_chains[entry][key])
                        for entry in owners
                    )
                    yield Finding(
                        rule_id=self.rule_id,
                        path=summary.path,
                        line=fork.line,
                        column=fork.column,
                        message=(
                            f"stream '{fork.label}' is forked inside"
                            f" {len(owners)} shard entry points"
                            f" ({chains}); each worker would draw the"
                            " same sequence — fork per-shard children"
                            " at the boundary instead"
                        ),
                        severity=self.severity,
                        source=fork.source,
                    )
                elif owners and key in merge_chains:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=summary.path,
                        line=fork.line,
                        column=fork.column,
                        message=(
                            f"stream '{fork.label}' is owned by shard"
                            f" entry point {key_str(owners[0])} but also"
                            " flows into merge code"
                            f" ({chain_str(merge_chains[key])});"
                            " merge code must not draw from shard-owned"
                            " streams"
                        ),
                        severity=self.severity,
                        source=fork.source,
                    )


@register
class UnregisteredCheckpointStateRule(ProjectRule):
    """REP063: shard-reachable mutable class missing from the registry."""

    rule_id = "REP063"
    title = "mutable shard state absent from the checkpoint registry"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = graph.shard_entries()
        if not entries:
            return
        registry: Optional[Set[str]] = None
        for summary in sorted(graph.summaries, key=lambda s: s.path):
            names = summary.string_sets.get(SERDE_REGISTRY_NAME)
            if names is not None:
                registry = (registry or set()) | set(names)
        if registry is None:
            # No registry in the analyzed scope — nothing to audit
            # against (the rule never guesses a registry).
            return

        chains = graph.propagate(entries, "callees")
        witnesses: Dict[Tuple[str, str], FunctionKey] = {}
        # The class owning a declared entry-point method is shard state
        # itself; so is every class constructed inside the closure.
        for key in sorted(chains):
            module = graph.modules.get(key[0])
            fn = graph.function(key)
            if module is None or fn is None:
                continue
            class_name = key[1].split(".")[0]
            if class_name in module.classes:
                class_key = (module.module, class_name)
                witnesses.setdefault(class_key, key)
            for call in fn.calls:
                if call.kind == "name":
                    resolved = graph.resolve_class_reference(module, call.name)
                elif call.kind == "typed":
                    resolved = graph.resolve_class_reference(
                        module, call.qualifier
                    )
                else:
                    continue
                if resolved is not None:
                    witnesses.setdefault(resolved, key)

        for class_key in sorted(witnesses):
            klass = graph.class_summary(class_key)
            owner = graph.modules.get(class_key[0])
            if klass is None or owner is None:
                continue
            if not self.applies_to_summary(owner):
                continue
            if klass.name in registry:
                continue
            if not self._is_mutable(owner, klass):
                continue
            chain = chain_str(chains[witnesses[class_key]])
            yield Finding(
                rule_id=self.rule_id,
                path=owner.path,
                line=klass.line,
                column=klass.column,
                message=(
                    f"mutable class '{klass.name}' is used inside the"
                    f" shard boundary ({chain}) but absent from"
                    " checkpoint.serde's SERDE_REGISTRY; its state"
                    " silently fails to survive a per-shard resume —"
                    " register it or allow[REP063] with a reason"
                ),
                severity=self.severity,
                source=klass.source,
            )

    @staticmethod
    def _is_mutable(owner, klass) -> bool:
        """Mutable = class-level containers or post-init self writes."""
        if klass.mutable_attrs:
            return True
        for method_name in sorted(klass.methods):
            if method_name in _CTOR_METHODS:
                continue
            fn = owner.functions.get(klass.methods[method_name])
            if fn is not None and fn.self_writes:
                return True
        return False
