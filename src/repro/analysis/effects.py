"""Interprocedural effect inference and the REP07x purity decade.

The shard merge (byte-identical payloads, PR 7) and the order-free
traffic admission (PR 8) both rest on one contract: verdict-style
functions are *pure functions of their arguments*.  Until now that was
asserted by hypothesis tests only.  This pass makes it checked-in:

* :func:`infer_effects` computes, per function, an effect summary over
  the :class:`~repro.analysis.graph.ProjectGraph` — which of
  ``writes-global`` / ``writes-captured`` / ``writes-self`` /
  ``writes-param`` / ``reads-global`` / ``draws-rng`` / ``reads-clock``
  / ``performs-io`` / ``calls-unknown`` the function exhibits, each
  with a witness :class:`EffectTrace` down to the carrier statement.
  Direct evidence comes from the collector's
  :class:`~repro.analysis.graph.EffectSite` records plus the taint
  pass's source seeds; propagation is the graph's shared fixpoint
  (:meth:`~repro.analysis.graph.ProjectGraph.propagate`, the one taint
  uses), run once per effect kind, so witness chains are byte-identical
  across runs and processes.
* The boundary is declared with :func:`repro.markers.pure_function`.
  The decade is inert until a tree opts in, and load-bearing from the
  first declaration on — exactly like the REP06x shard markers.

Rules:

* **REP070** — a declared-pure function with a *direct* inferred
  effect (write, RNG draw, clock read, I/O), anchored at the offending
  statement.
* **REP071** — an impure callee *reachable* from a declared-pure
  function, with the full call-chain witness (the REP040 shape).
* **REP072** — a declared-pure function reading module-level mutable
  state not passed as a parameter, directly or through helpers (the
  ``admit_dns`` regression class: a verdict that consults engine/world
  state stops being a function of its inputs).
* **REP073** — a declared ``@merge_point`` calling effectful helpers
  whose writes escape the merge (module globals, captured closures) —
  extending REP061 from *order* to *effects*.

Sanctioned surfaces: the ``rng.py`` / ``clock.py`` wrapper modules
never seed effects (their internals are the whole point), and neither
does :mod:`repro.obs.metrics` — counter increments are the sanctioned
observability channel, merged by commutative sum, so recording a
verdict does not make the verdict impure.  Calls through injected
``SeededRng`` / ``SimulationClock`` parameters are already dropped from
the call graph by the sanitizer logic, so effects cannot propagate
through them either.  ``calls-unknown`` (a method call on a receiver
the conservative resolver cannot place) is informational only: it is
reported in summaries for auditability but never raised as a finding,
because nearly every stdlib method call is "unknown" to a
project-scoped resolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .findings import Finding, Severity
from .graph import (
    FunctionKey,
    FunctionSummary,
    ModuleSummary,
    ProjectGraph,
    SANITIZED,
    chain_str,
    key_str,
)
from .rules import ProjectRule, register

__all__ = [
    "EFFECT_KINDS",
    "EFFECT_SANCTIONED_MODULES",
    "AmbientStateReadRule",
    "EffectAtom",
    "EffectTrace",
    "EffectsResult",
    "ImpureMergeHelperRule",
    "PureFunctionEffectRule",
    "TransitiveImpurityRule",
    "infer_effects",
]

#: Modules whose internal writes are a sanctioned observability channel:
#: MetricsRegistry counters are injectable, deterministic, and merge by
#: commutative sum, so incrementing one does not perturb any verdict.
EFFECT_SANCTIONED_MODULES = frozenset({"repro.obs.metrics"})

#: Methods whose ``self.x`` writes are construction, not mutation
#: (kept in sync with the REP063 rule's set by the registry tests).
_CTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: The effect lattice atoms, in reporting order.
EFFECT_KINDS: Tuple[str, ...] = (
    "writes-global",
    "writes-captured",
    "writes-self",
    "writes-param",
    "reads-global",
    "draws-rng",
    "reads-clock",
    "performs-io",
    "calls-unknown",
)

#: Kinds that break a ``@pure_function`` declaration outright (REP070/
#: REP071).  ``reads-global`` is REP072's, ``calls-unknown`` is data.
_IMPURE_KINDS = (
    "writes-global", "writes-captured", "writes-self", "writes-param",
    "draws-rng", "reads-clock", "performs-io",
)
#: Write kinds that outlive a merge-point call (REP073): parameter and
#: self writes stay inside the merge's own state; global and captured
#: writes escape it.
_ESCAPING_WRITES = ("writes-global", "writes-captured")

#: Call kinds whose empty resolution means "unknown receiver".  Plain
#: ``name`` calls are excluded — unresolved names are stdlib builtins.
_UNKNOWN_CALL_KINDS = frozenset(
    {"obj", "other", "param", "paramattr", "selfattr", "typed"}
)


@dataclass(frozen=True)
class EffectAtom:
    """One concrete piece of effect evidence inside one function."""

    kind: str
    target: str
    detail: str
    line: int
    column: int = 0
    source: str = ""


@dataclass(frozen=True)
class EffectTrace:
    """Why one function carries an effect kind.

    ``chain`` runs from the function itself down to the *carrier* — the
    function holding the direct evidence (one element when the function
    is the carrier itself).
    """

    chain: Tuple[FunctionKey, ...]
    atom: EffectAtom

    @property
    def carrier(self) -> FunctionKey:
        return self.chain[-1]

    @property
    def is_direct(self) -> bool:
        return len(self.chain) == 1


@dataclass
class EffectsResult:
    """Converged per-function effect summaries plus their inputs."""

    direct: Dict[FunctionKey, Tuple[EffectAtom, ...]]
    traces: Dict[FunctionKey, Dict[str, EffectTrace]]

    def trace(self, key: FunctionKey, kind: str):
        """The first-wins witness trace for one (function, kind)."""
        return self.traces.get(key, {}).get(kind)

    def kinds(self, key: FunctionKey) -> Tuple[str, ...]:
        """The function's effect summary, in lattice order."""
        present = self.traces.get(key, {})
        return tuple(kind for kind in EFFECT_KINDS if kind in present)


def _effect_sanctioned(summary: ModuleSummary) -> bool:
    return summary.sanctioned or summary.module in EFFECT_SANCTIONED_MODULES


def _classify_write(graph: ProjectGraph, summary: ModuleSummary,
                    fn: FunctionSummary, root: str) -> str:
    """Which write kind a store through ``root`` is, from ``fn``."""
    if graph.resolve_global(summary, root) is not None:
        return "writes-global"
    if root in summary.bindings:
        # Writing through an import binding mutates another module's
        # state (``config.DEBUG = True``).
        return "writes-global"
    if (
        fn.parent is not None
        and root not in summary.functions
        and root not in summary.classes
    ):
        # A nested function writing a free root it can only have
        # captured from the enclosing scope.
        return "writes-captured"
    return "writes-global"


def _direct_atoms(graph: ProjectGraph, summary: ModuleSummary,
                  fn: FunctionSummary) -> List[EffectAtom]:
    """Direct effect evidence for one function, in a stable order."""
    atoms: List[EffectAtom] = []
    for site in fn.effects:
        if site.kind == "io":
            atoms.append(
                EffectAtom(
                    "performs-io", site.target, site.detail,
                    site.line, site.column, site.source,
                )
            )
            continue
        root = site.root
        if root == "self":
            if fn.name in _CTOR_METHODS:
                continue  # constructing fresh state is not an effect
            kind = "writes-self"
        else:
            param = fn.param(root)
            if param is not None:
                if param.is_injected:
                    continue  # injected rng/clock use is sanitized
                kind = "writes-param"
            else:
                kind = _classify_write(graph, summary, fn, root)
        atoms.append(
            EffectAtom(
                kind, site.target, site.detail,
                site.line, site.column, site.source,
            )
        )
    for reason in fn.taint_reasons:
        kind = "reads-clock" if reason.kind == "wall-clock" else "draws-rng"
        atoms.append(
            EffectAtom(kind, reason.detail, f"{reason.kind}: {reason.detail}",
                       reason.line)
        )
    for name in fn.loads:
        resolved = graph.resolve_global(summary, name)
        if resolved is None:
            continue
        owner, site = resolved
        atoms.append(
            EffectAtom(
                "reads-global", name,
                f"reads module-level {site.kind} '{site.name}'"
                f" ({owner.path}:{site.line})",
                fn.load_lines.get(name, fn.line),
            )
        )
    for call in fn.calls:
        if call.kind not in _UNKNOWN_CALL_KINDS:
            continue
        resolved = graph.resolve_call(summary, fn, call)
        if resolved != SANITIZED and not resolved:
            atoms.append(
                EffectAtom(
                    "calls-unknown", call.name,
                    f"method call '.{call.name}()' on an unresolvable"
                    " receiver",
                    call.line,
                )
            )
    return atoms


def infer_effects(graph: ProjectGraph) -> EffectsResult:
    """Run the per-kind reachability fixpoints; deterministic everywhere.

    The result is memoized on the graph instance (all four REP07x rules
    consume it within one engine run), mirroring how the taint result
    is cheap enough to recompute but the effects pass — nine kinds over
    the full call graph — is not.
    """
    cached = getattr(graph, "_effects_result", None)
    if cached is not None:
        return cached

    direct: Dict[FunctionKey, Tuple[EffectAtom, ...]] = {}
    for summary, fn in graph.functions():
        if _effect_sanctioned(summary):
            continue
        atoms = _direct_atoms(graph, summary, fn)
        if atoms:
            direct[(summary.module, fn.qualname)] = tuple(atoms)

    traces: Dict[FunctionKey, Dict[str, EffectTrace]] = {}
    for kind in EFFECT_KINDS:
        carriers: Dict[FunctionKey, EffectAtom] = {}
        for key in sorted(direct):
            for atom in direct[key]:
                if atom.kind == kind:
                    carriers[key] = atom
                    break
        if kind == "calls-unknown":
            # Unknown-call evidence stays local: propagating it would
            # saturate the graph with stdlib noise.
            chains = {key: (key,) for key in carriers}
        else:
            chains = graph.propagate(carriers, "callers")
        for key, chain in chains.items():
            traces.setdefault(key, {})[kind] = EffectTrace(
                chain=chain, atom=carriers[chain[-1]]
            )

    result = EffectsResult(direct=direct, traces=traces)
    graph._effects_result = result
    return result


def _pure_functions(graph: ProjectGraph):
    for summary, fn in graph.functions():
        if fn.is_pure_function:
            yield summary, fn


@register
class PureFunctionEffectRule(ProjectRule):
    """REP070: a declared-pure function with a direct inferred effect."""

    rule_id = "REP070"
    title = "declared @pure_function has a direct effect"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        result = infer_effects(graph)
        for summary, fn in _pure_functions(graph):
            if not self.applies_to_summary(summary):
                continue
            key = (summary.module, fn.qualname)
            reported = set()
            for atom in result.direct.get(key, ()):
                if atom.kind not in _IMPURE_KINDS:
                    continue
                dedup = (atom.kind, atom.target, atom.line)
                if dedup in reported:
                    continue
                reported.add(dedup)
                # Mutation/IO sites carry their own source line; the
                # taint-derived atoms anchor at the declaration.
                if atom.source:
                    line, column, source = atom.line, atom.column, atom.source
                else:
                    line, column, source = fn.line, fn.column, fn.source
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=line,
                    column=column,
                    message=(
                        f"'{fn.qualname}' is declared @pure_function but"
                        f" {atom.kind} (line {atom.line}): {atom.detail};"
                        " remove the effect or drop the declaration"
                    ),
                    severity=self.severity,
                    source=source,
                )


@register
class TransitiveImpurityRule(ProjectRule):
    """REP071: an impure callee is reachable from a declared-pure fn."""

    rule_id = "REP071"
    title = "impure callee reachable from @pure_function"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        result = infer_effects(graph)
        for summary, fn in _pure_functions(graph):
            if not self.applies_to_summary(summary):
                continue
            key = (summary.module, fn.qualname)
            for kind in _IMPURE_KINDS:
                trace = result.trace(key, kind)
                if trace is None or trace.is_direct:
                    continue  # direct effects are REP070's
                atom = trace.atom
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=fn.line,
                    column=fn.column,
                    message=(
                        f"'{fn.qualname}' is declared @pure_function but"
                        f" reaches an impure callee:"
                        f" {chain_str(trace.chain)} ({kind}:"
                        f" {atom.detail} in {key_str(trace.carrier)} at"
                        f" line {atom.line}); purify the callee, route"
                        " around it, or drop the declaration"
                    ),
                    severity=self.severity,
                    source=fn.source,
                )


@register
class AmbientStateReadRule(ProjectRule):
    """REP072: a pure-verdict function reads state not passed to it."""

    rule_id = "REP072"
    title = "@pure_function reads ambient module state"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        result = infer_effects(graph)
        for summary, fn in _pure_functions(graph):
            if not self.applies_to_summary(summary):
                continue
            key = (summary.module, fn.qualname)
            reported = set()
            for atom in result.direct.get(key, ()):
                if atom.kind != "reads-global" or atom.target in reported:
                    continue
                reported.add(atom.target)
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=fn.line,
                    column=fn.column,
                    message=(
                        f"'{fn.qualname}' is declared @pure_function but"
                        f" {atom.detail} at line {atom.line}; its verdict"
                        " depends on state not passed as a parameter —"
                        " pass the value in or freeze the global"
                    ),
                    severity=self.severity,
                    source=fn.source,
                )
            trace = result.trace(key, "reads-global")
            if trace is not None and not trace.is_direct:
                atom = trace.atom
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=fn.line,
                    column=fn.column,
                    message=(
                        f"'{fn.qualname}' is declared @pure_function but"
                        " reads ambient module state through a helper:"
                        f" {chain_str(trace.chain)} ({atom.detail} in"
                        f" {key_str(trace.carrier)} at line {atom.line});"
                        " pass the value in or freeze the global"
                    ),
                    severity=self.severity,
                    source=fn.source,
                )


@register
class ImpureMergeHelperRule(ProjectRule):
    """REP073: a merge point calls helpers whose writes escape it."""

    rule_id = "REP073"
    title = "merge point reaches an escaping write"
    severity = Severity.ERROR

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        result = infer_effects(graph)
        for summary, fn in graph.functions():
            if not fn.is_merge_point or not self.applies_to_summary(summary):
                continue
            key = (summary.module, fn.qualname)
            for kind in _ESCAPING_WRITES:
                trace = result.trace(key, kind)
                if trace is None or trace.is_direct:
                    # The merge point's own global writes are REP060/
                    # REP070 territory; this rule audits its helpers.
                    continue
                atom = trace.atom
                yield Finding(
                    rule_id=self.rule_id,
                    path=summary.path,
                    line=fn.line,
                    column=fn.column,
                    message=(
                        f"merge point '{fn.qualname}' calls an effectful"
                        f" helper whose writes escape the merge:"
                        f" {chain_str(trace.chain)} ({kind}:"
                        f" {atom.detail} in {key_str(trace.carrier)} at"
                        f" line {atom.line}); merge output must depend"
                        " only on the shard payloads it is handed"
                    ),
                    severity=self.severity,
                    source=fn.source,
                )
