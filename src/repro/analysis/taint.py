"""Fixpoint determinism taint propagation over the project call graph.

Taint *sources* are functions with direct nondeterminism evidence —
ambient ``random``/``time``/OS-entropy use (the REP001/REP002/REP005
patterns) or an explicit :func:`repro.markers.nondeterministic` marker.
Taint propagates backwards along call edges: a caller of a tainted
function is tainted, unless the edge is *sanitized* — the call goes
through an injected ``SeededRng``/``SimulationClock`` parameter, whose
output is reproducible by construction.  Sanitized edges are already
dropped by :meth:`ProjectGraph.call_edges`, so propagation here is
the graph's shared reachability fixpoint, run from the sources towards
callers (:meth:`ProjectGraph.propagate`).

Each tainted function records a witness *chain* down to one source, so
findings can show the reviewer the exact call path that leaks
nondeterminism instead of a bare verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .graph import FunctionKey, ProjectGraph, TaintReason

__all__ = ["TaintResult", "TaintTrace", "propagate_taint"]


@dataclass(frozen=True)
class TaintTrace:
    """Why one function is tainted.

    ``chain`` runs from the function itself down to the source
    (inclusive at both ends); a direct source has a one-element chain.
    ``reasons`` are the *source's* direct evidence.
    """

    chain: Tuple[FunctionKey, ...]
    reasons: Tuple[TaintReason, ...]

    @property
    def source(self) -> FunctionKey:
        return self.chain[-1]

    @property
    def is_direct(self) -> bool:
        return len(self.chain) == 1


@dataclass
class TaintResult:
    """The converged taint set."""

    tainted: Dict[FunctionKey, TaintTrace]

    def trace(self, key: FunctionKey) -> Optional[TaintTrace]:
        return self.tainted.get(key)


def _direct_sources(graph: ProjectGraph) -> Dict[FunctionKey, Tuple[TaintReason, ...]]:
    sources: Dict[FunctionKey, Tuple[TaintReason, ...]] = {}
    for summary, fn in graph.functions():
        if summary.sanctioned:
            # rng.py / clock.py *define* the sanctioned wrappers; their
            # internal entropy use is the whole point, not a leak.
            continue
        if fn.taint_reasons:
            sources[(summary.module, fn.qualname)] = tuple(fn.taint_reasons)
    return sources


def propagate_taint(graph: ProjectGraph) -> TaintResult:
    """Run the reachability fixpoint towards callers.

    :meth:`ProjectGraph.propagate` makes the witness chain the same on
    every run when a function reaches several sources.
    """
    sources = _direct_sources(graph)
    chains = graph.propagate(sources, "callers")
    return TaintResult(tainted={
        key: TaintTrace(chain=chain, reasons=sources[chain[-1]])
        for key, chain in chains.items()
    })
