"""The project graph: per-module summaries and a conservative call graph.

The per-file REP0xx rules cannot see across module boundaries: a
function that never touches ``random`` itself can still corrupt a run by
calling one that does.  This module builds the whole-program layer the
REP04x rules need:

* :func:`summarize_module` distils one parsed module into a
  :class:`ModuleSummary` — import bindings, symbol table, per-function
  call sites, direct-nondeterminism evidence, fork labels, ``__all__``
  exports, and inline suppressions.  Summaries are plain typed
  dataclasses, which :mod:`repro.analysis.cache`'s generic codec
  round-trips through JSON: a warm ``repro lint`` run rebuilds the
  project graph from cached summaries without re-parsing a single file.
* :class:`ProjectGraph` stitches summaries into a module/import graph,
  a project-wide symbol table, and a conservative intra-project call
  graph (direct calls, imported symbols, ``self`` dispatch through base
  classes, annotated-parameter dispatch, locally-constructed receivers,
  and a unique-method-name fallback).

Call edges *through an injected* :class:`~repro.rng.SeededRng` or
:class:`~repro.clock.SimulationClock` parameter are marked sanitized —
randomness and time obtained through injection are reproducible by
construction, so taint must not flow through them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .rules import ModuleContext
from .suppressions import Suppression, scan_suppressions

__all__ = [
    "CallRef",
    "ClassSummary",
    "EffectSite",
    "ExportInfo",
    "ForkLabel",
    "FunctionSummary",
    "MergeHazard",
    "ModuleSummary",
    "ParamInfo",
    "ProjectGraph",
    "ShadowSite",
    "StateSite",
    "TaintReason",
    "module_name_for",
    "summarize_module",
]

#: Injected dependency types that sanitize a call edge.
SANITIZER_TYPES = frozenset({"SeededRng", "SimulationClock"})
#: Parameter names treated as injected streams even without annotations.
_RNG_PARAM_NAMES = frozenset({"rng"})
_CLOCK_PARAM_NAMES = frozenset({"clock"})
#: Modules that *define* the sanctioned wrappers; taint neither seeds
#: from nor propagates out of them (mirrors the per-file rules'
#: ``exempt_basenames`` for ``clock.py``).
SANCTIONED_BASENAMES = frozenset({"rng.py", "clock.py"})

#: Ubiquitous builtin/stdlib method names excluded from the
#: unique-method-name fallback — ``payload.items()`` must never resolve
#: to a project method that happens to be called ``items``.
_FALLBACK_DENYLIST = frozenset({
    "add", "append", "clear", "close", "copy", "count", "decode",
    "encode", "endswith", "extend", "format", "get", "index", "insert",
    "items", "join", "keys", "lower", "open", "partition", "pop",
    "read", "remove", "replace", "setdefault", "sort", "split",
    "startswith", "strip", "update", "upper", "values", "write",
})

#: ``time`` attributes that read the host clock (kept in sync with the
#: REP002 rule by the determinism tests).
_WALL_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "localtime", "gmtime",
})
_WALL_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_OS_ENTROPY_ATTRS = frozenset({"urandom", "getrandom"})
_UUID_ENTROPY_ATTRS = frozenset({"uuid1", "uuid4"})

#: Constructors whose result is a shared-mutable container (REP06x).
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
})
#: Mutating accumulator methods that make a fold arrival-order
#: sensitive when the folded iterable is unordered (REP061).
_FOLD_METHODS = frozenset({"append", "extend", "add", "update"})
#: Callables whose result iterates in a content-determined order, so a
#: fold over them is shard-order safe.
_ORDERED_ITER_CALLS = frozenset({"sorted", "range"})
#: Iteration wrappers that preserve their (first) argument's order.
_ORDER_PRESERVING_CALLS = frozenset({
    "enumerate", "reversed", "list", "tuple", "zip",
})

#: Container methods that mutate their receiver in place (REP07x
#: effect evidence; overlaps `_FOLD_METHODS` deliberately).
_MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update", "write", "writelines",
})
#: Builtin callables that perform I/O when called by name.
_IO_NAME_CALLS = frozenset({"input", "open", "print"})
#: ``os.*`` attributes that touch the filesystem or spawn processes.
_OS_IO_ATTRS = frozenset({
    "chmod", "chown", "makedirs", "mkdir", "popen", "remove",
    "removedirs", "rename", "replace", "rmdir", "system", "unlink",
})
#: Method names that are file I/O on any receiver (pathlib idiom).
_IO_ATTR_CALLS = frozenset({
    "read_bytes", "read_text", "write_bytes", "write_text",
})
#: Attribute roots whose calls are I/O outright.
_IO_ROOTS = frozenset({"shutil", "subprocess"})


def module_name_for(display_path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/obs/bench.py`` → ``repro.obs.bench``; a package
    ``__init__.py`` maps to the package itself.  A leading ``src``
    segment is dropped (the src-layout convention); paths outside the
    analysis root keep whatever segments they have.
    """
    parts = [part for part in display_path.split("/") if part not in ("", ".")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    parts[-1] = stem
    if stem == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Summary data model (round-tripped by the cache codec)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamInfo:
    """One parameter: its name and the identifiers in its annotation."""

    name: str
    annotation_names: Tuple[str, ...] = ()

    @property
    def is_rng(self) -> bool:
        return "SeededRng" in self.annotation_names or self.name in _RNG_PARAM_NAMES

    @property
    def is_clock(self) -> bool:
        return (
            "SimulationClock" in self.annotation_names
            or self.name in _CLOCK_PARAM_NAMES
        )

    @property
    def is_injected(self) -> bool:
        return self.is_rng or self.is_clock


@dataclass(frozen=True)
class CallRef:
    """One call site, classified by how its receiver can be resolved.

    ``kind`` is one of ``name`` (plain ``f()``), ``self`` (``self.m()``),
    ``param`` (``p.m()`` on a parameter), ``paramattr`` (``p.x.m()``
    on a parameter's attribute; ``qualifier`` is ``p.x``), ``typed``
    (``v.m()`` on a local constructed as ``v = Cls(...)``), ``obj``
    (``q.m()`` on another name — import alias or class), ``selfattr``
    (``self.x.m()``), ``other`` (deeper chains, unique-method fallback
    only), and ``contained`` (implicit edge to a nested ``def``).
    """

    kind: str
    name: str
    qualifier: str = ""
    line: int = 0


@dataclass(frozen=True)
class TaintReason:
    """Direct nondeterminism evidence inside one function body."""

    kind: str  # "ambient-random" | "wall-clock" | "os-entropy" | "marker"
    detail: str
    line: int


@dataclass(frozen=True)
class ForkLabel:
    """One ``<rng>.fork("label")`` call with a constant label."""

    label: str
    line: int
    column: int
    source: str
    qualname: str


@dataclass(frozen=True)
class ShadowSite:
    """An injected rng/clock parameter substituted by a local fallback."""

    param: str
    line: int
    column: int
    source: str
    qualname: str


@dataclass(frozen=True)
class ExportInfo:
    """One name exported through ``__all__``."""

    name: str
    line: int
    column: int
    source: str


@dataclass(frozen=True)
class StateSite:
    """One mutable-state definition site (REP060/REP063 evidence).

    Used for module-level globals, class-level attributes, and mutable
    default arguments alike; ``kind`` names the container constructor
    (``list``/``dict``/``set``/...).
    """

    name: str
    line: int
    column: int
    source: str
    kind: str


@dataclass(frozen=True)
class MergeHazard:
    """One order-sensitive aggregation site inside a function (REP061).

    ``kind`` is ``unsorted-dict-iteration``, ``unsorted-set-iteration``,
    or ``arrival-order-fold``; ``detail`` is a short human-readable
    description of the offending expression.
    """

    kind: str
    detail: str
    line: int
    column: int
    source: str


@dataclass(frozen=True)
class EffectSite:
    """One syntactic effect inside a function body (REP07x evidence).

    ``kind`` is the *syntactic* shape — ``store`` (assignment/augmented
    assignment through an attribute, subscript, or ``global`` name),
    ``del`` (a delete through the same), ``method`` (an in-place
    mutating method call), or ``io`` (an I/O call).  Ownership of the
    written root (self / parameter / global / closure capture) is
    classified later by :mod:`repro.analysis.effects`, which has the
    project graph in hand; ``target`` keeps the receiver display form
    (``self._breakers[...].open_until``) whose first segment is the
    root.  Sites whose root is a locally-bound name are filtered out at
    collection time — mutating a fresh local object is not an effect
    that outlives the call (aliasing through locals is out of scope).
    """

    kind: str
    target: str
    detail: str
    line: int
    column: int
    source: str

    @property
    def root(self) -> str:
        """First segment of the receiver (``self``, a name, ...)."""
        return self.target.split(".", 1)[0].split("[", 1)[0]


@dataclass
class FunctionSummary:
    """Everything the graph rules need to know about one function."""

    qualname: str
    name: str
    line: int
    column: int
    source: str
    params: List[ParamInfo] = field(default_factory=list)
    decorators: Tuple[str, ...] = ()
    calls: List[CallRef] = field(default_factory=list)
    taint_reasons: List[TaintReason] = field(default_factory=list)
    rng_args: List[Tuple[str, int]] = field(default_factory=list)
    parent: Optional[str] = None
    #: Free names read (not locally bound) — REP060 global-use evidence.
    loads: Tuple[str, ...] = ()
    #: ``self.x`` attributes this function assigns (REP063 mutability).
    self_writes: Tuple[str, ...] = ()
    mutable_defaults: List[StateSite] = field(default_factory=list)
    merge_hazards: List[MergeHazard] = field(default_factory=list)
    #: Syntactic effect evidence (stores/deletes/mutating calls/IO)
    #: whose receiver root is not a plain local (REP07x).
    effects: List[EffectSite] = field(default_factory=list)
    #: First read line per free name in :attr:`loads` (REP072 anchors).
    load_lines: Dict[str, int] = field(default_factory=dict)

    def param(self, name: str) -> Optional[ParamInfo]:
        for info in self.params:
            if info.name == name:
                return info
        return None

    @property
    def is_marked_nondeterministic(self) -> bool:
        return "nondeterministic" in self.decorators

    @property
    def is_shard_entry(self) -> bool:
        return "shard_entry" in self.decorators

    @property
    def is_merge_point(self) -> bool:
        return "merge_point" in self.decorators

    @property
    def is_pure_function(self) -> bool:
        return "pure_function" in self.decorators


@dataclass
class ClassSummary:
    """One class: bases, method names, and inferred ``self.x`` types."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    column: int = 0
    source: str = ""
    #: Class-level mutable container attributes (shared across instances
    #: *and* across threads — but not across processes: REP060).
    mutable_attrs: List[StateSite] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """One module's contribution to the project graph."""

    module: str
    path: str
    basename: str
    #: local name -> ("module", dotted) | ("symbol", dotted, original)
    bindings: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    exports: Optional[List[ExportInfo]] = None
    referenced: Set[str] = field(default_factory=set)
    suppressions: List[Suppression] = field(default_factory=list)
    fork_labels: List[ForkLabel] = field(default_factory=list)
    shadows: List[ShadowSite] = field(default_factory=list)
    #: Module-level mutable containers (REP060 shared-state evidence).
    globals: List[StateSite] = field(default_factory=list)
    #: UPPER_CASE names bound to constant string collections (consumed
    #: by REP063 to read ``checkpoint.serde``'s SERDE_REGISTRY).
    string_sets: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def sanctioned(self) -> bool:
        """Whether this module defines the sanctioned wrappers."""
        return self.basename in SANCTIONED_BASENAMES


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """Identifier leaves appearing in an annotation expression."""
    if node is None:
        return ()
    names: List[str] = []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        token = ""
        for char in node.value:
            if char.isidentifier() or (token and char.isalnum()):
                token += char
            else:
                if token:
                    names.append(token)
                token = ""
        if token:
            names.append(token)
        return tuple(names)
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.append(child.id)
        elif isinstance(child, ast.Attribute):
            names.append(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names.extend(_annotation_names(child))
    return tuple(names)


def _attr_root(node: ast.Attribute) -> str:
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else ""


def _store_root(node: ast.AST) -> Tuple[str, str]:
    """(root name, display form) for a store/delete/mutation receiver.

    ``self._breakers[key].open_until`` → ``("self",
    "self._breakers[...].open_until")``; an unrooted receiver (a call
    result, a literal) yields ``("", "")``.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append("." + node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append("[...]")
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return node.id, "".join(reversed(parts))
        else:
            return "", ""


def _decorator_names(node) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


def _mutable_kind(value: Optional[ast.AST]) -> Optional[str]:
    """Classify a mutable-container initializer expression, or None."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in _MUTABLE_CONSTRUCTORS:
            return value.func.id
    return None


def _constant_strings(value: ast.AST) -> Optional[Tuple[str, ...]]:
    """The string elements of a constant collection literal, or None.

    Accepts a bare list/tuple/set display or one wrapped in a single
    ``frozenset``/``set``/``tuple``/``list`` call — the shapes a
    checked-in registry like ``SERDE_REGISTRY`` plausibly takes.
    """
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("frozenset", "set", "tuple", "list")
        and len(value.args) == 1
        and not value.keywords
    ):
        value = value.args[0]
    if not isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        return None
    strings: List[str] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            strings.append(element.value)
        else:
            return None
    return tuple(strings)


def _iter_hazard(iter_node: ast.AST) -> Optional[Tuple[str, str]]:
    """Classify an unordered iterable expression, or None.

    Returns ``(kind, detail)`` when iterating ``iter_node`` visits
    elements in an order a sharded merge must not rely on.
    """
    if isinstance(iter_node, ast.Call):
        func = iter_node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("items", "keys", "values")
            and not iter_node.args
        ):
            return ("unsorted-dict-iteration", f".{func.attr}()")
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return ("unsorted-set-iteration", f"{func.id}(...)")
    if isinstance(iter_node, (ast.Set, ast.SetComp)):
        return ("unsorted-set-iteration", "set expression")
    return None


def _iter_is_ordered(iter_node: ast.AST, depth: int = 0) -> bool:
    """Whether iterating ``iter_node`` has a content-determined order."""
    if depth > 4:
        return False
    if isinstance(iter_node, (ast.List, ast.Tuple, ast.Constant)):
        return True
    if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
        if iter_node.func.id in _ORDERED_ITER_CALLS:
            return True
        if iter_node.func.id in _ORDER_PRESERVING_CALLS and iter_node.args:
            return _iter_is_ordered(iter_node.args[0], depth + 1)
    return False


def _resolve_relative(module_name: str, is_package: bool,
                      level: int, target: Optional[str]) -> str:
    """Absolute module named by a (possibly relative) ``from`` import."""
    if level == 0:
        return target or ""
    package = module_name.split(".") if module_name else []
    if not is_package and package:
        package = package[:-1]
    ascend = level - 1
    if ascend:
        package = package[: max(0, len(package) - ascend)]
    if target:
        package = package + target.split(".")
    return ".".join(package)


class _FunctionCollector:
    """Walks one function body (not nested defs) collecting call facts."""

    def __init__(self, summarizer: "_ModuleSummarizer",
                 fn: FunctionSummary, class_ctx: Optional[ClassSummary]):
        self.summarizer = summarizer
        self.fn = fn
        self.class_ctx = class_ctx
        self.local_types: Dict[str, str] = {}
        self._loads: Set[str] = set()
        self._stores: Set[str] = set()
        self._global_decls: Set[str] = set()
        self._self_writes: Set[str] = set()
        self._load_lines: Dict[str, int] = {}
        #: (receiver root, site) pairs; local-rooted ones drop at collect().
        self._effect_candidates: List[Tuple[str, EffectSite]] = []

    # -- classification -------------------------------------------------

    def collect(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._visit(statement)
        # Free names: read but never locally bound — the only reads that
        # can reach module-level state.  Declared ``global`` names are
        # free even when assigned.
        params = {param.name for param in self.fn.params}
        free = (self._loads - self._stores - params) | self._global_decls
        self.fn.loads = tuple(sorted(free))
        self.fn.load_lines = {
            name: self._load_lines[name]
            for name in free
            if name in self._load_lines
        }
        self.fn.self_writes = tuple(sorted(self._self_writes))
        # Effect sites: keep I/O unconditionally; keep stores/mutations
        # whose root outlives the call (self, a parameter, a declared
        # global, or a free name).  A root that is locally bound and not
        # declared global is a fresh local — not an escaping effect.
        seen_effects: Set[Tuple[str, str, int, int]] = set()
        kept: List[EffectSite] = []
        for root, site in self._effect_candidates:
            if site.kind != "io":
                if not root:
                    continue
                if (
                    root != "self"
                    and root in self._stores
                    and root not in self._global_decls
                ):
                    continue
            key = (site.kind, site.target, site.line, site.column)
            if key not in seen_effects:
                seen_effects.add(key)
                kept.append(site)
        self.fn.effects[:] = kept
        # Nested loops can surface one fold site twice (once per
        # enclosing loop); keep the first occurrence only.
        seen: Set[Tuple[str, str, int, int]] = set()
        unique: List[MergeHazard] = []
        for hazard in self.fn.merge_hazards:
            key = (hazard.kind, hazard.detail, hazard.line, hazard.column)
            if key not in seen:
                seen.add(key)
                unique.append(hazard)
        self.fn.merge_hazards[:] = unique

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: summarized separately; leave a containment edge.
            self.fn.calls.append(
                CallRef("contained", f"{self.fn.qualname}.{node.name}",
                        line=node.lineno)
            )
            self.summarizer.summarize_function(
                node, f"{self.fn.qualname}.{node.name}",
                self.class_ctx, parent=self.fn.qualname,
            )
            return
        if isinstance(node, ast.ClassDef):
            return  # local classes are out of scope for the call graph
        if isinstance(node, ast.Assign):
            self._record_assignment(node)
            self._record_store_effects(node.targets, node, "store")
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_store_effects([node.target], node, "store")
            annotated = _annotation_names(node.annotation)
            if isinstance(node.target, ast.Name) and annotated:
                self.local_types[node.target.id] = annotated[-1]
        elif isinstance(node, ast.AugAssign):
            self._record_store_effects([node.target], node, "store")
        elif isinstance(node, ast.Delete):
            self._record_store_effects(node.targets, node, "del")
        elif isinstance(node, ast.If):
            self._record_if_shadow(node)
        elif isinstance(node, ast.Global):
            self._global_decls.update(node.names)
        elif isinstance(node, ast.For):
            self._record_fold_hazard(node)
        if isinstance(node, ast.Call):
            self._record_call(node)
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self._loads.add(node.id)
                self._load_lines.setdefault(node.id, node.lineno)
            else:
                self._stores.add(node.id)
        if isinstance(node, ast.Attribute):
            self._record_taint_attr(node)
            if (
                not isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                self._self_writes.add(node.attr)
        if isinstance(node, (ast.For, ast.comprehension)):
            self._record_iter_hazard(node.iter)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- assignments & type inference -----------------------------------

    def _infer_type(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr == "fork":
                return "SeededRng"
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
        elif isinstance(value, ast.Name):
            param = self.fn.param(value.id)
            if param is not None and param.annotation_names:
                return param.annotation_names[-1]
            return self.local_types.get(value.id)
        elif isinstance(value, ast.IfExp):
            return self._infer_type(value.body) or self._infer_type(value.orelse)
        return None

    def _record_assignment(self, node: ast.Assign) -> None:
        inferred = self._infer_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if inferred:
                    self.local_types[target.id] = inferred
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.class_ctx is not None
            ):
                if inferred:
                    self.class_ctx.attr_types.setdefault(
                        target.attr, (inferred,)
                    )
        self._record_expr_shadow(node.value)

    # -- REP042 shadow patterns -----------------------------------------

    def _injected_param(self, node: ast.AST) -> Optional[ParamInfo]:
        if isinstance(node, ast.Name):
            param = self.fn.param(node.id)
            if param is not None and param.is_injected:
                return param
        return None

    def _shadow(self, param: ParamInfo, node: ast.AST) -> None:
        self.fn_module_shadow(
            ShadowSite(
                param=param.name,
                line=getattr(node, "lineno", self.fn.line),
                column=getattr(node, "col_offset", 0),
                source=self.summarizer.source_line(
                    getattr(node, "lineno", self.fn.line)
                ),
                qualname=self.fn.qualname,
            )
        )

    def fn_module_shadow(self, site: ShadowSite) -> None:
        self.summarizer.summary.shadows.append(site)

    def _record_expr_shadow(self, value: ast.AST) -> None:
        # ``p if p is not None else <fallback>`` / ``p or <fallback>``
        if isinstance(value, ast.IfExp):
            body_param = self._injected_param(value.body)
            orelse_param = self._injected_param(value.orelse)
            if body_param is not None and orelse_param is None:
                if self._mentions(value.test, body_param.name):
                    self._shadow(body_param, value.orelse)
            elif orelse_param is not None and body_param is None:
                if self._mentions(value.test, orelse_param.name):
                    self._shadow(orelse_param, value.body)
        elif isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            first = self._injected_param(value.values[0])
            if first is not None and len(value.values) > 1:
                self._shadow(first, value.values[1])

    def _record_if_shadow(self, node: ast.If) -> None:
        # ``if p is None: p = <fallback>``
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return
        param = self._injected_param(test.left)
        if param is None:
            return
        for statement in node.body:
            if (
                isinstance(statement, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == param.name
                    for t in statement.targets
                )
            ):
                self._shadow(param, statement.value)

    @staticmethod
    def _mentions(node: ast.AST, name: str) -> bool:
        return any(
            isinstance(child, ast.Name) and child.id == name
            for child in ast.walk(node)
        )

    # -- REP061 merge hazards --------------------------------------------

    def _hazard(self, kind: str, detail: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", self.fn.line)
        self.fn.merge_hazards.append(
            MergeHazard(
                kind=kind,
                detail=detail,
                line=line,
                column=getattr(node, "col_offset", 0),
                source=self.summarizer.source_line(line),
            )
        )

    def _record_iter_hazard(self, iter_node: ast.AST) -> None:
        hazard = _iter_hazard(iter_node)
        if hazard is not None:
            self._hazard(hazard[0], f"iterates {hazard[1]}", iter_node)

    def _record_fold_hazard(self, node: ast.For) -> None:
        """A loop accumulating into a container in arrival order.

        Only fires when the iterable's order is not content-determined
        (``sorted(...)``/``range(...)`` folds are shard-order safe) and
        the loop body mutates an accumulator defined outside the loop.
        """
        if _iter_hazard(node.iter) is not None:
            return  # already recorded as an unsorted-iteration hazard
        if _iter_is_ordered(node.iter):
            return
        for child in ast.walk(node):
            if not (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _FOLD_METHODS
            ):
                continue
            receiver = child.func.value
            if isinstance(receiver, ast.Name):
                accumulator = receiver.id
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                accumulator = f"self.{receiver.attr}"
            else:
                continue
            self._hazard(
                "arrival-order-fold",
                f"'{accumulator}.{child.func.attr}()' folds an unordered"
                " iterable in arrival order",
                child,
            )
            return

    # -- REP07x effect evidence ------------------------------------------

    def _effect(self, root: str, kind: str, target: str, detail: str,
                node: ast.AST) -> None:
        line = getattr(node, "lineno", self.fn.line)
        self._effect_candidates.append(
            (
                root,
                EffectSite(
                    kind=kind,
                    target=target,
                    detail=detail,
                    line=line,
                    column=getattr(node, "col_offset", 0),
                    source=self.summarizer.source_line(line),
                ),
            )
        )

    def _record_store_effects(self, targets: Sequence[ast.AST],
                              node: ast.stmt, kind: str) -> None:
        verb = "deletes" if kind == "del" else "assigns"
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._record_store_effects(target.elts, node, kind)
                continue
            if isinstance(target, ast.Starred):
                self._record_store_effects([target.value], node, kind)
                continue
            if isinstance(target, ast.Name):
                # A plain-name (re)binding only escapes under ``global``.
                if target.id in self._global_decls:
                    self._effect(
                        target.id, kind, target.id,
                        f"{verb} global '{target.id}'", node,
                    )
                continue
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root, display = _store_root(target)
                if display:
                    self._effect(
                        root, kind, display, f"{verb} '{display}'", node,
                    )

    def _record_effect_call(self, func: ast.Attribute, node: ast.Call) -> None:
        root = _attr_root(func)
        if (
            root in _IO_ROOTS
            or (root == "os" and func.attr in _OS_IO_ATTRS)
            or (root == "sys" and func.attr in ("write", "flush"))
            or func.attr in _IO_ATTR_CALLS
        ):
            display = f"{root}.{func.attr}" if root else func.attr
            self._effect(
                root, "io", display, f"calls {display}()", node,
            )
            return
        if func.attr in _MUTATING_METHODS:
            recv_root, display = _store_root(func.value)
            if display:
                self._effect(
                    recv_root, "method", display,
                    f"'{display}.{func.attr}()' mutates '{display}'",
                    node,
                )

    # -- call sites ------------------------------------------------------

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Name):
            self._record_name_call(func, line)
            if func.id in _IO_NAME_CALLS:
                self._effect(
                    "", "io", func.id, f"calls {func.id}()", node,
                )
        elif isinstance(func, ast.Attribute):
            self._record_attr_call(func, node, line)
            self._record_effect_call(func, node)
        self._record_rng_args(node)

    def _record_name_call(self, func: ast.Name, line: int) -> None:
        binding = self.summarizer.summary.bindings.get(func.id)
        if binding is not None and binding[0] == "symbol":
            _, target_module, original = binding
            if self._stdlib_source(target_module, original, line):
                return
        self.fn.calls.append(CallRef("name", func.id, line=line))

    def _stdlib_source(self, target_module: str, original: str,
                       line: int) -> bool:
        """Direct taint when a from-imported stdlib reader is called."""
        if target_module == "time" and original in _WALL_TIME_ATTRS:
            self._taint("wall-clock", f"time.{original}", line)
            return True
        if target_module == "random":
            self._taint("ambient-random", f"random.{original}", line)
            return True
        if target_module == "os" and original in _OS_ENTROPY_ATTRS:
            self._taint("os-entropy", f"os.{original}", line)
            return True
        if target_module == "uuid" and original in _UUID_ENTROPY_ATTRS:
            self._taint("os-entropy", f"uuid.{original}", line)
            return True
        if target_module == "secrets":
            self._taint("os-entropy", f"secrets.{original}", line)
            return True
        return False

    def _record_attr_call(self, func: ast.Attribute, node: ast.Call,
                          line: int) -> None:
        if func.attr == "fork":
            self._record_fork(node, line)
        value = func.value
        if isinstance(value, ast.Name):
            if value.id == "self":
                self.fn.calls.append(CallRef("self", func.attr, line=line))
                return
            param = self.fn.param(value.id)
            if param is not None:
                self.fn.calls.append(
                    CallRef("param", func.attr, qualifier=value.id, line=line)
                )
                return
            local = self.local_types.get(value.id)
            if local is not None:
                self.fn.calls.append(
                    CallRef("typed", func.attr, qualifier=local, line=line)
                )
                return
            self.fn.calls.append(
                CallRef("obj", func.attr, qualifier=value.id, line=line)
            )
            return
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            if value.value.id == "self":
                self.fn.calls.append(
                    CallRef("selfattr", func.attr, qualifier=value.attr, line=line)
                )
                return
            if self.fn.param(value.value.id) is not None:
                self.fn.calls.append(
                    CallRef("paramattr", func.attr,
                            qualifier=f"{value.value.id}.{value.attr}", line=line)
                )
                return
        self.fn.calls.append(CallRef("other", func.attr, line=line))

    def _record_fork(self, node: ast.Call, line: int) -> None:
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            self.summarizer.summary.fork_labels.append(
                ForkLabel(
                    label=node.args[0].value,
                    line=line,
                    column=node.col_offset,
                    source=self.summarizer.source_line(line),
                    qualname=self.fn.qualname,
                )
            )

    def _record_rng_args(self, node: ast.Call) -> None:
        """Bare (un-forked) rng streams passed onward as arguments."""
        arguments = list(node.args) + [
            kw.value for kw in node.keywords if kw.value is not None
        ]
        for argument in arguments:
            identifier = self._rng_identifier(argument)
            if identifier is not None:
                self.fn.rng_args.append((identifier, node.lineno))

    def _rng_identifier(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            param = self.fn.param(node.id)
            if param is not None and param.is_rng:
                return node.id
            if self.local_types.get(node.id) == "SeededRng":
                return node.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_ctx is not None
        ):
            if "SeededRng" in self.class_ctx.attr_types.get(node.attr, ()):
                return f"self.{node.attr}"
        return None

    # -- direct taint ----------------------------------------------------

    def _taint(self, kind: str, detail: str, line: int) -> None:
        self.fn.taint_reasons.append(TaintReason(kind, detail, line))

    def _record_taint_attr(self, node: ast.Attribute) -> None:
        root = _attr_root(node)
        if root == "random":
            self._taint("ambient-random", f"random.{node.attr}", node.lineno)
        elif root == "time" and node.attr in _WALL_TIME_ATTRS:
            self._taint("wall-clock", f"time.{node.attr}", node.lineno)
        elif root in ("datetime", "date") and node.attr in _WALL_DATETIME_ATTRS:
            self._taint("wall-clock", f"{root}.{node.attr}", node.lineno)
        elif root == "os" and node.attr in _OS_ENTROPY_ATTRS:
            self._taint("os-entropy", f"os.{node.attr}", node.lineno)
        elif root == "uuid" and node.attr in _UUID_ENTROPY_ATTRS:
            self._taint("os-entropy", f"uuid.{node.attr}", node.lineno)
        elif root == "secrets":
            self._taint("os-entropy", f"secrets.{node.attr}", node.lineno)


class _ModuleSummarizer:
    """Builds a :class:`ModuleSummary` from one parsed module."""

    def __init__(self, context: ModuleContext, module_name: str) -> None:
        self.context = context
        self.summary = ModuleSummary(
            module=module_name,
            path=context.path,
            basename=context.basename,
        )

    def source_line(self, lineno: int) -> str:
        return self.context.source_line(lineno)

    def run(self) -> ModuleSummary:
        self._collect_bindings_and_refs()
        self._collect_exports()
        self._collect_module_state()
        self.summary.suppressions = scan_suppressions(self.context.lines)
        for node in self.context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.summarize_function(node, node.name, None)
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
        return self.summary

    # -- pass 1: bindings, references -----------------------------------

    def _collect_bindings_and_refs(self) -> None:
        is_package = self.context.basename == "__init__.py"
        for node in ast.walk(self.context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.summary.bindings[alias.asname] = (
                            "module", alias.name,
                        )
                    else:
                        head = alias.name.split(".")[0]
                        self.summary.bindings[head] = ("module", head)
            elif isinstance(node, ast.ImportFrom):
                resolved = _resolve_relative(
                    self.summary.module, is_package, node.level, node.module
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.summary.bindings[local] = (
                        "symbol", resolved, alias.name,
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.summary.referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.summary.referenced.add(node.attr)

    # -- pass 2: exports --------------------------------------------------

    def _collect_exports(self) -> None:
        for node in self.context.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                continue
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                continue
            exports: List[ExportInfo] = []
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    exports.append(
                        ExportInfo(
                            name=element.value,
                            line=element.lineno,
                            column=element.col_offset,
                            source=self.source_line(element.lineno),
                        )
                    )
            self.summary.exports = exports

    # -- pass 2b: module-level state (REP060/REP063) ----------------------

    @staticmethod
    def _assigned_names(node: ast.stmt) -> Tuple[List[str], Optional[ast.AST]]:
        """Plain-name targets and the value of an (ann)assignment."""
        if isinstance(node, ast.Assign):
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            return names, node.value
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            return [node.target.id], node.value
        return [], None

    def _record_state(self, sink: List[StateSite], name: str, kind: str,
                      node: ast.stmt) -> None:
        sink.append(
            StateSite(
                name=name,
                line=node.lineno,
                column=node.col_offset,
                source=self.source_line(node.lineno),
                kind=kind,
            )
        )

    def _collect_module_state(self) -> None:
        for node in self.context.tree.body:
            names, value = self._assigned_names(node)
            if value is None or not names:
                continue
            strings = _constant_strings(value)
            if strings is not None:
                for name in names:
                    if name.isupper():
                        self.summary.string_sets[name] = strings
            kind = _mutable_kind(value)
            if kind is None:
                continue
            for name in names:
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends are module protocol
                self._record_state(self.summary.globals, name, kind, node)

    # -- pass 3: functions & classes --------------------------------------

    def summarize_function(self, node, qualname: str,
                           class_ctx: Optional[ClassSummary],
                           parent: Optional[str] = None) -> FunctionSummary:
        args = node.args
        params = [
            ParamInfo(arg.arg, _annotation_names(arg.annotation))
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        ]
        fn = FunctionSummary(
            qualname=qualname,
            name=node.name,
            line=node.lineno,
            column=node.col_offset,
            source=self.source_line(node.lineno),
            params=params,
            decorators=_decorator_names(node),
            parent=parent,
        )
        self.summary.functions[qualname] = fn
        if fn.is_marked_nondeterministic:
            fn.taint_reasons.append(
                TaintReason("marker", "@nondeterministic", node.lineno)
            )
        self._collect_mutable_defaults(fn, args)
        _FunctionCollector(self, fn, class_ctx).collect(node.body)
        return fn

    def _collect_mutable_defaults(self, fn: FunctionSummary,
                                  args: ast.arguments) -> None:
        positional = list(args.posonlyargs) + list(args.args)
        defaulted = positional[len(positional) - len(args.defaults):]
        pairs = list(zip(defaulted, args.defaults))
        pairs.extend(
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )
        for arg, default in pairs:
            kind = _mutable_kind(default)
            if kind is not None:
                fn.mutable_defaults.append(
                    StateSite(
                        name=arg.arg,
                        line=default.lineno,
                        column=default.col_offset,
                        source=self.source_line(default.lineno),
                        kind=kind,
                    )
                )

    def _summarize_class(self, node: ast.ClassDef) -> None:
        bases: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        summary = ClassSummary(
            name=node.name, line=node.lineno, bases=tuple(bases),
            column=node.col_offset, source=self.source_line(node.lineno),
        )
        self.summary.classes[node.name] = summary
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{node.name}.{child.name}"
                summary.methods[child.name] = qualname
                self.summarize_function(child, qualname, summary)
                continue
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                # A declared field (``collector: DnsRecordCollector``) types
                # ``p.collector`` for a parameter ``p`` of this class.
                annotated = _annotation_names(child.annotation)
                if annotated:
                    summary.attr_types.setdefault(child.target.id, annotated)
            names, value = self._assigned_names(child)
            if value is None:
                continue
            kind = _mutable_kind(value)
            if kind is None:
                continue
            for name in names:
                if name.startswith("__") and name.endswith("__"):
                    continue  # __slots__ and friends are class protocol
                self._record_state(summary.mutable_attrs, name, kind, child)


def summarize_module(context: ModuleContext,
                     module_name: Optional[str] = None) -> ModuleSummary:
    """Distil one parsed module into its :class:`ModuleSummary`."""
    name = module_name if module_name is not None else module_name_for(
        context.path
    )
    return _ModuleSummarizer(context, name).run()


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------

#: A function key: (module name, qualified function name).
FunctionKey = Tuple[str, str]


def key_str(key: FunctionKey) -> str:
    """A function as findings name it: ``module.qualname``."""
    return f"{key[0]}.{key[1]}"


def chain_str(chain: Sequence[FunctionKey]) -> str:
    """A witness chain as findings print it: ``a.f -> b.g -> ...``."""
    return " -> ".join(key_str(key) for key in chain)

#: Sentinel returned when a call is sanitized by an injected dependency.
SANITIZED = "sanitized"


class ProjectGraph:
    """Summaries stitched into symbol tables and a call graph.

    Parameters
    ----------
    summaries:
        One :class:`ModuleSummary` per analyzed file.
    external_references:
        Identifiers seen outside the analyzed tree (tests, examples) —
        consumed by the dead-export rule (REP043).
    star_imported_modules:
        Dotted module names star-imported (``from m import *``) by the
        reference roots; a star import materializes every ``__all__``
        export without naming it, so those exports count as referenced.
    """

    def __init__(self, summaries: Sequence[ModuleSummary],
                 external_references: Optional[Set[str]] = None,
                 star_imported_modules: Optional[Set[str]] = None) -> None:
        self.summaries = list(summaries)
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            self.modules[summary.module] = summary
        self.external_references: Set[str] = set(external_references or ())
        self.star_imported_modules: Set[str] = set(
            star_imported_modules or ()
        )
        self._callees: Optional[Dict[FunctionKey, List[FunctionKey]]] = None
        self._callers: Optional[Dict[FunctionKey, List[FunctionKey]]] = None
        # method name -> [(module, class name)]
        self._method_index: Dict[str, List[Tuple[str, str]]] = {}
        # class name -> [(module, class name)]
        self._class_index: Dict[str, List[Tuple[str, str]]] = {}
        for summary in self.summaries:
            for class_name in sorted(summary.classes):
                klass = summary.classes[class_name]
                self._class_index.setdefault(class_name, []).append(
                    (summary.module, class_name)
                )
                for method_name in sorted(klass.methods):
                    self._method_index.setdefault(method_name, []).append(
                        (summary.module, class_name)
                    )

    # -- lookups ---------------------------------------------------------

    def functions(self) -> List[Tuple[ModuleSummary, FunctionSummary]]:
        """Every function in the project, deterministically ordered."""
        result: List[Tuple[ModuleSummary, FunctionSummary]] = []
        for summary in sorted(self.summaries, key=lambda s: s.path):
            for qualname in sorted(summary.functions):
                result.append((summary, summary.functions[qualname]))
        return result

    def function(self, key: FunctionKey) -> Optional[FunctionSummary]:
        summary = self.modules.get(key[0])
        if summary is None:
            return None
        return summary.functions.get(key[1])

    def _resolve_class(self, module: ModuleSummary,
                       name: str) -> Optional[Tuple[str, str]]:
        """Resolve a class *name* as seen from ``module``."""
        if name in module.classes:
            return (module.module, name)
        binding = module.bindings.get(name)
        if binding is not None and binding[0] == "symbol":
            target = self.modules.get(binding[1])
            if target is not None and binding[2] in target.classes:
                return (target.module, binding[2])
        candidates = self._class_index.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _method_key(self, class_key: Tuple[str, str],
                    method: str, depth: int = 0) -> Optional[FunctionKey]:
        """Find ``method`` on a class or its (project-resolvable) bases."""
        if depth > 8:
            return None
        module = self.modules.get(class_key[0])
        if module is None:
            return None
        klass = module.classes.get(class_key[1])
        if klass is None:
            return None
        if method in klass.methods:
            return (module.module, klass.methods[method])
        for base in klass.bases:
            base_key = self._resolve_class(module, base)
            if base_key is not None and base_key != class_key:
                found = self._method_key(base_key, method, depth + 1)
                if found is not None:
                    return found
        return None

    def _ctor_key(self, class_key: Tuple[str, str]) -> Optional[FunctionKey]:
        return self._method_key(class_key, "__init__")

    # -- call resolution --------------------------------------------------

    def resolve_call(self, module: ModuleSummary, fn: FunctionSummary,
                     call: CallRef):
        """Resolve one call site.

        Returns a list of :data:`FunctionKey` targets (possibly empty
        when the callee is not a project function), or the
        :data:`SANITIZED` sentinel when the call goes through an
        injected ``SeededRng``/``SimulationClock`` parameter.
        """
        if call.kind == "contained":
            return [(module.module, call.name)]
        if call.kind == "name":
            return self._resolve_name_call(module, call.name)
        if call.kind == "self":
            return self._resolve_self_call(module, fn, call.name)
        if call.kind == "param":
            return self._resolve_param_call(module, fn, call)
        if call.kind == "typed":
            return self._resolve_typed_call(module, call.qualifier, call.name)
        if call.kind == "selfattr":
            return self._resolve_selfattr_call(module, fn, call)
        if call.kind == "paramattr":
            return self._resolve_paramattr_call(module, fn, call)
        if call.kind == "obj":
            return self._resolve_obj_call(module, call)
        if call.kind == "other":
            return self._fallback(call.name)
        return []

    def _resolve_name_call(self, module: ModuleSummary, name: str,
                           depth: int = 0):
        if depth > 8:
            return []
        if name in module.functions:
            return [(module.module, name)]
        if name in module.classes:
            if name in SANITIZER_TYPES:
                return SANITIZED
            ctor = self._ctor_key((module.module, name))
            return [ctor] if ctor else []
        binding = module.bindings.get(name)
        if binding is not None and binding[0] == "symbol":
            target = self.modules.get(binding[1])
            if target is not None:
                original = binding[2]
                if original in SANITIZER_TYPES and original in target.classes:
                    return SANITIZED
                # Follow re-export chains: the target may itself only
                # *bind* the name (``from .b import helper`` in a
                # package __init__).
                return self._resolve_name_call(target, original, depth + 1)
        if name in SANITIZER_TYPES:
            return SANITIZED
        return []

    def _resolve_self_call(self, module: ModuleSummary, fn: FunctionSummary,
                           method: str):
        class_name = fn.qualname.split(".")[0]
        if class_name in module.classes:
            found = self._method_key((module.module, class_name), method)
            return [found] if found else []
        return []

    def _types_to_methods(self, module: ModuleSummary,
                          type_names: Sequence[str], method: str):
        if any(name in SANITIZER_TYPES for name in type_names):
            return SANITIZED
        targets: List[FunctionKey] = []
        for type_name in type_names:
            class_key = self._resolve_class(module, type_name)
            if class_key is None:
                continue
            for owner in self._implementers(class_key):
                found = self._method_key(owner, method)
                if found is not None:
                    targets.append(found)
        if targets:
            return targets
        return self._fallback(method)

    def _implementers(self, class_key: Tuple[str, str]) -> List[Tuple[str, str]]:
        """The classes a receiver typed ``class_key`` may be: the class
        itself, or for a ``typing.Protocol`` every other project class
        defining all of the protocol's methods (structural typing)."""
        klass = self.class_summary(class_key)
        if klass is None or "Protocol" not in klass.bases:
            return [class_key]
        wanted = [name for name in sorted(klass.methods) if not name.startswith("__")]
        return [
            candidate
            for name in sorted(self._class_index)
            for candidate in self._class_index[name]
            if "Protocol" not in self.class_summary(candidate).bases
            and all(self._method_key(candidate, method) for method in wanted)
        ]

    def _resolve_param_call(self, module: ModuleSummary, fn: FunctionSummary,
                            call: CallRef):
        param = fn.param(call.qualifier)
        if param is None:
            return self._fallback(call.name)
        if param.is_injected:
            return SANITIZED
        if param.annotation_names:
            return self._types_to_methods(
                module, param.annotation_names, call.name
            )
        return self._fallback(call.name)

    def _resolve_typed_call(self, module: ModuleSummary, type_name: str,
                            method: str):
        return self._types_to_methods(module, (type_name,), method)

    def _resolve_selfattr_call(self, module: ModuleSummary,
                               fn: FunctionSummary, call: CallRef):
        class_name = fn.qualname.split(".")[0]
        klass = module.classes.get(class_name)
        if klass is not None:
            attr_types = klass.attr_types.get(call.qualifier)
            if attr_types:
                return self._types_to_methods(module, attr_types, call.name)
        if call.qualifier in ("rng", "_rng", "clock", "_clock"):
            return SANITIZED
        return self._fallback(call.name)

    def _resolve_paramattr_call(self, module: ModuleSummary,
                                fn: FunctionSummary, call: CallRef):
        """``p.x.m()``: the type of field ``x`` on ``p``'s annotated class."""
        name, _, attr = call.qualifier.partition(".")
        param = fn.param(name)
        if param is not None and not param.is_injected:
            for type_name in param.annotation_names:
                class_key = self._resolve_class(module, type_name)
                klass = self.class_summary(class_key) if class_key else None
                if klass is not None and klass.attr_types.get(attr):
                    return self._types_to_methods(
                        self.modules[class_key[0]], klass.attr_types[attr],
                        call.name,
                    )
        return self._fallback(call.name)

    def _resolve_obj_call(self, module: ModuleSummary, call: CallRef):
        binding = module.bindings.get(call.qualifier)
        if binding is None:
            return self._fallback(call.name)
        if binding[0] == "module":
            target = self.modules.get(binding[1])
            if target is None:
                return []
            return self._resolve_name_call(target, call.name)
        # Symbol binding: ``CLS.method()`` or ``from . import submodule``.
        target = self.modules.get(binding[1])
        submodule = self.modules.get(f"{binding[1]}.{binding[2]}")
        if submodule is not None:
            return self._resolve_name_call(submodule, call.name)
        if target is not None and binding[2] in target.classes:
            if binding[2] in SANITIZER_TYPES:
                return SANITIZED
            found = self._method_key((target.module, binding[2]), call.name)
            return [found] if found else []
        return self._fallback(call.name)

    def _fallback(self, method: str):
        """Unique-method-name resolution for unresolvable receivers."""
        if method in _FALLBACK_DENYLIST:
            return []
        owners = self._method_index.get(method, ())
        if len(owners) == 1:
            return [self._method_key(owners[0], method)]
        return []

    # -- shard boundary (REP06x) -------------------------------------------

    def shard_entries(self) -> List[FunctionKey]:
        """Functions declared ``@shard_entry``, sorted."""
        return sorted(
            (summary.module, fn.qualname)
            for summary, fn in self.functions()
            if fn.is_shard_entry
        )

    def merge_points(self) -> List[FunctionKey]:
        """Functions declared ``@merge_point``, sorted."""
        return sorted(
            (summary.module, fn.qualname)
            for summary, fn in self.functions()
            if fn.is_merge_point
        )

    def resolve_global(
        self, module: ModuleSummary, name: str
    ) -> Optional[Tuple[ModuleSummary, StateSite]]:
        """Resolve a free name to a module-level mutable global.

        Looks in the reading module itself, then through a ``from``
        import binding into the defining module.  Returns the defining
        summary and the state site, or None when the name is not a
        known mutable global.
        """
        for site in module.globals:
            if site.name == name:
                return (module, site)
        binding = module.bindings.get(name)
        if binding is not None and binding[0] == "symbol":
            target = self.modules.get(binding[1])
            if target is not None:
                for site in target.globals:
                    if site.name == binding[2]:
                        return (target, site)
        return None

    def resolve_class_reference(
        self, module: ModuleSummary, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a class name as seen from ``module`` (public hook)."""
        return self._resolve_class(module, name)

    def class_summary(
        self, class_key: Tuple[str, str]
    ) -> Optional[ClassSummary]:
        """The :class:`ClassSummary` for a ``(module, class)`` key."""
        summary = self.modules.get(class_key[0])
        if summary is None:
            return None
        return summary.classes.get(class_key[1])

    # -- edges -------------------------------------------------------------

    def call_edges(self) -> Dict[FunctionKey, List[FunctionKey]]:
        """Caller → callee edges, sanitized edges dropped, sorted.

        Built once per graph and shared by every pass; read-only.
        """
        if self._callees is None:
            edges: Dict[FunctionKey, List[FunctionKey]] = {}
            for summary, fn in self.functions():
                key: FunctionKey = (summary.module, fn.qualname)
                targets: Set[FunctionKey] = set()
                for call in fn.calls:
                    resolved = self.resolve_call(summary, fn, call)
                    if resolved == SANITIZED:
                        continue
                    for target in resolved:
                        if target is not None and self.function(target) is not None:
                            targets.add(target)
                edges[key] = sorted(targets)
            self._callees = edges
        return self._callees

    def caller_edges(self) -> Dict[FunctionKey, List[FunctionKey]]:
        """:meth:`call_edges` reversed (callee → callers), sorted."""
        if self._callers is None:
            reverse: Dict[FunctionKey, List[FunctionKey]] = {}
            for caller, callees in self.call_edges().items():
                for callee in callees:
                    reverse.setdefault(callee, []).append(caller)
            for callers in reverse.values():
                callers.sort()
            self._callers = reverse
        return self._callers

    def propagate(
        self, seeds: Iterable[FunctionKey], direction: str
    ) -> Dict[FunctionKey, Tuple[FunctionKey, ...]]:
        """The reachability fixpoint every whole-program pass shares.

        Walks the call graph breadth first from ``seeds`` towards
        ``"callers"`` (taint, effects) or ``"callees"`` (the REP06x
        shard closure).  Every frontier is processed in sorted order and
        the first visit wins, so each reached function keeps a shortest
        witness chain, ties going to the smallest predecessor: the same
        chain on every run and in every process.  Each function is
        visited once, so it converges through mutual recursion too.

        Returns every reached function's chain in call order — from the
        function down to its seed towards callers, from the seed down to
        the function towards callees; a seed's chain is itself alone.
        """
        adjacency = {"callers": self.caller_edges,
                     "callees": self.call_edges}[direction]()
        towards_callers = direction == "callers"
        chains = {seed: (seed,) for seed in sorted(set(seeds))}
        frontier = list(chains)
        while frontier:
            next_frontier: List[FunctionKey] = []
            for node in frontier:
                chain = chains[node]
                for neighbour in adjacency.get(node, ()):
                    if neighbour in chains:
                        continue
                    chains[neighbour] = (
                        (neighbour,) + chain if towards_callers
                        else chain + (neighbour,)
                    )
                    next_frontier.append(neighbour)
            next_frontier.sort()
            frontier = next_frontier
        return chains
