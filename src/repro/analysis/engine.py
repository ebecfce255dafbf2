"""The analysis driver: file discovery, parsing, and rule application.

:class:`Analyzer` turns a list of paths (files or directories) into a
deterministic, sorted list of :class:`~repro.analysis.findings.Finding`.
Discovery order, finding order, and fingerprints are all stable across
processes — the linter holds itself to the same reproducibility bar it
enforces.

A run has two layers.  Per-module rules see one
:class:`~repro.analysis.rules.ModuleContext` at a time and their results
are cached on disk keyed by content hash (see
:mod:`repro.analysis.cache`).  Project rules
(:class:`~repro.analysis.rules.ProjectRule`) see the assembled
:class:`~repro.analysis.graph.ProjectGraph` and always run fresh —
their inputs are the cached per-module summaries, so a warm run still
performs zero re-parses.  Inline ``# repro: allow[...]`` suppressions
are applied last, after occurrence numbering, so suppressing a finding
never shifts another finding's fingerprint.
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError
from .cache import LintCache, content_hash, ruleset_signature
from .findings import Finding
from .graph import ModuleSummary, ProjectGraph, module_name_for, summarize_module
from .rules import ModuleContext, ProjectRule, Rule, RuleRegistry, default_registry
from .suppressions import StaleSuppressionRule, Suppression

__all__ = ["Analyzer", "LintResult", "LintStats"]

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STAR_IMPORT_RE = re.compile(
    r"^\s*from\s+([A-Za-z_][\w.]*)\s+import\s+\*", re.MULTILINE
)

#: Directories next to the analysis root scanned for external symbol
#: references (REP043): a name used only by a test is still alive, and
#: so is one the campaign benchmark calls or patches.
_REFERENCE_ROOT_NAMES = ("tests", "examples", "benchmarks", "campaignbench")


@dataclass
class LintStats:
    """Counters describing how a run did its work."""

    files: int = 0
    parsed: int = 0
    cache_hits: int = 0
    cache_enabled: bool = False

    @property
    def cache_misses(self) -> int:
        return self.files - self.cache_hits

    def to_dict(self) -> Dict[str, Any]:
        return {
            "files": self.files,
            "parsed": self.parsed,
            "cache_enabled": self.cache_enabled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass
class LintResult:
    """Everything one :meth:`Analyzer.analyze` run produced.

    ``findings`` are the live, occurrence-numbered findings (including
    any REP050 stale-suppression findings the engine emitted);
    ``inline_suppressed`` are findings silenced by in-source ``allow``
    comments.  The baseline is applied by the caller on ``findings`` —
    inline suppression happens first, baseline second.
    """

    findings: List[Finding] = field(default_factory=list)
    inline_suppressed: List[Finding] = field(default_factory=list)
    stats: LintStats = field(default_factory=LintStats)
    summaries: List[ModuleSummary] = field(default_factory=list)


class Analyzer:
    """Runs a rule pack over Python source trees.

    Parameters
    ----------
    rules:
        Explicit rule instances; defaults to the full registered pack.
    select / ignore:
        Rule-ID filters applied when ``rules`` is not given.
    root:
        Directory that finding paths are made relative to (defaults to
        the current working directory).  Using repo-relative paths keeps
        baseline fingerprints identical no matter where the tree is
        checked out.
    registry:
        Registry to draw rules from; defaults to the process-wide one.
    cache_path:
        Path for the on-disk incremental cache; ``None`` (the default)
        disables caching.
    reference_roots:
        Extra directories scanned (textually) for identifier uses that
        count as references for the dead-export rule.  Defaults to
        ``tests``/``examples``/``benchmarks``/``campaignbench`` under
        ``root`` when they exist.
    ignore_unused_suppressions:
        Do not report inline suppressions that matched nothing.
    jobs:
        Worker processes for cold-start parsing.  ``1`` (the default)
        stays serial; ``0`` means one per CPU.  Findings and summaries
        are merged back in discovery order, so output is byte-identical
        to a serial run regardless of worker scheduling.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        root: Optional[str] = None,
        registry: Optional[RuleRegistry] = None,
        cache_path: Optional[str] = None,
        reference_roots: Optional[Sequence[str]] = None,
        ignore_unused_suppressions: bool = False,
        jobs: int = 1,
    ) -> None:
        registry = registry or default_registry()
        if rules is None:
            rules = registry.instantiate(select=select, ignore=ignore)
        self.rules: List[Rule] = list(rules)
        self.module_rules: List[Rule] = [
            rule for rule in self.rules if not isinstance(rule, ProjectRule)
        ]
        self.project_rules: List[ProjectRule] = [
            rule for rule in self.rules if isinstance(rule, ProjectRule)
        ]
        self.root = os.path.abspath(root or os.getcwd())
        self.cache_path = cache_path
        self.reference_roots = (
            list(reference_roots) if reference_roots is not None else None
        )
        self.ignore_unused_suppressions = ignore_unused_suppressions
        self.jobs = jobs

    # -- discovery ------------------------------------------------------

    def discover(self, paths: Iterable[str]) -> List[str]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: List[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames.sort()
                    dirnames[:] = [
                        d for d in dirnames
                        if d != "__pycache__" and not d.startswith(".")
                    ]
                    for filename in sorted(filenames):
                        if filename.endswith(".py"):
                            files.append(os.path.join(dirpath, filename))
            elif os.path.isfile(path):
                files.append(path)
            else:
                raise AnalysisError(f"no such file or directory: {path}")
        # De-duplicate while keeping a deterministic order.
        unique: Dict[str, None] = {}
        for path in files:
            unique.setdefault(os.path.abspath(path), None)
        return sorted(unique)

    def _display_path(self, abspath: str) -> str:
        relative = os.path.relpath(abspath, self.root)
        if relative.startswith(".."):
            return abspath.replace(os.sep, "/")
        return relative.replace(os.sep, "/")

    # -- execution ------------------------------------------------------

    def parse(self, abspath: str) -> ModuleContext:
        """Read and parse one file into a :class:`ModuleContext`."""
        return self._parse_source(abspath, self._read(abspath))

    @staticmethod
    def _read(abspath: str) -> bytes:
        try:
            with open(abspath, "rb") as handle:
                return handle.read()
        except OSError as exc:
            raise AnalysisError(f"cannot read {abspath}: {exc}") from exc

    def _parse_source(self, abspath: str, data: bytes) -> ModuleContext:
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise AnalysisError(f"cannot read {abspath}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=abspath)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {abspath}: {exc.msg} (line {exc.lineno})"
            ) from exc
        return ModuleContext(
            path=self._display_path(abspath),
            basename=os.path.basename(abspath),
            tree=tree,
            lines=source.splitlines(),
        )

    def check_module(self, module: ModuleContext) -> List[Finding]:
        """Apply every per-module rule to one parsed module."""
        findings: List[Finding] = []
        for rule in self.module_rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))
        return findings

    # -- external references (REP043) -----------------------------------

    def _external_references(self) -> Tuple[Set[str], Set[str]]:
        """References from the reference roots (textual scan).

        A plain token scan, not a parse: reference roots are tests and
        scripts whose *mention* of a symbol is what keeps an export
        alive, and a regex over a few hundred KB costs nothing.

        Returns ``(identifiers, star_imported_modules)`` — the second
        set holds dotted module names pulled in via ``from m import *``,
        which materializes every ``__all__`` export without mentioning
        any of them by name.
        """
        roots = self.reference_roots
        if roots is None:
            roots = [
                os.path.join(self.root, name)
                for name in _REFERENCE_ROOT_NAMES
                if os.path.isdir(os.path.join(self.root, name))
            ]
        references: Set[str] = set()
        star_modules: Set[str] = set()
        for root in roots:
            if os.path.isfile(root):
                self._scan_reference_file(root, references, star_modules)
                continue
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                dirnames[:] = [
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith(".")
                ]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        self._scan_reference_file(
                            os.path.join(dirpath, filename),
                            references, star_modules,
                        )
        return references, star_modules

    @staticmethod
    def _scan_reference_file(
        path: str, references: Set[str], star_modules: Set[str]
    ) -> None:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                text = handle.read()
        except OSError:
            return
        references.update(_IDENTIFIER_RE.findall(text))
        star_modules.update(_STAR_IMPORT_RE.findall(text))

    # -- the run ---------------------------------------------------------

    def analyze(self, paths: Iterable[str]) -> LintResult:
        """Lint ``paths``: module rules (cached), project rules, inline
        suppressions — returning a :class:`LintResult`."""
        stats = LintStats(cache_enabled=self.cache_path is not None)
        cache: Optional[LintCache] = None
        if self.cache_path is not None:
            # Project rules have no per-file cache entry, but their IDs
            # are part of the signature: the summaries they consume are
            # cached, and the evidence collected into a summary grows
            # with the rule set.
            signature = ruleset_signature(
                [rule.rule_id for rule in self.rules]
            )
            cache = LintCache.load(self.cache_path, signature)

        # Phase 1: read and hash everything, serving cache hits.
        records: List[Tuple[str, str, bytes, str, Optional[Tuple[List[Finding], ModuleSummary]]]] = []
        for abspath in self.discover(paths):
            display = self._display_path(abspath)
            data = self._read(abspath)
            digest = content_hash(data)
            cached = cache.get(display, digest) if cache is not None else None
            records.append((abspath, display, data, digest, cached))

        # Phase 2: parse the misses — in parallel when jobs > 1 — and
        # merge back in discovery order.
        misses = [
            (abspath, data)
            for abspath, _, data, _, cached in records
            if cached is None
        ]
        fresh = self._lint_cold(misses)

        raw_findings: List[Finding] = []
        summaries: List[ModuleSummary] = []
        display_paths: List[str] = []
        fresh_index = 0
        for abspath, display, data, digest, cached in records:
            display_paths.append(display)
            stats.files += 1
            if cached is not None:
                stats.cache_hits += 1
                module_findings, summary = cached
            else:
                stats.parsed += 1
                module_findings, summary = fresh[fresh_index]
                fresh_index += 1
                if cache is not None:
                    cache.put(display, digest, module_findings, summary)
            raw_findings.extend(module_findings)
            summaries.append(summary)
        if cache is not None:
            cache.prune(display_paths)
            cache.save()

        if self.project_rules:
            references, star_modules = self._external_references()
            graph = ProjectGraph(
                summaries,
                external_references=references,
                star_imported_modules=star_modules,
            )
            for rule in self.project_rules:
                raw_findings.extend(rule.check_project(graph))

        return self._apply_suppressions(raw_findings, summaries, stats)

    # -- cold-path parsing (serial or multi-process) ---------------------

    def _lint_one(
        self, abspath: str, data: bytes
    ) -> Tuple[List[Finding], ModuleSummary]:
        context = self._parse_source(abspath, data)
        findings = self.check_module(context)
        summary = summarize_module(context, module_name_for(context.path))
        return findings, summary

    def _lint_cold(
        self, misses: List[Tuple[str, bytes]]
    ) -> List[Tuple[List[Finding], ModuleSummary]]:
        """Parse and module-lint every cache miss, in input order."""
        jobs = self.jobs if self.jobs > 0 else (os.cpu_count() or 1)
        if jobs > 1 and len(misses) > 1:
            try:
                return self._lint_cold_parallel(misses, jobs)
            except (OSError, NotImplementedError, ImportError):
                # No usable multiprocessing primitives on this host —
                # the parallel path is an accelerator, never a
                # correctness dependency.
                pass
        return [self._lint_one(abspath, data) for abspath, data in misses]

    def _lint_cold_parallel(
        self, misses: List[Tuple[str, bytes]], jobs: int
    ) -> List[Tuple[List[Finding], ModuleSummary]]:
        """Fan the misses out over worker processes.

        ``executor.map`` yields results in submission order, so the
        merged output — findings, summaries, and hence fingerprints and
        the project graph — is byte-identical to the serial path no
        matter how the OS schedules the workers (the merge-determinism
        discipline REP061 enforces on the study's own shard plane).
        """
        workers = min(jobs, len(misses))
        chunksize = max(1, len(misses) // (workers * 4))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(self.root, self.module_rules),
        ) as executor:
            return list(
                executor.map(_worker_lint, misses, chunksize=chunksize)
            )

    def run(self, paths: Iterable[str]) -> List[Finding]:
        """Lint ``paths`` and return the live findings, sorted.

        The historical entry point: equivalent to
        ``analyze(paths).findings`` (inline-suppressed findings are
        dropped; stale-suppression findings are included).
        """
        return self.analyze(paths).findings

    # -- suppressions & numbering ----------------------------------------

    def _apply_suppressions(
        self,
        raw_findings: List[Finding],
        summaries: List[ModuleSummary],
        stats: LintStats,
    ) -> LintResult:
        suppressions: Dict[str, List[Suppression]] = {
            summary.path: summary.suppressions
            for summary in summaries
            if summary.suppressions
        }
        rep050_active = any(
            rule.rule_id == StaleSuppressionRule.rule_id for rule in self.rules
        )

        used: Set[Tuple[str, int]] = set()
        flagged: List[Tuple[Finding, bool]] = []
        for finding in raw_findings:
            matched = False
            for suppression in suppressions.get(finding.path, ()):
                if (
                    suppression.line == finding.line
                    and finding.rule_id in suppression.rule_ids
                ):
                    matched = True
                    used.add((finding.path, suppression.line))
            flagged.append((finding, matched))

        if rep050_active:
            for summary in summaries:
                for suppression in summary.suppressions:
                    key = (summary.path, suppression.line)
                    if key not in used:
                        if self.ignore_unused_suppressions:
                            continue
                        ids = ",".join(suppression.rule_ids)
                        flagged.append((
                            StaleSuppressionRule.stale_finding(
                                summary.path, suppression,
                                f"suppression allow[{ids}] matches no"
                                " finding on this line; remove it",
                            ),
                            False,
                        ))
                    elif not suppression.reason:
                        flagged.append((
                            StaleSuppressionRule.stale_finding(
                                summary.path, suppression,
                                "suppression has no '-- reason'; every"
                                " exception carries its justification",
                            ),
                            False,
                        ))

        # Occurrence-number the *union* before partitioning: adding or
        # removing a suppression must never shift another finding's
        # fingerprint.
        flagged.sort(key=lambda pair: pair[0].sort_key)
        counts: Dict[Tuple[str, str, str], int] = {}
        findings: List[Finding] = []
        inline_suppressed: List[Finding] = []
        for finding, matched in flagged:
            key = (finding.rule_id, finding.path, finding.source.strip())
            occurrence = counts.get(key, 0)
            counts[key] = occurrence + 1
            if occurrence:
                finding = replace(finding, occurrence=occurrence)
            (inline_suppressed if matched else findings).append(finding)
        return LintResult(
            findings=findings,
            inline_suppressed=inline_suppressed,
            stats=stats,
            summaries=summaries,
        )


# -- worker-process entry points (repro lint --jobs N) -----------------------

#: Per-worker Analyzer, built once by the pool initializer.  Module rules
#: are shipped pickled from the parent, so a custom rule list behaves
#: identically in serial and parallel runs.
_WORKER_ANALYZER: Optional[Analyzer] = None


def _worker_init(root: str, module_rules: List[Rule]) -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = Analyzer(rules=module_rules, root=root)


def _worker_lint(
    item: Tuple[str, bytes]
) -> Tuple[List[Finding], ModuleSummary]:
    assert _WORKER_ANALYZER is not None
    return _WORKER_ANALYZER._lint_one(item[0], item[1])
