"""The incremental cache: warm-run zero re-parses, precise invalidation."""

import dataclasses
import json
import pathlib
from typing import FrozenSet

import pytest

from repro.analysis import Analyzer, Finding, LintResult, LintStats, Severity
from repro.analysis import cache as cache_module
from repro.analysis.cache import (
    LintCache,
    content_hash,
    decode,
    encode,
    ruleset_signature,
)
from repro.analysis.graph import ModuleSummary, summarize_module

from .test_graph import write_package

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

FILES = {
    "pkg/__init__.py": "",
    "pkg/clean.py": """
        def double(x):
            return x * 2
    """,
    "pkg/dirty.py": """
        import random
    """,
}


def make_analyzer(tmp_path, **kwargs):
    kwargs.setdefault("cache_path", str(tmp_path / "cache.json"))
    return Analyzer(root=str(tmp_path), **kwargs)


class TestWarmRuns:
    def test_cold_run_parses_everything(self, tmp_path):
        write_package(tmp_path, FILES)
        result = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert isinstance(result, LintResult)
        stats = result.stats
        assert isinstance(stats, LintStats)
        assert stats.cache_enabled
        assert stats.files == 3
        assert stats.parsed == 3
        assert stats.cache_hits == 0

    def test_warm_run_performs_zero_reparses(self, tmp_path):
        write_package(tmp_path, FILES)
        cold = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        warm = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert warm.stats.parsed == 0
        assert warm.stats.cache_hits == 3
        assert warm.stats.cache_misses == 0
        # Identical findings, fingerprints included.
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        write_package(tmp_path, FILES)
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        (tmp_path / "pkg" / "clean.py").write_text(
            "def triple(x):\n    return x * 3\n", encoding="utf-8"
        )
        result = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert result.stats.parsed == 1
        assert result.stats.cache_hits == 2

    def test_project_rules_still_fire_from_cached_summaries(self, tmp_path):
        write_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/helper.py": """
                import time


                def read_clock():
                    return time.time()
            """,
            "pkg/entry.py": """
                from pkg.helper import read_clock


                def simulate():
                    return read_clock()
            """,
        })
        cold = make_analyzer(tmp_path, select=["REP040"]).analyze(
            [str(tmp_path / "pkg")]
        )
        warm = make_analyzer(tmp_path, select=["REP040"]).analyze(
            [str(tmp_path / "pkg")]
        )
        assert warm.stats.parsed == 0
        assert [f.rule_id for f in cold.findings] == ["REP040"]
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_ruleset_change_invalidates(self, tmp_path):
        write_package(tmp_path, FILES)
        make_analyzer(tmp_path, select=["REP001"]).analyze(
            [str(tmp_path / "pkg")]
        )
        result = make_analyzer(tmp_path, select=["REP002"]).analyze(
            [str(tmp_path / "pkg")]
        )
        assert result.stats.parsed == 3

    def test_pre_rep06x_cache_is_fully_discarded(self, tmp_path):
        # A cache written before the REP06x decade existed carries
        # summaries without the shard-safety evidence.  Its signature
        # (schema v1 + the 17-rule pack) can never match today's, so
        # the whole file must be discarded — zero hits, full re-parse.
        write_package(tmp_path, FILES)
        cache_path = tmp_path / "cache.json"
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
        pre_decade_rules = [
            rule.rule_id for rule in Analyzer(root=str(tmp_path)).rules
            if not rule.rule_id.startswith("REP06")
        ]
        payload["signature"] = ruleset_signature(pre_decade_rules)
        cache_path.write_text(json.dumps(payload), encoding="utf-8")
        result = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert result.stats.cache_hits == 0
        assert result.stats.parsed == 3
        # ... and the run rewrote the cache under the current signature.
        warm = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert warm.stats.parsed == 0

    def test_warm_run_stays_hit_after_schema_bump(self, tmp_path):
        # The acceptance check for the schema bump: once a cache has
        # been written by the current (v2) engine, a second run over an
        # unchanged tree performs zero re-parses even with the full
        # default pack (REP06x included).
        write_package(tmp_path, FILES)
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        warm = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert warm.stats.cache_hits == 3
        assert warm.stats.parsed == 0

    def test_schema_3_cache_is_discarded(self, tmp_path, monkeypatch):
        # A file the v3 engine wrote: its signature hashes schema 3 and
        # its findings carry the reporter keys (``rule``,
        # ``fingerprint``).  It must be dropped whole — a cold run, not
        # a crash and not a stale hit.
        write_package(tmp_path, FILES)
        cache_path = tmp_path / "cache.json"
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 3)
            cold = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
        entries = payload["entries"].values()
        assert any(entry["findings"] for entry in entries)
        for entry in entries:
            entry["findings"] = [
                decode(Finding, item).to_dict() for item in entry["findings"]
            ]
        cache_path.write_text(json.dumps(payload), encoding="utf-8")
        result = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert result.stats.cache_hits == 0
        assert result.stats.parsed == 3
        assert [f.to_dict() for f in result.findings] == [
            f.to_dict() for f in cold.findings
        ]
        warm = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert warm.stats.parsed == 0

    def test_cache_disabled_by_default(self, tmp_path):
        write_package(tmp_path, FILES)
        analyzer = Analyzer(root=str(tmp_path))
        result = analyzer.analyze([str(tmp_path / "pkg")])
        assert not result.stats.cache_enabled
        assert result.stats.parsed == 3


class TestCacheFile:
    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        write_package(tmp_path, FILES)
        cache_path = tmp_path / "cache.json"
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        cache_path.write_text("{not json", encoding="utf-8")
        result = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert result.stats.parsed == 3
        # ... and the run repaired the cache for the next one.
        repaired = make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        assert repaired.stats.parsed == 0

    def test_deleted_files_are_pruned(self, tmp_path):
        write_package(tmp_path, FILES)
        cache_path = tmp_path / "cache.json"
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        (tmp_path / "pkg" / "dirty.py").unlink()
        make_analyzer(tmp_path).analyze([str(tmp_path / "pkg")])
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
        assert "pkg/dirty.py" not in payload["entries"]

    def test_signature_mismatch_is_empty(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = LintCache(path, ruleset_signature(["REP001"]))
        digest = content_hash(b"x = 1\n")
        cache.put("mod.py", digest, [], _dummy_summary())
        cache.save()
        other = LintCache.load(path, ruleset_signature(["REP002"]))
        assert other.get("mod.py", digest) is None
        same = LintCache.load(path, ruleset_signature(["REP001"]))
        assert same.get("mod.py", digest) is not None

    def test_content_hash_mismatch_misses(self, tmp_path):
        path = str(tmp_path / "cache.json")
        signature = ruleset_signature(["REP001"])
        cache = LintCache(path, signature)
        cache.put("mod.py", content_hash(b"x = 1\n"), [], _dummy_summary())
        assert cache.get("mod.py", content_hash(b"x = 2\n")) is None


class TestCodec:
    def test_finding_fingerprint_is_recomputed_not_stored(self):
        finding = Finding(
            rule_id="REP001", path="mod.py", line=3, column=0,
            message="m", severity=Severity.ERROR, source="import random",
            occurrence=1,
        )
        data = encode(finding)
        assert "fingerprint" not in data
        assert data["severity"] == "error"
        data["fingerprint"] = "0" * 16
        rebuilt = decode(Finding, data)
        assert rebuilt == finding
        assert rebuilt.fingerprint == finding.fingerprint

    def test_every_src_summary_round_trips_exactly(self):
        analyzer = Analyzer(root=str(REPO_ROOT), select=["REP001"])
        paths = analyzer.discover([str(REPO_ROOT / "src" / "repro")])
        assert len(paths) > 100
        for abspath in paths:
            summary = summarize_module(analyzer.parse(abspath))
            data = json.loads(json.dumps(encode(summary)))
            assert decode(ModuleSummary, data) == summary, abspath

    def test_unsupported_field_type_is_refused(self):
        @dataclasses.dataclass
        class Odd:
            labels: FrozenSet[str]

        with pytest.raises(TypeError):
            encode(Odd(frozenset({"a"})))

    def test_sets_encode_sorted(self):
        summary = ModuleSummary(
            module="mod", path="mod.py", basename="mod.py",
            referenced={"b", "c", "a"},
        )
        assert encode(summary)["referenced"] == ["a", "b", "c"]


def _dummy_summary():
    return ModuleSummary(module="mod", path="mod.py", basename="mod.py")
