"""REP041/REP042/REP043: the injection-contract and surface rules."""

from repro.analysis import Analyzer
from repro.analysis.graphrules import (
    CorrelatedStreamsRule,
    DeadExportRule,
    ShadowedInjectionRule,
    TransitiveNondeterminismRule,
)

from .test_graph import write_package


def lint_package(tmp_path, files, select=None, reference_roots=None):
    write_package(tmp_path, files)
    analyzer = Analyzer(
        root=str(tmp_path), select=select, reference_roots=reference_roots
    )
    return analyzer.run([str(tmp_path / "pkg")])


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestRuleDecade:
    def test_rule_ids_and_severities(self):
        assert TransitiveNondeterminismRule.rule_id == "REP040"
        assert CorrelatedStreamsRule.rule_id == "REP041"
        assert ShadowedInjectionRule.rule_id == "REP042"
        assert DeadExportRule.rule_id == "REP043"


class TestRep041CorrelatedStreams:
    def test_duplicate_fork_labels_across_modules(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def setup_a(rng):
                    return rng.fork("worker")
            """,
            "pkg/b.py": """
                def setup_b(rng):
                    return rng.fork("worker")
            """,
        }, select=["REP041"])
        flagged = by_rule(findings, "REP041")
        assert {f.path for f in flagged} == {"pkg/a.py", "pkg/b.py"}
        assert all("worker" in f.message for f in flagged)

    def test_unique_labels_are_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def setup(rng):
                    east = rng.fork("east")
                    west = rng.fork("west")
                    return east, west
            """,
        }, select=["REP041"])
        assert by_rule(findings, "REP041") == []

    def test_unforked_stream_passed_to_multiple_consumers(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def wire(rng, east, west):
                    east.attach(rng)
                    west.attach(rng)
            """,
        }, select=["REP041"])
        flagged = by_rule(findings, "REP041")
        assert len(flagged) == 1
        assert "'rng'" in flagged[0].message

    def test_forked_children_are_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def wire(rng, east, west):
                    east.attach(rng.fork("east"))
                    west.attach(rng.fork("west"))
            """,
        }, select=["REP041"])
        assert by_rule(findings, "REP041") == []


class TestRep042ShadowedInjection:
    def test_if_none_fallback(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from repro.rng import SeededRng


                class Scanner:
                    def __init__(self, rng=None):
                        if rng is None:
                            rng = SeededRng(7)
                        self._rng = rng
            """,
        }, select=["REP042"])
        flagged = by_rule(findings, "REP042")
        assert len(flagged) == 1
        assert "'rng'" in flagged[0].message

    def test_conditional_expression_fallback(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from repro.rng import SeededRng


                class Scanner:
                    def __init__(self, rng=None):
                        self._rng = rng if rng is not None else SeededRng(7)
            """,
        }, select=["REP042"])
        assert len(by_rule(findings, "REP042")) == 1

    def test_or_fallback(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from repro.rng import SeededRng


                def configure(rng=None):
                    rng = rng or SeededRng(7)
                    return rng
            """,
        }, select=["REP042"])
        assert len(by_rule(findings, "REP042")) == 1

    def test_required_injection_is_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                class Scanner:
                    def __init__(self, rng):
                        self._rng = rng
            """,
        }, select=["REP042"])
        assert by_rule(findings, "REP042") == []


class TestRep043DeadExport:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/mod.py": """
            __all__ = ["used", "unused"]


            def used():
                return 1


            def unused():
                return 2
        """,
        "pkg/consumer.py": """
            from pkg.mod import used


            def go():
                return used()
        """,
    }

    def test_unreferenced_export_is_flagged(self, tmp_path):
        findings = lint_package(tmp_path, self.FILES, select=["REP043"])
        flagged = by_rule(findings, "REP043")
        assert len(flagged) == 1
        assert "'unused'" in flagged[0].message
        assert flagged[0].path == "pkg/mod.py"

    def test_reference_roots_keep_exports_alive(self, tmp_path):
        write_package(tmp_path, {
            "refs/test_usage.py": "from pkg.mod import unused\n",
        })
        findings = lint_package(
            tmp_path, self.FILES, select=["REP043"],
            reference_roots=[str(tmp_path / "refs")],
        )
        assert by_rule(findings, "REP043") == []

    def test_campaignbench_is_a_default_reference_root(self, tmp_path):
        # The campaign benchmark calls and patches library names; with
        # no explicit roots, a use there keeps an export alive.
        write_package(tmp_path, {
            "campaignbench/campaign.py": "from pkg.mod import unused\n",
        })
        findings = lint_package(tmp_path, self.FILES, select=["REP043"])
        assert by_rule(findings, "REP043") == []

    def test_own_module_use_keeps_export_alive(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                __all__ = ["helper"]


                def helper():
                    return 1


                def _internal():
                    return helper()
            """,
        }, select=["REP043"])
        assert by_rule(findings, "REP043") == []

    def test_star_import_in_reference_root_keeps_exports_alive(self, tmp_path):
        # ``from pkg.mod import *`` binds every __all__ name without
        # mentioning any of them; the whole export list is live.
        write_package(tmp_path, {
            "refs/test_star.py": "from pkg.mod import *\n\n\ndef go():\n    return used()\n",
        })
        findings = lint_package(
            tmp_path, self.FILES, select=["REP043"],
            reference_roots=[str(tmp_path / "refs")],
        )
        assert by_rule(findings, "REP043") == []

    def test_star_import_of_other_module_does_not_shield(self, tmp_path):
        write_package(tmp_path, {
            "refs/test_star.py": "from pkg.other import *\n",
        })
        findings = lint_package(
            tmp_path, self.FILES, select=["REP043"],
            reference_roots=[str(tmp_path / "refs")],
        )
        flagged = by_rule(findings, "REP043")
        assert len(flagged) == 1
        assert "'unused'" in flagged[0].message
