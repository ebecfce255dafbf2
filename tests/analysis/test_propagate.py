"""The shared reachability fixpoint's tie-break, pinned per consumer.

Each fixture gives one function two witnesses at equal depth, with the
seeds' own order opposite to their intermediate hops' order.  The
recorded chain must be the one through the smallest predecessor at
every hop, so REP040, the REP07x effect traces and the REP06x closure
all report the same witness on every run.
"""

from repro.analysis import propagate_taint
from repro.analysis.effects import infer_effects

from .test_graph import build_graph
from .test_graphrules import by_rule, lint_package

# Two sources at equal depth from ``top``: ``a_source`` is reached
# through ``z_mid`` and ``b_source`` through ``y_mid``.  Seeding walks
# ``a_source`` first, but the smaller hop ``y_mid`` wins the tie.
TAINT_FILES = {
    "pkg/__init__.py": "",
    "pkg/sources.py": """
        import random
        import time


        def a_source():
            return time.time()


        def b_source():
            return random.random()
    """,
    "pkg/mid.py": """
        from pkg.sources import a_source, b_source


        def z_mid():
            return a_source()


        def y_mid():
            return b_source()
    """,
    "pkg/top.py": """
        from pkg.mid import y_mid, z_mid


        def top():
            return z_mid() + y_mid()
    """,
}

EFFECT_FILES = {
    "pkg/__init__.py": "",
    "pkg/state.py": """
        LOG = []
        SEEN = {}


        def a_write(item):
            LOG.append(item)


        def b_write(item):
            SEEN[item] = True
    """,
    "pkg/mid.py": """
        from pkg.state import a_write, b_write


        def z_mid(item):
            a_write(item)


        def y_mid(item):
            b_write(item)
    """,
    "pkg/top.py": """
        from repro.markers import pure_function

        from pkg.mid import y_mid, z_mid


        @pure_function
        def verdict(item):
            z_mid(item)
            y_mid(item)
            return item
    """,
}

# Two shard entries reach ``leaf`` at equal depth: ``a_entry`` through
# ``z_mid`` and ``b_entry`` through ``y_mid``.
SHARD_FILES = {
    "pkg/__init__.py": "",
    "pkg/state.py": """
        CACHE = {}
    """,
    "pkg/leaf.py": """
        from pkg.state import CACHE


        def leaf(shard):
            return CACHE.get(shard)
    """,
    "pkg/mid.py": """
        from pkg.leaf import leaf


        def z_mid(shard):
            return leaf(shard)


        def y_mid(shard):
            return leaf(shard)
    """,
    "pkg/work.py": """
        from repro.markers import shard_entry

        from pkg.mid import y_mid, z_mid


        @shard_entry
        def a_entry(shard):
            return z_mid(shard)


        @shard_entry
        def b_entry(shard):
            return y_mid(shard)
    """,
}


class TestTaintTieBreak:
    def test_trace_takes_the_smaller_hop(self, tmp_path):
        graph = build_graph(tmp_path, TAINT_FILES)
        trace = propagate_taint(graph).trace(("pkg.top", "top"))
        assert trace.chain == (
            ("pkg.top", "top"),
            ("pkg.mid", "y_mid"),
            ("pkg.sources", "b_source"),
        )
        assert trace.reasons[0].kind == "ambient-random"

    def test_rep040_message_names_that_chain(self, tmp_path):
        findings = lint_package(tmp_path, TAINT_FILES, select=["REP040"])
        [finding] = [
            f for f in by_rule(findings, "REP040") if f.path == "pkg/top.py"
        ]
        assert (
            "pkg.top.top -> pkg.mid.y_mid -> pkg.sources.b_source"
            in finding.message
        )


class TestEffectTieBreak:
    def test_trace_takes_the_smaller_hop(self, tmp_path):
        graph = build_graph(tmp_path, EFFECT_FILES)
        trace = infer_effects(graph).trace(
            ("pkg.top", "verdict"), "writes-global"
        )
        assert trace.chain == (
            ("pkg.top", "verdict"),
            ("pkg.mid", "y_mid"),
            ("pkg.state", "b_write"),
        )
        assert trace.atom.target.startswith("SEEN")

    def test_rep071_message_names_that_chain(self, tmp_path):
        findings = lint_package(tmp_path, EFFECT_FILES, select=["REP071"])
        [finding] = by_rule(findings, "REP071")
        assert (
            "pkg.top.verdict -> pkg.mid.y_mid -> pkg.state.b_write"
            " (writes-global:" in finding.message
        )


class TestShardClosureTieBreak:
    def test_rep060_chain_takes_the_smaller_hop(self, tmp_path):
        findings = lint_package(tmp_path, SHARD_FILES, select=["REP060"])
        [finding] = by_rule(findings, "REP060")
        assert finding.path == "pkg/state.py"
        assert (
            "(pkg.work.b_entry -> pkg.mid.y_mid -> pkg.leaf.leaf)"
            in finding.message
        )
