"""``--jobs``: parallel cold-start parsing, byte-identical output.

The worker pool only does the embarrassingly parallel part (parse +
per-module rules + summarize); project rules and suppression handling
stay in the parent.  Results are merged back in discovery order, so a
parallel run must be indistinguishable from a serial one — fingerprints,
occurrence numbers, and summaries included.
"""

from repro.analysis import Analyzer

from .test_graph import write_package

FILES = {
    "pkg/__init__.py": "",
    "pkg/clean.py": """
        def double(x):
            return x * 2
    """,
    "pkg/dirty.py": """
        import random


        def roll():
            return random.random()
    """,
    "pkg/helper.py": """
        import time


        def read_clock():
            return time.time()
    """,
    "pkg/caller.py": """
        from pkg.helper import read_clock


        def simulate():
            return read_clock()
    """,
}


def analyze(tmp_path, **kwargs):
    analyzer = Analyzer(root=str(tmp_path), **kwargs)
    return analyzer.analyze([str(tmp_path / "pkg")])


class TestJobsParity:
    def test_parallel_findings_identical_to_serial(self, tmp_path):
        write_package(tmp_path, FILES)
        serial = analyze(tmp_path, jobs=1)
        parallel = analyze(tmp_path, jobs=2)
        assert [f.to_dict() for f in parallel.findings] == [
            f.to_dict() for f in serial.findings
        ]
        assert parallel.summaries == serial.summaries
        # Both modes flagged something, so the parity is non-vacuous —
        # including the REP040 chain that needs cross-file summaries.
        assert any(f.rule_id == "REP040" for f in serial.findings)

    def test_jobs_zero_means_one_per_cpu(self, tmp_path):
        write_package(tmp_path, FILES)
        serial = analyze(tmp_path, jobs=1)
        auto = analyze(tmp_path, jobs=0)
        assert [f.to_dict() for f in auto.findings] == [
            f.to_dict() for f in serial.findings
        ]

    def test_parallel_run_populates_cache_for_serial_warm_run(self, tmp_path):
        write_package(tmp_path, FILES)
        cache_path = str(tmp_path / "cache.json")
        cold = analyze(tmp_path, jobs=2, cache_path=cache_path)
        assert cold.stats.parsed == len(FILES)
        warm = analyze(tmp_path, jobs=1, cache_path=cache_path)
        assert warm.stats.parsed == 0
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_single_miss_stays_serial(self, tmp_path):
        # One cache miss is not worth a pool; the engine must not even
        # try to spawn workers (observable only as "it still works").
        write_package(tmp_path, FILES)
        cache_path = str(tmp_path / "cache.json")
        analyze(tmp_path, jobs=4, cache_path=cache_path)
        (tmp_path / "pkg" / "clean.py").write_text(
            "def triple(x):\n    return x * 3\n", encoding="utf-8"
        )
        result = analyze(tmp_path, jobs=4, cache_path=cache_path)
        assert result.stats.parsed == 1
        assert result.stats.cache_hits == len(FILES) - 1
