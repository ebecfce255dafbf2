"""REP060-REP063: the shard-safety decade over declared boundaries.

The boundary spec is the pair of no-op decorators in
:mod:`repro.markers`; every fixture declares it the way real code does
(``@shard_entry`` on the per-shard unit of work, ``@merge_point`` on
the combiner).  With no declared boundary the decade must be inert.
"""

from repro.analysis.shardrules import (
    OrderSensitiveMergeRule,
    RngStreamEscapeRule,
    SharedMutableStateRule,
    UnregisteredCheckpointStateRule,
)
from repro.checkpoint.serde import SERDE_REGISTRY

from .test_graphrules import by_rule, lint_package


class TestRuleDecade:
    def test_rule_ids_and_titles(self):
        assert SharedMutableStateRule.rule_id == "REP060"
        assert OrderSensitiveMergeRule.rule_id == "REP061"
        assert RngStreamEscapeRule.rule_id == "REP062"
        assert UnregisteredCheckpointStateRule.rule_id == "REP063"
        for rule in (
            SharedMutableStateRule,
            OrderSensitiveMergeRule,
            RngStreamEscapeRule,
            UnregisteredCheckpointStateRule,
        ):
            assert rule.title

    def test_decade_is_inert_without_declared_boundary(self, tmp_path):
        # Worst-case shard hazards everywhere, but nothing is declared
        # an entry or merge point: zero findings.
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                CACHE = {}

                SERDE_REGISTRY = frozenset({"Nothing"})


                class Tracker:
                    seen = []

                    def bump(self):
                        self.total += 1


                def run(shard, acc=[]):
                    acc.append(CACHE.get(shard))
                    return acc
            """,
        }, select=["REP060", "REP061", "REP062", "REP063"])
        assert findings == []


class TestRep060SharedMutableState:
    def test_module_global_read_inside_boundary(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """
                CACHE = {}
            """,
            "pkg/work.py": """
                from repro.markers import shard_entry

                from pkg.state import CACHE


                @shard_entry
                def run(shard):
                    return CACHE.get(shard)
            """,
        }, select=["REP060"])
        flagged = by_rule(findings, "REP060")
        assert len(flagged) == 1
        assert flagged[0].path == "pkg/state.py"

    def test_global_read_through_a_typed_params_field(self, tmp_path):
        # The closure follows ``runtime.worker.step()`` through the
        # ``worker: Worker`` field of the entry's annotated parameter.
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """
                CACHE = {}
            """,
            "pkg/worker.py": """
                from pkg.state import CACHE

                class Worker:
                    def step(self, shard):
                        return CACHE.get(shard)

                class Idle:
                    def step(self, shard):
                        return None
            """,
            "pkg/work.py": """
                from dataclasses import dataclass

                from repro.markers import shard_entry

                from pkg.worker import Worker


                @dataclass
                class Runtime:
                    worker: Worker


                @shard_entry
                def run(runtime: Runtime, shard):
                    return runtime.worker.step(shard)
            """,
        }, select=["REP060"])
        flagged = by_rule(findings, "REP060")
        assert len(flagged) == 1
        assert flagged[0].path == "pkg/state.py"
        assert "'CACHE'" in flagged[0].message
        # The witness chain starts at the declared entry point.
        assert "pkg.work.run" in flagged[0].message

    def test_global_reached_through_helper_call(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import shard_entry

                SEEN = set()


                def record(shard):
                    return shard in SEEN


                @shard_entry
                def run(shard):
                    return record(shard)
            """,
        }, select=["REP060"])
        flagged = by_rule(findings, "REP060")
        assert len(flagged) == 1
        assert "pkg.work.run -> pkg.work.record" in flagged[0].message

    def test_class_level_mutable_attr_on_entry_class(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import shard_entry


                class Shard:
                    buffer = []

                    @shard_entry
                    def run(self):
                        return self.buffer
            """,
        }, select=["REP060"])
        flagged = by_rule(findings, "REP060")
        assert len(flagged) == 1
        assert "Shard.buffer" in flagged[0].message

    def test_mutable_default_on_reachable_function(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import shard_entry


                @shard_entry
                def run(items, acc=[]):
                    acc.extend(items)
                    return acc
            """,
        }, select=["REP060"])
        flagged = by_rule(findings, "REP060")
        assert len(flagged) == 1
        assert "'acc'" in flagged[0].message

    def test_immutable_global_and_unreachable_state_are_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import shard_entry

                LIMIT = 42

                ELSEWHERE = {}


                @shard_entry
                def run(shard):
                    return shard * LIMIT


                def other():
                    return ELSEWHERE
            """,
        }, select=["REP060"])
        assert by_rule(findings, "REP060") == []


class TestRep061OrderSensitiveMerge:
    def test_unsorted_dict_iteration_in_merge_point(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/merge.py": """
                from repro.markers import merge_point


                @merge_point
                def combine(counts):
                    out = 0
                    for name, value in counts.items():
                        out = out * 31 + value
                    return out
            """,
        }, select=["REP061"])
        flagged = by_rule(findings, "REP061")
        assert len(flagged) == 1
        assert "unsorted-dict-iteration" in flagged[0].message
        assert "'combine'" in flagged[0].message

    def test_arrival_order_fold_in_merge_point(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/merge.py": """
                from repro.markers import merge_point


                @merge_point
                def combine(results):
                    out = []
                    for result in results:
                        out.append(result)
                    return out
            """,
        }, select=["REP061"])
        flagged = by_rule(findings, "REP061")
        assert len(flagged) == 1
        assert "arrival-order-fold" in flagged[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/merge.py": """
                from repro.markers import merge_point


                @merge_point
                def combine(counts, results):
                    out = []
                    for name in sorted(counts):
                        out.append(counts[name])
                    for result in sorted(results):
                        out.append(result)
                    return out
            """,
        }, select=["REP061"])
        assert by_rule(findings, "REP061") == []

    def test_same_body_outside_merge_point_is_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/merge.py": """
                def combine(counts):
                    out = 0
                    for name, value in counts.items():
                        out = out * 31 + value
                    return out
            """,
        }, select=["REP061"])
        assert by_rule(findings, "REP061") == []


class TestRep062RngStreamEscape:
    def test_fork_shared_by_two_entry_points(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import shard_entry


                @shard_entry
                def run_east(rng):
                    return seed_stream(rng)


                @shard_entry
                def run_west(rng):
                    return seed_stream(rng)


                def seed_stream(rng):
                    return rng.fork("shared-stream")
            """,
        }, select=["REP062"])
        flagged = by_rule(findings, "REP062")
        assert len(flagged) == 1
        assert "'shared-stream'" in flagged[0].message
        assert "2 shard entry points" in flagged[0].message
        assert "pkg.work.run_east" in flagged[0].message
        assert "pkg.work.run_west" in flagged[0].message

    def test_shard_owned_fork_flowing_into_merge_code(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import merge_point, shard_entry


                @shard_entry
                def run(rng):
                    return jitter(rng)


                @merge_point
                def combine(rng, results):
                    return jitter(rng), sorted(results)


                def jitter(rng):
                    return rng.fork("probe-jitter")
            """,
        }, select=["REP062"])
        flagged = by_rule(findings, "REP062")
        assert len(flagged) == 1
        assert "'probe-jitter'" in flagged[0].message
        assert "flows into merge code" in flagged[0].message

    def test_private_per_entry_forks_are_clean(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": """
                from repro.markers import merge_point, shard_entry


                @shard_entry
                def run_east(rng):
                    return rng.fork("east-stream")


                @shard_entry
                def run_west(rng):
                    return rng.fork("west-stream")


                @merge_point
                def combine(results):
                    return sorted(results)
            """,
        }, select=["REP062"])
        assert by_rule(findings, "REP062") == []


REP063_REGISTRY = """
SERDE_REGISTRY = frozenset({"Tracker"})
"""

REP063_WORK_PREFIX = """
from repro.markers import shard_entry


class Tracker:
    def __init__(self):
        self.total = 0

    def bump(self):
        self.total += 1


class Rogue:
    def __init__(self):
        self.total = 0

    def note(self):
        self.total += 1


class Frozen:
    def __init__(self, n):
        self.n = n

    def get(self):
        return self.n
"""


class TestRep063UnregisteredCheckpointState:
    def test_unregistered_mutable_class_on_study_path(self, tmp_path):
        # The acceptance fixture: a mutable class newly constructed on a
        # shard path without a registry entry must be flagged, while the
        # registered one with the identical shape stays clean.
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/serde.py": REP063_REGISTRY,
            "pkg/work.py": REP063_WORK_PREFIX + """

@shard_entry
def run(shard):
    tracker = Tracker()
    rogue = Rogue()
    tracker.bump()
    rogue.note()
    return tracker.total + rogue.total
""",
        }, select=["REP063"])
        flagged = by_rule(findings, "REP063")
        assert len(flagged) == 1
        assert "'Rogue'" in flagged[0].message
        assert "SERDE_REGISTRY" in flagged[0].message
        assert "pkg.work.run" in flagged[0].message

    def test_immutable_class_is_clean_without_registration(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/serde.py": REP063_REGISTRY,
            "pkg/work.py": REP063_WORK_PREFIX + """

@shard_entry
def run(shard):
    return Frozen(shard).get()
""",
        }, select=["REP063"])
        assert by_rule(findings, "REP063") == []

    def test_entry_owning_class_must_be_registered(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/serde.py": REP063_REGISTRY,
            "pkg/work.py": """
                from repro.markers import shard_entry


                class Campaign:
                    def __init__(self):
                        self.day = 0

                    @shard_entry
                    def run_day(self):
                        self.day += 1
            """,
        }, select=["REP063"])
        flagged = by_rule(findings, "REP063")
        assert len(flagged) == 1
        assert "'Campaign'" in flagged[0].message

    def test_without_a_registry_the_rule_never_guesses(self, tmp_path):
        findings = lint_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": REP063_WORK_PREFIX + """

@shard_entry
def run(shard):
    rogue = Rogue()
    rogue.note()
    return rogue.total
""",
        }, select=["REP063"])
        assert by_rule(findings, "REP063") == []


class TestRealTreeRegistry:
    def test_serde_registry_names_real_checkpointable_classes(self):
        # Keep the registry honest: every name must be a real class the
        # checkpoint plane actually carries (state_dict pair or an
        # inline converter in checkpoint.serde).
        from repro.attacks import plane as attacks_plane
        from repro.core import collector, exposure, htmlverify, pipeline
        from repro.core import residual_scan, status, study
        from repro.dns import client, resolver
        from repro.faults import plan, quarantine
        from repro.obs import metrics
        from repro.traffic import defense, plane
        from repro.web import http

        modules = [
            attacks_plane, collector, exposure, htmlverify, pipeline,
            residual_scan, status, study, client, resolver, plan,
            quarantine, metrics, defense, plane, http,
        ]
        for name in SERDE_REGISTRY:
            assert any(
                isinstance(getattr(module, name, None), type)
                for module in modules
            ), f"SERDE_REGISTRY names unknown class {name!r}"

    def test_study_loop_classes_are_registered(self):
        for name in (
            "StudyRuntime", "StudyReport", "DnsRecordCollector",
            "NameserverHarvest", "ExposureTimeline", "FaultPlan",
        ):
            assert name in SERDE_REGISTRY
