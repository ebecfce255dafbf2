"""Call-graph construction on fixture packages.

Covers the satellite's checklist: cross-module calls, re-exports, and
method dispatch — plus module naming and the summary round-trip the
cache depends on.
"""

import json
import textwrap

import pytest

from repro.analysis import Analyzer, ModuleSummary, ProjectGraph, summarize_module
from repro.analysis.cache import decode, encode
from repro.analysis.graph import (
    CallRef,
    ClassSummary,
    ExportInfo,
    FunctionSummary,
    ParamInfo,
    module_name_for,
)


def write_package(tmp_path, files):
    """Write ``files`` (relative path -> source) under ``tmp_path``."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def build_graph(tmp_path, files, external=None):
    write_package(tmp_path, files)
    analyzer = Analyzer(root=str(tmp_path), select=["REP001"])
    summaries = [
        summarize_module(analyzer.parse(abspath))
        for abspath in analyzer.discover([str(tmp_path)])
    ]
    return ProjectGraph(summaries, external_references=external)


def edge_set(graph):
    return {
        (caller, callee)
        for caller, callees in graph.call_edges().items()
        for callee in callees
    }


class TestModuleNaming:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/repro/obs/bench.py", "repro.obs.bench"),
            ("src/repro/__init__.py", "repro"),
            ("src/repro/core/__init__.py", "repro.core"),
            ("pkg/mod.py", "pkg.mod"),
            ("mod.py", "mod"),
        ],
    )
    def test_module_name_for(self, path, expected):
        assert module_name_for(path) == expected


class TestCallGraph:
    def test_cross_module_call_through_from_import(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from pkg.b import helper

                def caller():
                    return helper()
            """,
            "pkg/b.py": """
                def helper():
                    return 1
            """,
        })
        assert (
            ("pkg.a", "caller"), ("pkg.b", "helper")
        ) in edge_set(graph)

    def test_relative_import_resolution(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from .b import helper

                def caller():
                    return helper()
            """,
            "pkg/b.py": """
                def helper():
                    return 1
            """,
        })
        assert (
            ("pkg.a", "caller"), ("pkg.b", "helper")
        ) in edge_set(graph)

    def test_module_attribute_call(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                from pkg import b

                def caller():
                    return b.helper()
            """,
            "pkg/b.py": """
                def helper():
                    return 1
            """,
        })
        assert (
            ("pkg.a", "caller"), ("pkg.b", "helper")
        ) in edge_set(graph)

    def test_reexport_through_package_init(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": """
                from .b import helper

                __all__ = ["helper"]
            """,
            "pkg/a.py": """
                from pkg import helper

                def caller():
                    return helper()
            """,
            "pkg/b.py": """
                def helper():
                    return 1
            """,
        })
        edges = edge_set(graph)
        # The import chain hops through pkg/__init__; the conservative
        # resolution follows the package binding to the definition.
        assert any(
            caller == ("pkg.a", "caller") and callee[1] == "helper"
            for caller, callee in edges
        )

    def test_method_dispatch_on_local_constructor(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Service:
                    def work(self):
                        return self._impl()

                    def _impl(self):
                        return 1
            """,
            "pkg/use.py": """
                from pkg.svc import Service

                def run():
                    svc = Service()
                    return svc.work()
            """,
        })
        edges = edge_set(graph)
        assert (("pkg.use", "run"), ("pkg.svc", "Service.work")) in edges
        assert (
            ("pkg.svc", "Service.work"), ("pkg.svc", "Service._impl")
        ) in edges

    def test_method_dispatch_through_annotated_param(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Service:
                    def work(self):
                        return 1
            """,
            "pkg/use.py": """
                from pkg.svc import Service

                def run(svc: Service):
                    return svc.work()
            """,
        })
        assert (
            ("pkg.use", "run"), ("pkg.svc", "Service.work")
        ) in edge_set(graph)

    def test_method_dispatch_through_annotated_local(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Service:
                    def work(self):
                        return 1

                class Other:
                    def work(self):
                        return 2
            """,
            "pkg/use.py": """
                from pkg.svc import Service

                def run(services):
                    svc: Service
                    for svc in services:
                        svc.work()
            """,
        })
        edges = edge_set(graph)
        assert (("pkg.use", "run"), ("pkg.svc", "Service.work")) in edges
        assert (("pkg.use", "run"), ("pkg.svc", "Other.work")) not in edges

    def test_method_dispatch_through_a_typed_params_field(self, tmp_path):
        # ``runtime.collector.collect()`` with ``runtime: Runtime``: the
        # dataclass field's annotation types the receiver.  ``collect``
        # has two owners, so the unique-name fallback cannot guess.
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Collector:
                    def collect(self):
                        return 1

                class Other:
                    def collect(self):
                        return 2
            """,
            "pkg/state.py": """
                from dataclasses import dataclass
                from typing import Optional

                from pkg.svc import Collector

                @dataclass
                class Runtime:
                    collector: Collector
                    spare: Optional[Collector] = None
                    count: int = 0
            """,
            "pkg/use.py": """
                from pkg.state import Runtime

                def run(runtime: Runtime):
                    runtime.spare.collect()
                    return runtime.collector.collect()

                def untyped(runtime):
                    return runtime.collector.collect()
            """,
        })
        edges = edge_set(graph)
        assert (("pkg.use", "run"), ("pkg.svc", "Collector.collect")) in edges
        assert (("pkg.use", "run"), ("pkg.svc", "Other.collect")) not in edges
        assert not [edge for edge in edges if edge[0] == ("pkg.use", "untyped")]

    def test_protocol_receiver_dispatches_to_every_implementer(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/contract.py": """
                from typing import Protocol

                class Plane(Protocol):
                    def admit(self, packet):
                        ...

                    def drive(self):
                        ...

                def deliver(planes, packet):
                    plane: Plane
                    for plane in planes:
                        plane.admit(packet)
            """,
            "pkg/impl.py": """
                class Loss:
                    def admit(self, packet):
                        return None

                    def drive(self):
                        return ()

                class Flood:
                    def admit(self, packet):
                        return None

                    def drive(self):
                        return ()

                class Bystander:
                    def admit(self, packet):
                        return None
            """,
        })
        targets = {
            callee
            for caller, callee in edge_set(graph)
            if caller == ("pkg.contract", "deliver")
        }
        assert targets == {
            ("pkg.impl", "Loss.admit"),
            ("pkg.impl", "Flood.admit"),
        }

    def test_inherited_method_resolves_to_base(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": """
                class Base:
                    def shared(self):
                        return 1
            """,
            "pkg/child.py": """
                from pkg.base import Base

                class Child(Base):
                    def go(self):
                        return self.shared()
            """,
        })
        assert (
            ("pkg.child", "Child.go"), ("pkg.base", "Base.shared")
        ) in edge_set(graph)

    def test_ubiquitous_method_names_never_fallback(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Registry:
                    def get(self, key):
                        return key
            """,
            "pkg/use.py": """
                def run(payload):
                    return payload.get("x")
            """,
        })
        assert not any(
            caller == ("pkg.use", "run") for caller, _ in edge_set(graph)
        )

    def test_unique_method_name_fallback(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/svc.py": """
                class Engine:
                    def run_days(self, n):
                        return n
            """,
            "pkg/use.py": """
                def advance(engine):
                    return engine.run_days(7)
            """,
        })
        assert (
            ("pkg.use", "advance"), ("pkg.svc", "Engine.run_days")
        ) in edge_set(graph)

    def test_nested_def_gets_containment_edge(self, tmp_path):
        graph = build_graph(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def outer():
                    def inner():
                        return 1
                    return inner
            """,
        })
        assert (
            ("pkg.a", "outer"), ("pkg.a", "outer.inner")
        ) in edge_set(graph)


class TestSummaryModel:
    def test_summary_round_trips_through_dict(self, tmp_path):
        write_package(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                import time
                from pkg.other import thing

                __all__ = ["entry"]


                class Holder:
                    def __init__(self, rng):
                        self.rng = rng


                def entry(rng, clock=None):
                    t = time.time()  # repro: allow[REP002] -- fixture
                    child = rng.fork("entry-child")
                    return thing(child, t)
            """,
        })
        analyzer = Analyzer(root=str(tmp_path), select=["REP001"])
        [_, abspath] = analyzer.discover([str(tmp_path)])
        summary = summarize_module(analyzer.parse(abspath))
        rebuilt = decode(ModuleSummary, json.loads(json.dumps(encode(summary))))
        assert rebuilt.module == "pkg.mod"
        assert rebuilt.bindings == summary.bindings
        assert sorted(rebuilt.functions) == sorted(summary.functions)
        entry = rebuilt.functions["entry"]
        assert [param.name for param in entry.params] == ["rng", "clock"]
        assert entry.taint_reasons[0].kind == "wall-clock"
        assert [fork.label for fork in rebuilt.fork_labels] == ["entry-child"]
        assert [export.name for export in rebuilt.exports] == ["entry"]
        assert [s.line for s in rebuilt.suppressions] == [
            s.line for s in summary.suppressions
        ]
        assert rebuilt == summary

    def test_summary_captures_class_and_calls(self, tmp_path):
        write_package(tmp_path, {
            "mod.py": """
                class Widget:
                    def __init__(self):
                        self.count = 0

                    def poke(self):
                        return self.count


                def use():
                    w = Widget()
                    return w.poke()
            """,
        })
        analyzer = Analyzer(root=str(tmp_path), select=["REP001"])
        [abspath] = analyzer.discover([str(tmp_path)])
        summary = summarize_module(analyzer.parse(abspath))
        klass = summary.classes["Widget"]
        assert isinstance(klass, ClassSummary)
        assert klass.methods == {
            "__init__": "Widget.__init__", "poke": "Widget.poke"
        }
        use = summary.functions["use"]
        assert isinstance(use, FunctionSummary)
        kinds = {(call.kind, call.name) for call in use.calls}
        assert ("name", "Widget") in kinds
        assert ("typed", "poke") in kinds

    def test_dataclass_round_trips(self):
        param = ParamInfo("rng", ("SeededRng",))
        assert decode(ParamInfo, encode(param)) == param
        assert param.is_rng and param.is_injected
        call = CallRef("obj", "helper", qualifier="mod", line=3)
        assert decode(CallRef, encode(call)) == call
        export = ExportInfo("name", 2, 4, '__all__ = ["name"]')
        assert decode(ExportInfo, encode(export)) == export
