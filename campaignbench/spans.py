"""Wall-clock spans recorded around calls into the program's layers.

The tracer patches the public functions and methods listed in
:data:`INSTRUMENTED` with thin wrappers, so every span comes from this
directory and nothing inside ``src/`` changes.  Only phase-level entry
points are wrapped: a per-query span on the resolver hot path would
cost more than it measures, so DNS and fabric time shows up as the self
time of the collector and scanner spans that drive them.

Spans live in memory as ``(name, layer, start, end, parent)`` tuples,
``parent`` being the index of the span open when this one started (-1
at top level).  A forked shard worker inherits the patched wrappers;
the first span it opens resets the tracer to a fresh, per-process span
list, which the worker writes to ``spans-<pid>.json`` when it ships its
payload, because that is the last call a worker makes.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(module, attribute path, span name, layer)``.  A ``{0}`` in the span
#: name is filled from the call's first argument after ``self``.
INSTRUMENTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.world.internet", "SimulatedInternet.__init__", "world.build", "world"),
    ("repro.world.internet", "SimulatedInternet.install_traffic", "world.install", "world"),
    ("repro.world.internet", "SimulatedInternet.install_attacks", "world.install", "world"),
    ("repro.world.events", "WorldEngine.run_day", "world.engine.day", "world"),
    ("repro.core.study", "SixWeekStudy.begin", "core.study.begin", "core.study"),
    ("repro.core.study", "SixWeekStudy.run_day", "core.study.run_day", "core.study"),
    # collect_day's self time is the per-site status observation (Table
    # III) plus the harvest ingest: everything but the DNS collection.
    ("repro.core.study", "SixWeekStudy.collect_day", "core.study.collect_day", "core.status"),
    ("repro.core.study", "SixWeekStudy.scan_day", "core.study.scan_day", "core.study"),
    ("repro.core.study", "SixWeekStudy.advance_day", "core.study.advance_day", "core.study"),
    ("repro.core.study", "SixWeekStudy.finalise", "core.study.finalise", "core.study"),
    ("repro.core.collector", "DnsRecordCollector.collect", "core.collector.collect", "core.collector"),
    ("repro.core.residual_scan", "NameserverHarvest.resolve_addresses",
     "core.residual_scan.harvest_resolve", "core.residual_scan"),
    ("repro.core.residual_scan", "CloudflareScanner.scan", "core.residual_scan.scan", "core.residual_scan"),
    ("repro.core.residual_scan", "IncapsulaScanner.scan", "core.residual_scan.scan", "core.residual_scan"),
    ("repro.core.pipeline", "FilterPipeline.run", "core.pipeline.run", "core.pipeline"),
    ("repro.traffic.plane", "TrafficPlane.drive_day", "traffic.drive", "traffic"),
    ("repro.attacks.plane", "AttackPlane.drive_day", "attacks.drive", "attacks"),
    ("repro.checkpoint.store", "CheckpointStore.create", "checkpoint.create", "checkpoint"),
    ("repro.checkpoint.store", "CheckpointStore.append_barrier", "checkpoint.append", "checkpoint"),
    # Both runners import serialize_runtime by name; patch each binding.
    ("repro.checkpoint.runner", "serialize_runtime", "checkpoint.serialize", "checkpoint"),
    ("repro.shard.runner", "serialize_runtime", "checkpoint.serialize", "checkpoint"),
    ("repro.shard.runner", "ProcessExecutor.start", "shard.op.start", "shard"),
    ("repro.shard.runner", "ProcessExecutor.call_all", "shard.op.{0}", "shard"),
    ("repro.shard.runner", "ProcessExecutor.close", "shard.op.close", "shard"),
    ("repro.shard.runner", "merge_payloads", "shard.merge", "shard"),
    ("repro.shard.runner", "overlay_merged", "shard.overlay", "shard"),
    ("repro.shard.runner", "worker_payload", "shard.payload", "shard"),
)

Span = Tuple[str, str, float, float, int]


class Tracer:
    """In-memory span recorder plus a GC pause clock."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.origin_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[List[object]] = []
        self._stack: List[int] = []
        self.gc_s = 0.0
        self.gen2_collections = 0
        self._gc_started: Optional[float] = None

    def _open(self, name: str, layer: str) -> int:
        if os.getpid() != self.pid:
            self._reset()  # first span in a forked worker
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        templated = "{0}" in name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name.format(args[1]) if templated else name
            index = self._open(label, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if label == "shard.payload" and os.getpid() != self.origin_pid:
                    self.dump()

        return traced

    def install(self) -> None:
        """Patch every entry point; call before the run starts (and so
        before any shard worker forks)."""
        for module_name, path, name, layer in INSTRUMENTED:
            patch(importlib.import_module(module_name), path,
                  lambda fn, name=name, layer=layer: self.wrap(fn, name, layer))
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def record(self) -> Dict[str, object]:
        return {
            "pid": self.pid,
            "spans": [list(span) for span in self.spans],
            "gc_s": self.gc_s,
            "gen2_collections": self.gen2_collections,
        }

    def dump(self) -> None:
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.record()))


def patch(module: object, path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.<path>`` (a function or ``Class.method``) with
    ``make(original)``, keeping classmethods classmethods."""
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


# -- span arithmetic --------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = union_length(
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if min(end, e) > max(start, s)
        )
        result.append((end - start) - covered)
    return result


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans."""
    covered = union_length(
        (max(start, s), min(end, e))
        for _, _, s, e, parent in spans
        if parent < 0 and min(end, e) > max(start, s)
    )
    return covered / (end - start) if end > start else 0.0
