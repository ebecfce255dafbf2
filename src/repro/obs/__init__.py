"""Observability for the query plane.

:mod:`repro.obs.metrics` — injectable monotonic counters (named, or
through pre-bound :class:`Counter` handles on hot paths) and
simulated-time timers, threaded through the resolver, the DNS cache, and
the §V scanners;

:mod:`repro.obs.bench` — the ``repro bench`` harness running the E1
(daily collection) and E8 (residual scan) workloads and emitting a
``BENCH_<label>.json`` perf-trajectory point.  Imported lazily by the
CLI — not re-exported here, so that importing :mod:`repro.dns` (which
uses the metrics) never drags in the world-building machinery.
"""

from .metrics import Counter, MetricsRegistry, SimTimer

__all__ = ["Counter", "MetricsRegistry", "SimTimer"]
