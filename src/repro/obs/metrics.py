"""Lightweight observability: monotonic counters and simulated-time timers.

The query plane (resolver, cache, scanners) is the hot path of every
experiment in the paper — daily collection over the population, the
Fig. 8 A-matching filter, the §V residual scanners.  This module gives
those subsystems a shared, injectable :class:`MetricsRegistry` so a run
can report *what the query plane actually did*: queries sent, referrals
walked, cache hits/misses/negative hits, CNAME links chased, zone-cut
memo hits.

Design constraints (enforced by ``repro lint``):

* **Deterministic** — counters are plain monotonic integers; timers
  measure *simulated* seconds against a
  :class:`~repro.clock.SimulationClock`, never the wall clock.
* **Injectable** — no module-level global registry.  Subsystems accept a
  registry (or create a private one), so two resolvers never share
  counters by accident and tests can assert exact totals.

Counter names are dotted, ``subsystem.metric`` (``resolver.queries_sent``,
``cache.hits``), so :meth:`MetricsRegistry.snapshot` can cut
per-subsystem views with a prefix.

Hot paths bind a :class:`Counter` handle once (:meth:`MetricsRegistry.counter`)
and increment it without hashing the counter name on every event; cold
paths call :meth:`MetricsRegistry.incr` by name.  Both write the one
counter store the registry snapshots, restores and merges.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..clock import SimulationClock
from ..errors import SimulationError

__all__ = ["Counter", "MetricsRegistry", "SimTimer", "defense_counter"]


def defense_counter(provider: str, tier: str, kind: str) -> str:
    """Canonical name for a traffic-defense counter.

    The background-traffic plane records every defense verdict against
    a measurement delivery under
    ``traffic.defense.<provider>.<tier>.<kind>`` — ``kind`` is one of
    ``throttled`` (rate-limit drop), ``shed`` (breaker open / load
    shedding), ``refused`` (synthetic REFUSED actually synthesised) or
    ``breaker_open`` — split by provider and load tier so ``repro
    bench`` and the E1/E8 exports can show *who* shed *under what
    pressure*.  Keeping the scheme in one place means dashboards and
    tests never drift from the emitting code.
    """
    return f"traffic.defense.{provider}.{tier}.{kind}"


class SimTimer:
    """Context manager timing a block in *simulated* seconds.

    On exit it adds the elapsed simulated seconds to
    ``<name>.sim_seconds`` and bumps ``<name>.activations``.  Workloads
    that never advance the clock record zero seconds — by design: the
    simulation has no other notion of time.
    """

    def __init__(
        self, registry: "MetricsRegistry", name: str, clock: SimulationClock
    ) -> None:
        self._registry = registry
        self._name = name
        self._clock = clock
        self._started_at: Optional[int] = None

    def __enter__(self) -> "SimTimer":
        self._started_at = self._clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started_at is None:  # pragma: no cover - misuse guard
            return
        elapsed = self._clock.now - self._started_at
        self._registry.incr(f"{self._name}.sim_seconds", elapsed)
        self._registry.incr(f"{self._name}.activations")
        self._started_at = None


class Counter:
    """A handle on one named counter of a :class:`MetricsRegistry`.

    Bound once by :meth:`MetricsRegistry.counter`; :meth:`incr` adds to
    the registry's own store, so handle and named increments are
    interchangeable, and a handle bound before a ``restore`` or
    ``merge`` keeps counting from the restored or merged total.  Binding
    creates nothing: a handle never incremented leaves no entry in
    :meth:`MetricsRegistry.snapshot`.
    """

    __slots__ = ("name", "_counters")

    def __init__(self, counters: Dict[str, int], name: str) -> None:
        self.name = name
        self._counters = counters

    def incr(self, amount: int = 1) -> int:
        """Add ``amount`` (>= 0); returns the total.  See
        :meth:`MetricsRegistry.incr`."""
        if amount < 0:
            raise SimulationError(
                f"counter {self.name!r} is monotonic; cannot add {amount}"
            )
        counters = self._counters
        total = counters[self.name] = counters.get(self.name, 0) + amount
        return total


class MetricsRegistry:
    """Named monotonic counters with namespaced snapshots.

    >>> metrics = MetricsRegistry()
    >>> metrics.incr("resolver.queries_sent", 3)
    >>> metrics.value("resolver.queries_sent")
    3
    >>> metrics.snapshot(prefix="resolver")
    {'resolver.queries_sent': 3}
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    # -- counters ------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` (>= 0) to counter ``name``; returns the total.

        Counters are monotonic: a negative increment raises
        :class:`~repro.errors.SimulationError` so a buggy caller cannot
        silently rewind a total.
        """
        return self.counter(name).incr(int(amount))

    def counter(self, name: str) -> Counter:
        """A :class:`Counter` handle on ``name``, for hot paths."""
        return Counter(self._counters, name)

    def value(self, name: str) -> int:
        """Current total for ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def timer(self, name: str, clock: SimulationClock) -> SimTimer:
        """A :class:`SimTimer` recording under ``name``."""
        return SimTimer(self, name, clock)

    def restore(self, counters: Dict[str, int]) -> None:
        """Replace every counter with a previously taken :meth:`snapshot`.

        The checkpoint plane's restore side: counters are monotonic
        *within* a run, and a resume re-seats them at the exact totals
        the snapshot recorded so the continued run counts from there.
        Negative values are rejected — they cannot have come from a
        registry.
        """
        for name, value in counters.items():
            if int(value) < 0:
                raise SimulationError(
                    f"counter {name!r} cannot restore to {value}"
                )
        restored = {name: int(value) for name, value in counters.items()}
        # In place: bound Counter handles share this store.
        self._counters.clear()
        self._counters.update(restored)

    def merge(self, other: "MetricsRegistry | Dict[str, int]") -> None:
        """Fold another registry's totals into this one, counter-wise.

        The sharded study's aggregation primitive: each worker counts
        its own slice's queries, and the coordinator sums the per-shard
        registries into campaign totals.  Addition is commutative, so
        the merged totals are independent of worker completion order.
        Accepts either a registry or a :meth:`snapshot` dict (what a
        worker process ships over the wire).
        """
        counters = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name in sorted(counters):
            self.incr(name, int(counters[name]))

    # -- snapshots -----------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """Counters as a sorted dict, optionally one subsystem only.

        ``prefix`` matches whole dotted segments: ``"cache"`` selects
        ``cache.hits`` but not ``cachex.hits``.
        """
        if prefix is None:
            return {name: self._counters[name] for name in sorted(self._counters)}
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: self._counters[name]
            for name in sorted(self._counters)
            if name.startswith(dotted) or name == prefix
        }

    def __len__(self) -> int:
        """Number of distinct counters."""
        return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._counters)} counters)"
