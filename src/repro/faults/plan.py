"""Deterministic fault injection for the network fabric.

A :class:`FaultPlan` sits between the
:class:`~repro.net.fabric.NetworkFabric` and the servers it routes to.
On every DNS or HTTP delivery the fabric asks the plan for a
:class:`FaultVerdict`; the plan consults its ordered :class:`FaultRule`
list and either lets the packet through (possibly with added latency),
drops it, or substitutes a synthetic failure response (transient
``SERVFAIL``, lame-delegation ``REFUSED``).

Everything is deterministic by construction:

* probabilistic faults draw from an injected
  :class:`~repro.rng.SeededRng` stream — delivery order is itself
  deterministic, so the whole fault sequence replays bit-for-bit;
* time-scoped faults (outage windows, per-day rate limits) read the
  injected :class:`~repro.clock.SimulationClock`, never the wall clock;
* ``max_consecutive_failures`` caps how many times in a row the plan
  may fail deliveries to one destination.  A plan whose cap is below a
  client's :class:`~repro.faults.retry.RetryPolicy` ``max_attempts`` is
  *within the retry budget*: every query is guaranteed to get through
  on some attempt, so measured artifacts are byte-identical to a
  fault-free run (the ``repro chaos`` equivalence check).

Every injection lands in a :class:`~repro.obs.metrics.MetricsRegistry`
counter (``faults.dns.loss``, ``faults.http.outage``, ...) so recovery
overhead is observable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..clock import SimulationClock
from ..dns.message import DnsQuery, DnsResponse
from ..dns.name import DomainName
from ..errors import ConfigurationError
from ..net.geo import Region
from ..net.ipaddr import IPv4Address, IPv4Prefix
from ..obs.metrics import MetricsRegistry
from ..rng import SeededRng

__all__ = ["FaultKind", "FaultRule", "FaultVerdict", "FaultPlan"]


class FaultKind(enum.Enum):
    """The failure modes the plan can inject."""

    #: Packet disappears; the client sees a timeout (``None``).
    LOSS = "loss"
    #: Delivery succeeds but is charged extra simulated latency.
    LATENCY = "latency"
    #: Transient server failure: a ``SERVFAIL`` response (DNS only).
    SERVFAIL = "servfail"
    #: Lame delegation: the server refuses the query (DNS only).
    LAME = "lame"
    #: Destination answers at most N deliveries per simulated day,
    #: dropping the rest (per-nameserver throttling).
    RATE_LIMIT = "rate-limit"
    #: Scheduled unavailability window: every delivery dropped.
    OUTAGE = "outage"
    #: Process death at the Nth checkpoint barrier.  Not a fabric fault:
    #: a :class:`FaultRule` refuses this kind — it belongs to a
    #: :class:`~repro.faults.crash.CrashPlan` consulted by the
    #: checkpoint runner, not to delivery interception.
    CRASH = "crash"

    def __str__(self) -> str:
        return self.value


#: Verdict outcomes that mean the packet never reached a server.
_DROP_OUTCOMES = frozenset({"loss", "outage", "rate-limited"})
#: Fault kinds whose injection counts toward the consecutive-failure cap
#: (deterministic faults like outages are *meant* to exceed the budget).
_CAPPED_KINDS = frozenset({FaultKind.LOSS, FaultKind.SERVFAIL, FaultKind.LAME})


@dataclass(frozen=True)
class FaultRule:
    """One fault source, scoped by address, zone, region, and time.

    A rule applies to a delivery only when every populated scope field
    matches: ``addresses``/``prefix`` against the destination, ``zone``
    against the query name (DNS only; suffix match), ``region`` against
    the client's region name, and ``from_day``/``until_day`` (half-open,
    in simulated days) against the clock.  ``probability`` gates the
    injection per matching delivery; scheduled faults use 1.0.
    """

    kind: FaultKind
    probability: float = 1.0
    #: Extra simulated milliseconds charged to the client's retry budget
    #: (LATENCY rules; the packet still goes through).
    latency_ms: int = 0
    #: RATE_LIMIT only: deliveries answered per destination per sim-day.
    max_per_day: Optional[int] = None
    #: Which delivery plane the rule applies to: "dns", "http", "both".
    plane: str = "dns"
    addresses: Optional[FrozenSet[IPv4Address]] = None
    prefix: Optional[IPv4Prefix] = None
    zone: Optional[DomainName] = None
    region: Optional[str] = None
    from_day: Optional[int] = None
    until_day: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.CRASH:
            raise ConfigurationError(
                "CRASH is a checkpoint-barrier fault; schedule it with "
                "repro.faults.crash.CrashPlan, not a fabric FaultRule"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability out of range: {self.probability}"
            )
        if self.plane not in ("dns", "http", "both"):
            raise ConfigurationError(f"unknown fault plane: {self.plane!r}")
        if self.kind is FaultKind.RATE_LIMIT and not self.max_per_day:
            raise ConfigurationError("RATE_LIMIT rules need max_per_day")
        if self.kind is FaultKind.LATENCY and self.latency_ms <= 0:
            raise ConfigurationError("LATENCY rules need latency_ms > 0")
        if self.kind in (FaultKind.SERVFAIL, FaultKind.LAME) and self.plane != "dns":
            raise ConfigurationError(f"{self.kind} is a DNS-only fault")

    def matches(
        self,
        plane: str,
        address: IPv4Address,
        qname: Optional[DomainName],
        region: Optional[Region],
        day: int,
    ) -> bool:
        """Whether this rule's scope covers one delivery."""
        if self.plane != "both" and self.plane != plane:
            return False
        if self.addresses is not None and address not in self.addresses:
            return False
        if self.prefix is not None and address not in self.prefix:
            return False
        if self.zone is not None:
            if qname is None or not qname.is_subdomain_of(self.zone):
                return False
        if self.region is not None:
            if region is None or region.name != self.region:
                return False
        if self.from_day is not None and day < self.from_day:
            return False
        if self.until_day is not None and day >= self.until_day:
            return False
        return True


@dataclass(frozen=True)
class FaultVerdict:
    """What the plan decided for one delivery."""

    #: "deliver", "loss", "outage", "rate-limited", "servfail", "lame".
    outcome: str
    #: Synthetic failure response (injected SERVFAIL/REFUSED), if any.
    response: Optional[DnsResponse] = None
    #: Simulated milliseconds charged to the caller's retry budget.
    latency_ms: int = 0

    @property
    def delivered(self) -> bool:
        """True when the packet should reach the real server."""
        return self.outcome == "deliver"

    @property
    def dropped(self) -> bool:
        """True when the packet vanished (timeout at the client)."""
        return self.outcome in _DROP_OUTCOMES


_DELIVER = FaultVerdict(outcome="deliver")


class FaultPlan:
    """An ordered rule list evaluated on every fabric delivery.

    Parameters
    ----------
    rng:
        Seeded stream for probabilistic faults (fork it from the world's
        root so installing a plan never perturbs world dynamics).
    clock:
        The simulation clock, for windows and per-day rate limits.
    rules:
        Evaluated in order; the first rule that injects a failure wins.
        LATENCY rules are cumulative and never terminate evaluation.
    max_consecutive_failures:
        Plan-wide cap on consecutive probabilistic failures (loss /
        servfail / lame) per destination and plane.  Once a destination
        has failed that many deliveries in a row, the next probabilistic
        injection is suppressed and the packet goes through.  ``None``
        removes the guarantee (outage/rate-limit faults always bypass
        the cap — they model scheduled unavailability).
    metrics:
        Registry receiving ``faults.<plane>.<kind>`` injection counters.
    """

    def __init__(
        self,
        rng: SeededRng,
        clock: SimulationClock,
        rules: Sequence[FaultRule],
        max_consecutive_failures: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "custom",
    ) -> None:
        if max_consecutive_failures is not None and max_consecutive_failures < 1:
            raise ConfigurationError(
                "max_consecutive_failures must be >= 1 when set"
            )
        self._rng = rng
        self._clock = clock
        self.rules: List[FaultRule] = list(rules)
        self.max_consecutive_failures = max_consecutive_failures
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.name = name
        #: (plane, address) -> consecutive capped failures.
        self._consecutive: Dict[Tuple[str, IPv4Address], int] = {}
        #: (rule index, address) -> (sim day, deliveries seen today).
        self._rate_counts: Dict[Tuple[int, IPv4Address], Tuple[int, int]] = {}
        # Precomputed at install time (rules are fixed for the plan's
        # lifetime; a resume rebuilds the plan from the profile): days
        # outside every rule's window skip rule evaluation entirely on
        # the delivery hot path.  With only day-scoped rules installed,
        # most study days never touch the rule list.
        self._dateless_rules = any(
            rule.from_day is None and rule.until_day is None
            for rule in self.rules
        )
        self._day_windows: List[Tuple[Optional[int], Optional[int]]] = [
            (rule.from_day, rule.until_day)
            for rule in self.rules
            if rule.from_day is not None or rule.until_day is not None
        ]
        self._day_active: Dict[int, bool] = {}

    #: Faults never change the background load (see the fabric's Plane).
    traffic_surge = 1.0

    # -- delivery hooks -------------------------------------------------

    def admit_dns(
        self,
        address: IPv4Address,
        query: DnsQuery,
        region: Optional[Region],
    ) -> FaultVerdict:
        """Verdict for one DNS delivery to ``address``."""
        return self._intercept("dns", address, query, region)

    def admit_http(
        self,
        address: IPv4Address,
        host: Optional[DomainName],
        region: Optional[Region],
    ) -> FaultVerdict:
        """Verdict for one HTTP delivery to ``address``."""
        return self._intercept("http", address, None, region, host=host)

    # -- evaluation -----------------------------------------------------

    def _intercept(
        self,
        plane: str,
        address: IPv4Address,
        query: Optional[DnsQuery],
        region: Optional[Region],
        host: Optional[DomainName] = None,
    ) -> FaultVerdict:
        if not self.rules:
            return _DELIVER
        day = self._clock.day
        if not self._rules_active_on(day):
            # No rule's window covers today: preserve the exact
            # bookkeeping of a full scan that matched nothing (the
            # consecutive-failure streak still resets on a clean
            # delivery) without consulting any rule.
            if self._consecutive:
                self._consecutive.pop((plane, address), None)
            return _DELIVER
        qname = query.qname if query is not None else host
        latency = 0
        suppressed = False
        failure: Optional[Tuple[FaultRule, int]] = None
        for index, rule in enumerate(self.rules):
            if not rule.matches(plane, address, qname, region, day):
                continue
            if rule.kind is FaultKind.LATENCY:
                latency += rule.latency_ms
                continue
            if rule.kind is FaultKind.OUTAGE:
                failure = (rule, index)
                break
            if rule.kind is FaultKind.RATE_LIMIT:
                if self._over_rate_limit(index, rule, address, day):
                    failure = (rule, index)
                    break
                continue
            # Probabilistic loss / servfail / lame.  Once the
            # consecutive-failure cap suppresses one of these, the whole
            # delivery is immune to every *other* capped rule too —
            # otherwise a second probabilistic rule could re-fail the
            # attempt the cap just guaranteed, and a query could exhaust
            # its full retry budget under an equivalence profile.
            if rule.probability > 0 and self._rng.bernoulli(rule.probability):
                if suppressed or self._cap_reached(plane, address):
                    self.metrics.incr(f"faults.{plane}.suppressed")
                    self._consecutive[(plane, address)] = 0
                    suppressed = True
                    continue
                failure = (rule, index)
                break
        if failure is None:
            self._consecutive.pop((plane, address), None)
            if latency:
                self.metrics.incr(f"faults.{plane}.latency_injections")
                self.metrics.incr(f"faults.{plane}.latency_ms", latency)
            return (
                FaultVerdict(outcome="deliver", latency_ms=latency)
                if latency
                else _DELIVER
            )
        rule, _ = failure
        if rule.kind in _CAPPED_KINDS:
            key = (plane, address)
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
        outcome = self._outcome_of(rule.kind)
        self.metrics.incr(f"faults.{plane}.{rule.kind.value.replace('-', '_')}")
        response = None
        if query is not None:
            if rule.kind is FaultKind.SERVFAIL:
                response = DnsResponse.servfail(query)
            elif rule.kind is FaultKind.LAME:
                response = DnsResponse.refused(query)
        return FaultVerdict(outcome=outcome, response=response, latency_ms=latency)

    def _rules_active_on(self, day: int) -> bool:
        """Whether any rule's day window covers ``day`` (memoized)."""
        if self._dateless_rules:
            return True
        active = self._day_active.get(day)
        if active is None:
            active = any(
                (lo is None or day >= lo) and (hi is None or day < hi)
                for lo, hi in self._day_windows
            )
            self._day_active[day] = active
        return active

    def _cap_reached(self, plane: str, address: IPv4Address) -> bool:
        cap = self.max_consecutive_failures
        if cap is None:
            return False
        return self._consecutive.get((plane, address), 0) >= cap

    def _over_rate_limit(
        self, index: int, rule: FaultRule, address: IPv4Address, day: int
    ) -> bool:
        key = (index, address)
        window_day, count = self._rate_counts.get(key, (day, 0))
        if window_day != day:
            count = 0
        count += 1
        self._rate_counts[key] = (day, count)
        assert rule.max_per_day is not None
        return count > rule.max_per_day

    @staticmethod
    def _outcome_of(kind: FaultKind) -> str:
        if kind is FaultKind.RATE_LIMIT:
            return "rate-limited"
        return kind.value

    # -- world side ------------------------------------------------------

    def drive_day(self, surge: float = 1.0) -> Tuple[()]:
        """Faults have no daily dynamics: windows read the clock."""
        return ()

    def drive_state(self) -> str:
        """Only the profile name: the RNG and rate counters follow each
        process's own query stream, so replicas differ on them."""
        return self.name

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The plan's mutable state as JSON-compatible primitives.

        Rules are *not* serialized — they are rebuilt deterministically
        from the profile at resume time; what must survive is the RNG
        position, the consecutive-failure counters, and the per-day rate
        windows, so the resumed fault sequence replays bit-for-bit.
        """
        return {
            "rng": self._rng.getstate(),
            "consecutive": sorted(
                [plane, str(address), count]
                for (plane, address), count in self._consecutive.items()
            ),
            "rate_counts": sorted(
                [index, str(address), day, count]
                for (index, address), (day, count) in self._rate_counts.items()
            ),
            "metrics": self.metrics.snapshot(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate mutable state captured by :meth:`state_dict`."""
        self._rng.setstate(state["rng"])
        self._consecutive = {
            (plane, IPv4Address(address)): int(count)
            for plane, address, count in state["consecutive"]
        }
        self._rate_counts = {
            (int(index), IPv4Address(address)): (int(day), int(count))
            for index, address, day, count in state["rate_counts"]
        }
        self.metrics.restore(state["metrics"])
