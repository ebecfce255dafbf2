"""Deterministic fault injection for the network fabric.

A :class:`FaultPlan` sits between the
:class:`~repro.net.fabric.NetworkFabric` and the servers it routes to.
On every DNS or HTTP delivery the fabric asks the plan for a
:class:`FaultVerdict`; the plan consults its ordered :class:`FaultRule`
list and either lets the packet through (possibly with added latency),
drops it, or substitutes a synthetic failure response (transient
``SERVFAIL``, lame-delegation ``REFUSED``).

Every verdict is a pure function of the delivery:

* probabilistic faults are keyed draws
  (:func:`~repro.rng.hash_fraction`) on (plan seed, rule index, day,
  plane, address, name, qtype, region, attempt) — no stream and no
  counters, so a delivery's fate is the same however deliveries
  interleave across shard workers or a checkpoint resume;
* time-scoped faults (outage windows) read the injected
  :class:`~repro.clock.SimulationClock`, never the wall clock;
* ``max_failed_attempts`` caps the attempts the plan may fail: attempts
  past the cap skip every probabilistic rule.  A plan whose cap is
  below a client's :class:`~repro.faults.retry.RetryPolicy`
  ``max_attempts`` is *within the retry budget*: every query gets
  through on some attempt, so measured artifacts are byte-identical to
  a fault-free run (the ``repro chaos`` equivalence check).

Every injection lands in a :class:`~repro.obs.metrics.MetricsRegistry`
counter (``faults.dns.loss``, ``faults.http.outage``, ...) so recovery
overhead is observable; the counters are the plan's only state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..clock import SimulationClock
from ..dns.message import DnsQuery, DnsResponse
from ..dns.name import DomainName
from ..errors import ConfigurationError
from ..markers import pure_function
from ..net.geo import Region
from ..net.ipaddr import IPv4Address, IPv4Prefix
from ..obs.metrics import MetricsRegistry
from ..rng import hash_fraction

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
_DROP_OUTCOMES = frozenset({"loss", "outage"})


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

    #: "deliver", "loss", "outage", "servfail", "lame".
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
    seed:
        Keys every probabilistic draw (derive it from the world's root
        seed so installing a plan never perturbs world dynamics).
    clock:
        The simulation clock, for day windows.
    rules:
        Evaluated in order; the first rule that injects a failure wins.
        LATENCY rules are cumulative and never terminate evaluation.
    max_failed_attempts:
        Plan-wide cap on the attempts probabilistic faults (loss /
        servfail / lame) may fail: attempts past it skip every
        probabilistic rule and the packet goes through.  ``None``
        removes the guarantee (outage faults always bypass the cap —
        they model scheduled unavailability).
    metrics:
        Registry receiving ``faults.<plane>.<kind>`` injection counters.
    """

    def __init__(
        self,
        seed: int,
        clock: SimulationClock,
        rules: Sequence[FaultRule],
        max_failed_attempts: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "custom",
    ) -> None:
        if max_failed_attempts is not None and max_failed_attempts < 1:
            raise ConfigurationError("max_failed_attempts must be >= 1 when set")
        self.seed = int(seed)
        self._clock = clock
        self.rules: List[FaultRule] = list(rules)
        self.max_failed_attempts = max_failed_attempts
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.name = name
        # Days outside every rule's window skip rule evaluation entirely
        # on the delivery hot path.  With only day-scoped rules
        # installed, most study days never touch the rule list.
        self._dateless_rules = any(
            rule.from_day is None and rule.until_day is None
            for rule in self.rules
        )
        self._day_windows: List[Tuple[Optional[int], Optional[int]]] = [
            (rule.from_day, rule.until_day) for rule in self.rules
        ]

    #: Faults never change the background load (see the fabric's Plane).
    traffic_surge = 1.0

    # -- delivery hooks -------------------------------------------------

    @pure_function
    def admit_dns(
        self,
        address: IPv4Address,
        query: DnsQuery,
        region: Optional[Region],
        attempt: int = 1,
    ) -> FaultVerdict:
        """Verdict for one DNS delivery to ``address``."""
        return self._intercept(
            "dns", address, query.qname, query, region, attempt
        )

    @pure_function
    def admit_http(
        self,
        address: IPv4Address,
        host: Optional[DomainName],
        region: Optional[Region],
        attempt: int = 1,
    ) -> FaultVerdict:
        """Verdict for one HTTP delivery to ``address``."""
        return self._intercept("http", address, host, None, region, attempt)

    # -- evaluation -----------------------------------------------------

    def _intercept(
        self,
        plane: str,
        address: IPv4Address,
        qname: Optional[DomainName],
        query: Optional[DnsQuery],
        region: Optional[Region],
        attempt: int,
    ) -> FaultVerdict:
        if not self.rules:
            return _DELIVER
        day = self._clock.day
        if not self._dateless_rules and not any(
            (lo is None or day >= lo) and (hi is None or day < hi)
            for lo, hi in self._day_windows
        ):
            return _DELIVER
        capped = (
            self.max_failed_attempts is not None
            and attempt > self.max_failed_attempts
        )
        latency = 0
        failure: Optional[FaultRule] = None
        for index, rule in enumerate(self.rules):
            if not rule.matches(plane, address, qname, region, day):
                continue
            if rule.kind is FaultKind.LATENCY:
                latency += rule.latency_ms
                continue
            if rule.kind is FaultKind.OUTAGE:
                failure = rule
                break
            # Probabilistic loss / servfail / lame: one keyed draw per
            # (rule, delivery, attempt), waived past the attempt cap.
            draw = hash_fraction(
                self.seed,
                index,
                day,
                plane,
                str(address),
                str(qname) if qname is not None else "",
                query.qtype.value if query is not None else "",
                region.name if region is not None else "",
                attempt,
            )
            if draw >= rule.probability:
                continue
            if capped:
                self.metrics.incr(f"faults.{plane}.suppressed")
                continue
            failure = rule
            break
        if failure is None:
            if latency:
                self.metrics.incr(f"faults.{plane}.latency_injections")
                self.metrics.incr(f"faults.{plane}.latency_ms", latency)
                return FaultVerdict(outcome="deliver", latency_ms=latency)
            return _DELIVER
        self.metrics.incr(f"faults.{plane}.{failure.kind.value}")
        response = None
        if query is not None:
            if failure.kind is FaultKind.SERVFAIL:
                response = DnsResponse.servfail(query)
            elif failure.kind is FaultKind.LAME:
                response = DnsResponse.refused(query)
        return FaultVerdict(
            outcome=failure.kind.value, response=response, latency_ms=latency
        )

    # -- world side ------------------------------------------------------

    def drive_day(self, surge: float = 1.0) -> Tuple[()]:
        """Faults have no daily dynamics: windows read the clock."""
        return ()

    def drive_state(self) -> str:
        """Only the profile name: the plan keeps no state but its
        counters, which each process keeps for its own deliveries."""
        return self.name

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The plan's mutable state: its injection counters.

        Rules are *not* serialized — they are rebuilt deterministically
        from the profile at resume time, and every verdict is a keyed
        draw, so nothing else needs to survive a resume.
        """
        return {"metrics": self.metrics.snapshot()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self.metrics.restore(state["metrics"])
