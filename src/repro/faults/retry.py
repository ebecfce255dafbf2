"""Retry policy: bounded attempts, exponential backoff, timeout budget.

The paper's measurement ran on the live Internet, where queries time
out, nameservers throttle, and vantage points fall over.  Every network
client in the simulation (:class:`~repro.dns.client.DnsClient`, the
:class:`~repro.dns.resolver.RecursiveResolver` transport, and
:class:`~repro.web.http.HttpClient`) retries transient failures under a
:class:`RetryPolicy` before giving up, so a fault-injected run recovers
exactly the data a fault-free run measures — up to the point where the
fault rate exceeds the retry budget and the measurement layer must
degrade explicitly instead.

Backoff jitter is a keyed draw (:func:`~repro.rng.hash_fraction`) on
the client's label, the destination, the name and the attempt — no
stream, so a retry's backoff depends only on the retry itself, never on
how many retries the process made before.  All elapsed time is
*accounting only* — simulated milliseconds charged against the
per-destination budget.  Nothing here advances the world's
:class:`~repro.clock.SimulationClock`, so installing a fault plan can
never shift TTL expiry or purge horizons.

This module deliberately imports nothing from :mod:`repro.dns` or
:mod:`repro.net` so the transport layers can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..rng import hash_fraction

__all__ = ["RetryPolicy", "RetryBudget"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and a timeout budget.

    Attributes
    ----------
    max_attempts:
        Total delivery attempts per destination (first try included).
        Must be at least 1; 1 disables retrying entirely.
    base_backoff_ms:
        Backoff before the second attempt; doubles (by
        ``backoff_multiplier``) for each later attempt.
    backoff_multiplier:
        Exponential growth factor for successive backoffs.
    jitter_fraction:
        Each backoff is stretched by up to this fraction, a keyed draw
        on the retry's key and attempt (0 disables jitter).
    budget_ms:
        Per-destination budget in simulated milliseconds.  Injected
        latency and backoff sleep both charge against it; once spent, no
        further attempts are made even if ``max_attempts`` remain.
    """

    max_attempts: int = 4
    base_backoff_ms: int = 200
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.5
    budget_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_ms < 0 or self.budget_ms <= 0:
            raise ConfigurationError("backoff and budget must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError(
                f"jitter_fraction out of range: {self.jitter_fraction}"
            )

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        """A policy that makes exactly one attempt."""
        return cls(max_attempts=1)

    def backoff_ms(self, attempt: int, *key: object) -> int:
        """Backoff charged before attempt ``attempt + 1`` (1-indexed).

        ``key`` names the retry — the client's label, the destination
        and the name, each keyed by its ``str`` — and keys the jitter
        draw together with ``attempt``.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1)
        if self.jitter_fraction > 0:
            draw = hash_fraction("retry-jitter", *map(str, key), attempt)
            base += base * self.jitter_fraction * draw
        return int(base)

    def budget(self) -> "RetryBudget":
        """A fresh per-destination budget tracker."""
        return RetryBudget(self.budget_ms)


class RetryBudget:  # repro: allow[REP063] -- one budget per delivery attempt; exhausted and dropped within a single query
    """Tracks simulated milliseconds spent against one destination."""

    __slots__ = ("limit_ms", "spent_ms")

    def __init__(self, limit_ms: int) -> None:
        self.limit_ms = int(limit_ms)
        self.spent_ms = 0

    def charge(self, ms: int) -> None:
        """Record ``ms`` simulated milliseconds of latency or sleep."""
        if ms > 0:
            self.spent_ms += int(ms)

    @property
    def exhausted(self) -> bool:
        """True once the destination's budget has been spent."""
        return self.spent_ms >= self.limit_ms
